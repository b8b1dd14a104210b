//! # tbi-exp — declarative experiment sweeps over the tbi stack
//!
//! Every result in the source paper — Table I, Figure 1's schemes, the
//! refresh ablation, the interleaver-size sweep — is an instance of one
//! abstract operation: *run mapping × DRAM configuration × interleaver size ×
//! controller options and report utilization*.  This crate makes that
//! operation first class:
//!
//! * [`Scenario`] — one fully specified run: a DRAM preset or custom
//!   configuration, a [`MappingKind`](tbi_interleaver::MappingKind), an
//!   [`InterleaverSpec`](tbi_interleaver::InterleaverSpec), a controller
//!   configuration and an optional channel/FEC stage from `tbi_satcom`;
//! * [`SweepGrid`] — a Cartesian product of axes (DRAM configurations ×
//!   interleaver sizes × mappings × refresh settings) that expands into
//!   scenarios with stable, unique IDs;
//! * [`Experiment`] — runs scenarios across `std::thread` workers with
//!   deterministic result ordering (the output is identical for any worker
//!   count);
//! * [`Record`] — the typed result of one scenario (per-phase utilization,
//!   sustained bandwidth, row-hit rates, energy, optional link-level error
//!   rates), serializable to JSON without external dependencies
//!   ([`serialize`]);
//! * [`Campaign`] — end-to-end downlink campaigns: interleaver depth ×
//!   code rate × mapping × device preset under a shared time-varying
//!   [`LinkProfile`](tbi_satcom::LinkProfile) pass, reduced to per-preset
//!   post-FEC BER vs aggregate-bandwidth frontiers ([`campaign`]);
//! * [`MappingSearch`] — design-space exploration over address mappings: a
//!   seeded portfolio search (free-shape tile sweep plus annealed
//!   permutation-and-fold climbs) that *generates* mapping configurations
//!   instead of evaluating fixed ones ([`search`]).
//!
//! ## Quick start
//!
//! A three-axis sweep over two presets, two interleaver sizes and the
//! paper's Table I mapping pair:
//!
//! ```
//! use tbi_dram::DramStandard;
//! use tbi_interleaver::MappingKind;
//! use tbi_exp::SweepGrid;
//!
//! # fn main() -> Result<(), tbi_exp::ExpError> {
//! let experiment = SweepGrid::new()
//!     .preset(DramStandard::Ddr4, 3200)?
//!     .preset(DramStandard::Lpddr4, 4266)?
//!     .sizes([5_000, 20_000])
//!     .mappings(MappingKind::TABLE1)
//!     .into_experiment()
//!     .with_workers(4);
//! let records = experiment.run()?;
//! assert_eq!(records.len(), 2 * 2 * 2);
//! let json = tbi_exp::serialize::records_to_json(&records);
//! assert!(json.starts_with('['));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod grid;
pub mod json;
pub mod record;
pub mod runner;
pub mod scenario;
pub mod search;
pub mod serialize;

pub use campaign::{Campaign, CampaignConfig, CampaignReport, FrontierPoint, PresetFrontier};
pub use grid::{RefreshSetting, SweepGrid};
pub use record::{LinkRecord, Record, TenantLatency, TenantSummary};
pub use runner::Experiment;
pub use scenario::{LinkStage, Scenario, TenantStage};
pub use search::{MappingSearch, SearchRecord, SearchSettings};

use tbi_dram::ConfigError;
use tbi_interleaver::InterleaverError;
use tbi_satcom::SatcomError;

/// Errors produced while building or running experiments.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpError {
    /// Interleaver construction or evaluation failed.
    Interleaver(InterleaverError),
    /// The DRAM configuration was rejected.
    Dram(ConfigError),
    /// The optional channel/FEC stage failed.
    Satcom(SatcomError),
    /// A specific scenario of an experiment failed.
    Scenario {
        /// The stable ID of the failing scenario.
        id: String,
        /// The full grid-axis value set of the failing scenario
        /// ([`Scenario`]'s `Display`), so a failing sweep cell is
        /// diagnosable from a CI log without re-running the sweep.
        detail: String,
        /// The underlying failure.
        source: Box<ExpError>,
    },
    /// Writing a result artifact failed.
    Io {
        /// Path of the artifact.
        path: String,
        /// Operating-system error message.
        message: String,
    },
}

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpError::Interleaver(e) => write!(f, "{e}"),
            ExpError::Dram(e) => write!(f, "DRAM configuration error: {e}"),
            ExpError::Satcom(e) => write!(f, "link stage error: {e}"),
            ExpError::Scenario { id, detail, source } => {
                write!(f, "scenario `{id}` ({detail}): {source}")
            }
            ExpError::Io { path, message } => write!(f, "cannot write `{path}`: {message}"),
        }
    }
}

impl std::error::Error for ExpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExpError::Interleaver(e) => Some(e),
            ExpError::Dram(e) => Some(e),
            ExpError::Satcom(e) => Some(e),
            ExpError::Scenario { source, .. } => Some(source),
            ExpError::Io { .. } => None,
        }
    }
}

impl From<InterleaverError> for ExpError {
    fn from(value: InterleaverError) -> Self {
        ExpError::Interleaver(value)
    }
}

impl From<ConfigError> for ExpError {
    fn from(value: ConfigError) -> Self {
        ExpError::Dram(value)
    }
}

impl From<SatcomError> for ExpError {
    fn from(value: SatcomError) -> Self {
        ExpError::Satcom(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nests_scenario_context() {
        let inner = ExpError::Interleaver(InterleaverError::CapacityExceeded {
            required_bursts: 100,
            available_bursts: 10,
        });
        let err = ExpError::Scenario {
            id: "DDR4-3200/b100/row-major/refresh=default".to_string(),
            detail: "dram=DDR4-3200 bursts=100 mapping=row-major".to_string(),
            source: Box::new(inner),
        };
        let text = err.to_string();
        assert!(text.contains("DDR4-3200"));
        assert!(text.contains("100 bursts"));
        assert!(
            text.contains("dram=DDR4-3200 bursts=100"),
            "axis detail missing: {text}"
        );
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn scenario_errors_from_experiments_carry_axis_values() {
        use tbi_interleaver::{InterleaverSpec, MappingKind};
        let scenario = Scenario::preset(
            tbi_dram::DramStandard::Ddr3,
            800,
            MappingKind::RowMajor,
            InterleaverSpec::from_burst_count(100_000_000_000),
        )
        .unwrap();
        let err = Experiment::new(vec![scenario]).run().unwrap_err();
        let text = err.to_string();
        for fragment in [
            "dram=DDR3-800",
            "bursts=100000000000",
            "mapping=row-major",
            "refresh=default",
            "engine=event",
        ] {
            assert!(text.contains(fragment), "`{fragment}` missing from: {text}");
        }
    }

    #[test]
    fn conversions_wrap_layer_errors() {
        let e: ExpError = InterleaverError::InvalidDimension {
            reason: "zero".to_string(),
        }
        .into();
        assert!(matches!(e, ExpError::Interleaver(_)));
        let e: ExpError = SatcomError::InvalidCodeParameters {
            reason: "k >= n".to_string(),
        }
        .into();
        assert!(matches!(e, ExpError::Satcom(_)));
    }
}
