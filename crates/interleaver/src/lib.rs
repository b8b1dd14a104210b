//! # tbi-interleaver — triangular block interleavers mapped to DRAM
//!
//! This crate implements the core contribution of *"A Mapping of Triangular
//! Block Interleavers to DRAM for Optical Satellite Communication"*
//! (DATE 2024): the interleaver data structures and, most importantly, the
//! address mappings that place the interleaver's two-dimensional index space
//! onto the (bank, row, column) coordinates of a JEDEC DRAM device.
//!
//! ## Why this exists
//!
//! Optical LEO-satellite downlinks beyond 100 Gbit/s need interleavers with
//! tens of millions of symbols to break up burst errors — far too large for
//! on-chip SRAM, so the symbols live in DRAM.  A triangular block interleaver
//! is written **row-wise** and read **column-wise**; one of the two phases is
//! always hostile to DRAM if the index space is simply laid out linearly
//! ("row-major"), and the interleaver throughput is set by the *slower*
//! phase.  The [`mapping::OptimizedMapping`] combines three optimizations to
//! keep both phases above 90 % bandwidth utilization:
//!
//! 1. **bank round-robin** — the bank index advances with every access in
//!    both directions, so consecutive bursts land in different bank groups;
//! 2. **page tiling** — the index space is partitioned into rectangles owned
//!    by one DRAM page each, splitting page misses evenly between phases;
//! 3. **bank-staggered offsets** — the tile boundaries of different banks are
//!    shifted against each other so their page misses never coincide.
//!
//! ## Quick start
//!
//! Route both phases of the optimized mapping through one DRAM channel
//! (whole scenarios, with records and sweeps, run through `tbi_exp`):
//!
//! ```
//! use tbi_dram::{ChannelRouter, ControllerConfig, DramConfig, DramStandard};
//! use tbi_interleaver::{AccessPhase, ChannelMapping, ChannelTraceGenerator, MappingKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dram = DramConfig::preset(DramStandard::Ddr4, 3200)?;
//! // A small interleaver (dimension 200) so the example runs quickly.
//! let mapping = ChannelMapping::new(MappingKind::Optimized, &dram, 200)?;
//! let generator = ChannelTraceGenerator::new(&mapping);
//! let mut router = ChannelRouter::new(dram, ControllerConfig::default())?;
//! let write = router.run_phase_sources(vec![generator.channel_requests(AccessPhase::Write, 0)]);
//! router.reset_stats();
//! let read = router.run_phase_sources(vec![generator.channel_requests(AccessPhase::Read, 0)]);
//! assert!(write.utilization().min(read.utilization()) > 0.85);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`triangular`] | triangular index space, write/read order, reference (de)interleaving |
//! | [`block`] | rectangular block interleaver (the SRAM first stage) |
//! | [`two_stage`] | SRAM + DRAM two-stage interleaver composition |
//! | [`mapping`] | the [`DramMapping`] trait and all mapping schemes |
//! | [`trace`] | write-phase / read-phase DRAM request generation |
//! | [`config`] | interleaver sizing helpers |
//! | [`analysis`] | exact row-buffer counts (hits, empties, conflicts) per phase and channel, without timing code |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod block;
pub mod config;
pub mod mapping;
pub mod trace;
pub mod triangular;
pub mod two_stage;

pub use block::BlockInterleaver;
pub use config::InterleaverSpec;
pub use mapping::{
    ChannelMapping, ChannelTraceGenerator, DramMapping, MappingKind, OptimizedMapping,
};
pub use trace::{AccessPhase, PhaseTrace, TraceGenerator};
pub use triangular::TriangularInterleaver;
pub use two_stage::TwoStageInterleaver;

/// Errors produced by interleaver construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum InterleaverError {
    /// The interleaver does not fit into the DRAM device.
    CapacityExceeded {
        /// Bursts required by the index space mapping.
        required_bursts: u64,
        /// Bursts available in the device.
        available_bursts: u64,
    },
    /// An invalid dimension (zero rows/columns) was requested.
    InvalidDimension {
        /// Explanation of the problem.
        reason: String,
    },
    /// The underlying DRAM configuration was rejected.
    Dram(tbi_dram::ConfigError),
}

impl std::fmt::Display for InterleaverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterleaverError::CapacityExceeded {
                required_bursts,
                available_bursts,
            } => write!(
                f,
                "interleaver needs {required_bursts} bursts but the device only has {available_bursts}"
            ),
            InterleaverError::InvalidDimension { reason } => {
                write!(f, "invalid interleaver dimension: {reason}")
            }
            InterleaverError::Dram(e) => write!(f, "DRAM configuration error: {e}"),
        }
    }
}

impl std::error::Error for InterleaverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InterleaverError::Dram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tbi_dram::ConfigError> for InterleaverError {
    fn from(value: tbi_dram::ConfigError) -> Self {
        InterleaverError::Dram(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = InterleaverError::CapacityExceeded {
            required_bursts: 100,
            available_bursts: 10,
        };
        assert!(err.to_string().contains("100"));
        let err = InterleaverError::InvalidDimension {
            reason: "zero".to_string(),
        };
        assert!(err.to_string().contains("zero"));
    }

    #[test]
    fn dram_errors_convert() {
        let dram_err = tbi_dram::ConfigError::UnknownPreset {
            standard: "DDR9".to_string(),
            data_rate: 1,
        };
        let err: InterleaverError = dram_err.into();
        assert!(matches!(err, InterleaverError::Dram(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
