//! # tbi — triangular block interleavers mapped to DRAM
//!
//! Facade crate for the reproduction of *"A Mapping of Triangular Block
//! Interleavers to DRAM for Optical Satellite Communication"* (DATE 2024).
//! It re-exports the five workspace library crates so that applications can
//! depend on a single crate:
//!
//! * [`dram`] — the cycle-accurate DRAM device/controller model
//!   ([`tbi_dram`]);
//! * [`interleaver`] — triangular block interleavers and the DRAM address
//!   mappings, including the paper's optimized mapping
//!   ([`tbi_interleaver`]);
//! * [`satcom`] — Reed–Solomon FEC, burst channels and the end-to-end
//!   optical-downlink simulation ([`tbi_satcom`]);
//! * [`sched`] — the multi-tenant stream scheduler: QoS policies,
//!   admission control and per-tenant latency histograms ([`tbi_sched`]);
//! * [`exp`] — the declarative [`Scenario`]/[`SweepGrid`]/[`Experiment`]
//!   evaluation layer with parallel sweeps and JSON records
//!   ([`tbi_exp`]).
//!
//! The most common entry points are re-exported at the crate root.
//!
//! ## Example
//!
//! Compare the row-major and optimized mappings on LPDDR4-4266 (one cell pair
//! of the paper's Table I) through the experiment layer:
//!
//! ```
//! use tbi::{DramStandard, MappingKind, SweepGrid};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let records = SweepGrid::new()
//!     .preset(DramStandard::Lpddr4, 4266)?
//!     .size(20_000)
//!     .mappings(MappingKind::TABLE1)
//!     .into_experiment()
//!     .run()?;
//! let [row_major, optimized] = &records[..] else { unreachable!() };
//! assert!(optimized.min_utilization > row_major.min_utilization);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tbi_dram as dram;
pub use tbi_exp as exp;
pub use tbi_interleaver as interleaver;
pub use tbi_satcom as satcom;
pub use tbi_sched as sched;

pub use tbi_dram::{
    AddressField, BitPermutation, ChannelRouter, ChannelTopology, CombinedStats, ControllerConfig,
    DramConfig, DramStandard, PermutationMapping, PhysicalAddress, RefreshMode, Request,
    SchedulingPolicy, Stats, TimingEngine,
};
pub use tbi_exp::{
    Campaign, CampaignConfig, CampaignReport, ExpError, Experiment, FrontierPoint, LinkRecord,
    LinkStage, MappingSearch, PresetFrontier, Record, RefreshSetting, Scenario, SearchRecord,
    SearchSettings, SweepGrid,
};
pub use tbi_interleaver::{
    AccessPhase, BlockInterleaver, ChannelMapping, DramMapping, InterleaverSpec, MappingKind,
    OptimizedMapping, TraceGenerator, TriangularInterleaver, TwoStageInterleaver,
};
pub use tbi_satcom::{
    BandwidthBudget, CoherenceFading, GilbertElliott, LinkConfig, LinkProfile, LinkReport,
    LinkSimulation, PassSegment, ReedSolomon, Weather,
};
pub use tbi_sched::{
    LatencyHistogram, QosClass, SchedConfig, SchedPolicyKind, SchedReport, StreamScheduler,
    StreamSpec, TenantReport,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let config = crate::DramConfig::preset(crate::DramStandard::Ddr3, 800).unwrap();
        assert_eq!(config.label(), "DDR3-800");
        let interleaver = crate::TriangularInterleaver::new(8).unwrap();
        assert_eq!(interleaver.len(), 36);
        let rs = crate::ReedSolomon::ccsds();
        assert_eq!(rs.code_len(), 255);
    }
}
