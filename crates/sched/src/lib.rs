//! Multi-tenant stream scheduling for DRAM-mapped triangular interleavers.
//!
//! The paper's pipeline drives one interleaver through the memory system
//! at a time; a satellite ground station terminates many optical links at
//! once, each with its own interleaver stream and service class.  This
//! crate adds the missing layer: a tenant-aware scheduler that multiplexes
//! thousands of concurrent interleaver streams onto the shared DRAM
//! channels with admission control, three QoS policies and per-tenant
//! latency accounting.
//!
//! - [`StreamSpec`] / [`SchedConfig`] describe the workload: tenant
//!   identity, triangular-block geometry, arrival model, QoS class, and
//!   the policy plus in-flight budget.
//! - [`StreamScheduler`] runs the streams over a
//!   [`ChannelRouter`](tbi_dram::ChannelRouter) under a laggard-first
//!   clock whose per-channel projection is the router's phase drive; with
//!   one stream the result is bit-identical to
//!   [`ChannelRouter::run_phase_sources`](tbi_dram::ChannelRouter::run_phase_sources).
//! - [`SchedPolicyKind`] (round-robin, weighted bandwidth share,
//!   earliest-deadline-first) decides which ready stream feeds each
//!   channel's free queue slots; each channel keeps its ready streams
//!   ordered the way the policy picks.
//! - [`LatencyHistogram`] tracks enqueue-to-completion latency per tenant
//!   in fixed log2 buckets with conservative p50/p99 extraction, and
//!   [`jain_fairness`] condenses cross-tenant spread into one index.

mod latency;
mod policy;
mod pool;
mod scheduler;
mod spec;

pub use latency::{jain_fairness, LatencyHistogram};
pub use policy::SchedPolicyKind;
pub use pool::{BlockPool, BlockSlot};
pub use scheduler::{SchedReport, StreamScheduler, TenantReport};
pub use spec::{ArrivalModel, PhasePattern, QosClass, SchedConfig, StreamSpec};

/// Errors from scheduler construction.
#[derive(Debug)]
pub enum SchedError {
    /// The stream list was empty.
    NoStreams,
    /// The DRAM configuration was rejected by the memory system.
    Config(tbi_dram::ConfigError),
    /// A stream's interleaver does not fit the memory system.
    Interleaver(tbi_interleaver::InterleaverError),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoStreams => write!(f, "at least one stream is required"),
            SchedError::Config(error) => write!(f, "invalid DRAM configuration: {error}"),
            SchedError::Interleaver(error) => write!(f, "invalid stream interleaver: {error}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::NoStreams => None,
            SchedError::Config(error) => Some(error),
            SchedError::Interleaver(error) => Some(error),
        }
    }
}

impl From<tbi_dram::ConfigError> for SchedError {
    fn from(error: tbi_dram::ConfigError) -> Self {
        SchedError::Config(error)
    }
}

impl From<tbi_interleaver::InterleaverError> for SchedError {
    fn from(error: tbi_interleaver::InterleaverError) -> Self {
        SchedError::Interleaver(error)
    }
}
