//! Stream workload specifications: tenants, QoS classes, arrival models.
//!
//! A [`StreamSpec`] describes one logical FEC stream of a ground-station
//! terminal: a tenant identity, the triangular-block geometry it interleaves
//! ([`InterleaverSpec`]), how its blocks arrive over time
//! ([`ArrivalModel`]), which access phase each block performs
//! ([`PhasePattern`]) and the service guarantees it buys ([`QosClass`]).
//! The [`StreamScheduler`](crate::StreamScheduler) multiplexes many such
//! streams onto the shared DRAM channels.

use crate::policy::SchedPolicyKind;
use tbi_interleaver::{AccessPhase, InterleaverSpec, MappingKind};

/// Service class of a stream: a bandwidth weight for the weighted-share
/// policy and a per-block deadline budget for the earliest-deadline-first
/// policy.
///
/// # Examples
///
/// ```
/// use tbi_sched::QosClass;
///
/// assert!(QosClass::Premium.weight() > QosClass::BestEffort.weight());
/// assert!(QosClass::Premium.deadline_cycles() < QosClass::Standard.deadline_cycles());
/// assert_eq!(QosClass::Standard.label(), "standard");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-critical traffic: largest bandwidth share, tightest
    /// deadlines.
    Premium,
    /// Default class for ordinary streams.
    Standard,
    /// Background traffic: served with whatever bandwidth is left.
    BestEffort,
}

impl QosClass {
    /// Every class, in decreasing priority order.
    pub const ALL: [QosClass; 3] = [QosClass::Premium, QosClass::Standard, QosClass::BestEffort];

    /// Relative bandwidth weight under the weighted-share policy.
    #[must_use]
    pub fn weight(self) -> u32 {
        match self {
            QosClass::Premium => 4,
            QosClass::Standard => 2,
            QosClass::BestEffort => 1,
        }
    }

    /// Per-block deadline budget in device clock cycles (relative to the
    /// block's arrival) used by the earliest-deadline-first policy and the
    /// deadline-miss accounting.
    #[must_use]
    pub fn deadline_cycles(self) -> u64 {
        match self {
            QosClass::Premium => 100_000,
            QosClass::Standard => 400_000,
            // Effectively unbounded, but far from the u64 edge so
            // `arrival + deadline` cannot overflow.
            QosClass::BestEffort => u64::MAX / 4,
        }
    }

    /// Stable lower-case label used in records and artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Premium => "premium",
            QosClass::Standard => "standard",
            QosClass::BestEffort => "best_effort",
        }
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// When a stream's blocks become eligible for admission.
///
/// Arrival cycles feed the latency accounting (a request's latency is
/// measured from its **block's arrival** to the cycle its data burst leaves
/// the bus) and the EDF deadlines (`arrival + deadline_cycles`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// All blocks are available from cycle 0 — a saturated tenant whose
    /// latency measures how fast its backlog drains.
    Backlogged,
    /// Block `b` arrives at `b × interval_cycles` — an optical-link tenant
    /// producing one code block per (deterministic) link interval.
    Periodic {
        /// Device clock cycles between consecutive block arrivals.
        interval_cycles: u64,
    },
}

impl ArrivalModel {
    /// Arrival cycle of block `block` (0-based).
    #[must_use]
    pub fn arrival_cycle(&self, block: u64) -> u64 {
        match self {
            ArrivalModel::Backlogged => 0,
            ArrivalModel::Periodic { interval_cycles } => block.saturating_mul(*interval_cycles),
        }
    }
}

/// Which access phase each of a stream's blocks performs.
///
/// A real interleaver buffer alternates row-wise writes with column-wise
/// reads; modelling each block as one full phase pass keeps the scheduler's
/// single-stream case bit-identical to the existing per-phase drivers while
/// [`PhasePattern::Alternating`] produces the mixed read/write traffic of a
/// double-buffered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePattern {
    /// Every block performs the row-wise write phase.
    Write,
    /// Every block performs the column-wise read phase.
    Read,
    /// Even blocks write, odd blocks read — a fill/drain ping-pong.
    Alternating,
}

impl PhasePattern {
    /// The access phase of block `block` (0-based).
    #[must_use]
    pub fn phase(self, block: u64) -> AccessPhase {
        match self {
            PhasePattern::Write => AccessPhase::Write,
            PhasePattern::Read => AccessPhase::Read,
            PhasePattern::Alternating => {
                if block % 2 == 0 {
                    AccessPhase::Write
                } else {
                    AccessPhase::Read
                }
            }
        }
    }
}

/// One tenant stream: identity, triangular-block geometry, arrival model
/// and QoS class.
///
/// # Examples
///
/// ```
/// use tbi_interleaver::InterleaverSpec;
/// use tbi_sched::{ArrivalModel, QosClass, StreamSpec};
///
/// let spec = StreamSpec::new("uplink-7", InterleaverSpec::from_burst_count(2_000))
///     .with_qos(QosClass::Premium)
///     .with_blocks(4)
///     .with_arrival(ArrivalModel::Periodic { interval_cycles: 50_000 });
/// assert_eq!(spec.tenant, "uplink-7");
/// assert_eq!(spec.weight(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Tenant identity, carried verbatim into reports and records.
    pub tenant: String,
    /// Service class.
    pub qos: QosClass,
    /// Triangular-block geometry of this stream's interleaver.
    pub spec: InterleaverSpec,
    /// DRAM address-mapping scheme for this stream's buffer.
    pub mapping: MappingKind,
    /// Access-phase pattern across the stream's blocks.
    pub pattern: PhasePattern,
    /// Number of triangular blocks the stream processes.
    pub blocks: u64,
    /// When those blocks arrive.
    pub arrival: ArrivalModel,
}

impl StreamSpec {
    /// Creates a stream with defaults: [`QosClass::Standard`], the
    /// optimized mapping, write-phase blocks, one block, backlogged.
    #[must_use]
    pub fn new(tenant: impl Into<String>, spec: InterleaverSpec) -> Self {
        Self {
            tenant: tenant.into(),
            qos: QosClass::Standard,
            spec,
            mapping: MappingKind::Optimized,
            pattern: PhasePattern::Write,
            blocks: 1,
            arrival: ArrivalModel::Backlogged,
        }
    }

    /// Sets the QoS class.
    #[must_use]
    pub fn with_qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the address-mapping scheme.
    #[must_use]
    pub fn with_mapping(mut self, mapping: MappingKind) -> Self {
        self.mapping = mapping;
        self
    }

    /// Sets the access-phase pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: PhasePattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the number of blocks (clamped to at least 1).
    #[must_use]
    pub fn with_blocks(mut self, blocks: u64) -> Self {
        self.blocks = blocks.max(1);
        self
    }

    /// Sets the arrival model.
    #[must_use]
    pub fn with_arrival(mut self, arrival: ArrivalModel) -> Self {
        self.arrival = arrival;
        self
    }

    /// The stream's bandwidth weight (its QoS class's weight).
    #[must_use]
    pub fn weight(&self) -> u32 {
        self.qos.weight()
    }

    /// Requests per block: one per position of the triangular index space.
    #[must_use]
    pub fn requests_per_block(&self) -> u64 {
        self.spec.total_positions()
    }
}

/// Scheduler-level configuration: the policy and the in-flight block
/// budget.
///
/// # Examples
///
/// ```
/// use tbi_sched::{SchedConfig, SchedPolicyKind};
///
/// let config = SchedConfig::new(SchedPolicyKind::WeightedShare);
/// assert_eq!(config.budget_for(8), 16);
/// assert_eq!(config.with_max_in_flight(3).budget_for(8), 3);
/// assert_eq!(config.with_threads(4).threads, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Which policy selects streams.
    pub policy: SchedPolicyKind,
    /// Bound on concurrently in-flight triangular blocks (the admission
    /// budget backing the slab pool); `0` means auto (two blocks per
    /// stream).
    pub max_in_flight_blocks: usize,
    /// Worker threads for the final per-channel drain (the admission loop
    /// itself stays sequential — its policy decisions are cross-channel).
    /// Results are bit-identical for any value; `1` (the default) runs
    /// fully sequentially.
    pub threads: usize,
}

impl SchedConfig {
    /// Creates a configuration with the auto in-flight budget.
    #[must_use]
    pub fn new(policy: SchedPolicyKind) -> Self {
        Self {
            policy,
            max_in_flight_blocks: 0,
            threads: 1,
        }
    }

    /// Sets an explicit in-flight block budget (clamped to at least 1 at
    /// use).
    #[must_use]
    pub fn with_max_in_flight(mut self, blocks: usize) -> Self {
        self.max_in_flight_blocks = blocks;
        self
    }

    /// Sets the drain worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The effective pool capacity for `streams` streams: the explicit
    /// budget, or two blocks per stream when auto, never less than 1.
    #[must_use]
    pub fn budget_for(&self, streams: usize) -> usize {
        if self.max_in_flight_blocks == 0 {
            (streams * 2).max(1)
        } else {
            self.max_in_flight_blocks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_classes_order_weights_and_deadlines() {
        assert!(QosClass::Premium.weight() > QosClass::Standard.weight());
        assert!(QosClass::Standard.weight() > QosClass::BestEffort.weight());
        assert!(QosClass::Premium.deadline_cycles() < QosClass::Standard.deadline_cycles());
        for class in QosClass::ALL {
            assert!(class.deadline_cycles().checked_add(u64::MAX / 2).is_some());
            assert!(!class.label().is_empty());
        }
    }

    #[test]
    fn arrival_models_place_blocks() {
        assert_eq!(ArrivalModel::Backlogged.arrival_cycle(17), 0);
        let periodic = ArrivalModel::Periodic {
            interval_cycles: 1_000,
        };
        assert_eq!(periodic.arrival_cycle(0), 0);
        assert_eq!(periodic.arrival_cycle(3), 3_000);
    }

    #[test]
    fn phase_patterns_alternate() {
        assert_eq!(PhasePattern::Write.phase(5), AccessPhase::Write);
        assert_eq!(PhasePattern::Read.phase(5), AccessPhase::Read);
        assert_eq!(PhasePattern::Alternating.phase(0), AccessPhase::Write);
        assert_eq!(PhasePattern::Alternating.phase(1), AccessPhase::Read);
    }

    #[test]
    fn stream_spec_builder_defaults() {
        let spec = StreamSpec::new("t", InterleaverSpec::from_burst_count(100));
        assert_eq!(spec.qos, QosClass::Standard);
        assert_eq!(spec.blocks, 1);
        assert_eq!(spec.arrival, ArrivalModel::Backlogged);
        assert!(spec.requests_per_block() >= 100);
        assert_eq!(spec.with_blocks(0).blocks, 1);
    }
}
