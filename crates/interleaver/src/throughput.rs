//! Bandwidth-utilization evaluation: drives the DRAM model with interleaver
//! traces and reports per-phase results (the machinery behind Table I).

use tbi_dram::channel::{ChannelRouter, CombinedStats};
use tbi_dram::{ControllerConfig, DramConfig, RefreshMode};

use crate::config::InterleaverSpec;
use crate::mapping::{ChannelMapping, ChannelTraceGenerator, MappingKind};
use crate::trace::AccessPhase;
use crate::InterleaverError;

/// Result of simulating one access phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPhaseReport {
    /// Which phase was simulated.
    pub phase: AccessPhase,
    /// Per-channel controller statistics for the phase.
    pub stats: CombinedStats,
    /// Aggregate data-bus utilization in `[0, 1]` (total busy cycles over
    /// `channels × max elapsed`).
    pub utilization: f64,
    /// Aggregate achieved bandwidth in Gbit/s across all channels.
    pub aggregate_bandwidth_gbps: f64,
    /// Spread (max − min) of the per-channel utilizations.
    pub utilization_spread: f64,
}

/// Result of simulating both phases of one (DRAM configuration, mapping)
/// pair — one cell pair of the paper's Table I, on any channel/rank
/// topology.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelUtilizationReport {
    /// DRAM configuration label, e.g. `DDR4-3200`.
    pub config_label: String,
    /// Mapping scheme name.
    pub mapping_name: String,
    /// Channel count of the subsystem.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks: u32,
    /// Write-phase (row-wise) result.
    pub write: ChannelPhaseReport,
    /// Read-phase (column-wise) result.
    pub read: ChannelPhaseReport,
}

impl ChannelUtilizationReport {
    /// Write-phase utilization in `[0, 1]`.
    #[must_use]
    pub fn write_utilization(&self) -> f64 {
        self.write.utilization
    }

    /// Read-phase utilization in `[0, 1]`.
    #[must_use]
    pub fn read_utilization(&self) -> f64 {
        self.read.utilization
    }

    /// The minimum of both phases' utilizations — what limits the
    /// interleaver throughput (bold column of Table I).
    #[must_use]
    pub fn min_utilization(&self) -> f64 {
        self.write.utilization.min(self.read.utilization)
    }

    /// The sustained interleaver throughput in Gbit/s over all channels,
    /// i.e. the aggregate peak DRAM bandwidth scaled by the minimum phase
    /// utilization.
    #[must_use]
    pub fn sustained_throughput_gbps(&self) -> f64 {
        self.write
            .aggregate_bandwidth_gbps
            .min(self.read.aggregate_bandwidth_gbps)
    }

    /// The worse (larger) per-channel utilization spread of the two phases.
    #[must_use]
    pub fn utilization_spread(&self) -> f64 {
        self.write
            .utilization_spread
            .max(self.read.utilization_spread)
    }
}

/// Evaluates mapping schemes on a DRAM configuration for a given interleaver
/// size.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::{InterleaverSpec, MappingKind, ThroughputEvaluator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dram = DramConfig::preset(DramStandard::Lpddr4, 4266)?;
/// let evaluator = ThroughputEvaluator::new(dram, InterleaverSpec::from_burst_count(10_000));
/// let report = evaluator.evaluate(MappingKind::Optimized)?;
/// assert!(report.min_utilization() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputEvaluator {
    dram: DramConfig,
    spec: InterleaverSpec,
    controller: ControllerConfig,
    threads: usize,
}

impl ThroughputEvaluator {
    /// Creates an evaluator with the default controller configuration (the
    /// standard's default refresh mode, FR-FCFS, open-page).
    #[must_use]
    pub fn new(dram: DramConfig, spec: InterleaverSpec) -> Self {
        Self::with_controller(dram, spec, ControllerConfig::default())
    }

    /// Creates an evaluator with an explicit controller configuration.
    #[must_use]
    pub fn with_controller(
        dram: DramConfig,
        spec: InterleaverSpec,
        controller: ControllerConfig,
    ) -> Self {
        Self {
            dram,
            spec,
            controller,
            threads: 1,
        }
    }

    /// Sets the worker-thread count the channels are driven on (clamped to
    /// at least 1).  Results are bit-identical for any value; threading
    /// only changes wall-clock time.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The DRAM configuration under evaluation.
    #[must_use]
    pub fn dram(&self) -> &DramConfig {
        &self.dram
    }

    /// The interleaver sizing under evaluation.
    #[must_use]
    pub fn spec(&self) -> &InterleaverSpec {
        &self.spec
    }

    /// Returns a copy of this evaluator with refresh disabled, modelling the
    /// paper's "refresh disabled" experiment (legal when the interleaver data
    /// lifetime is below the DRAM refresh period).
    #[must_use]
    pub fn without_refresh(&self) -> Self {
        let mut clone = self.clone();
        clone.controller.refresh_mode = Some(RefreshMode::Disabled);
        clone
    }

    /// Evaluates a named mapping scheme on the configuration's channel/rank
    /// topology: traffic is striped over the channels by the scheme's
    /// [`ChannelMapping`] variant, each channel runs its stream through its
    /// own controller under the [`ChannelRouter`], and the per-channel
    /// statistics are aggregated.
    ///
    /// The write phase is simulated first (row-wise writes), statistics are
    /// then reset while preserving bank state, and the read phase follows —
    /// matching the paper's measurement where both phases are reported
    /// separately and the minimum limits throughput.  With the default
    /// `1 × 1` topology the single channel sees exactly the scheme's
    /// single-channel address stream.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if the mapping cannot be built for this
    /// subsystem/interleaver combination.
    pub fn evaluate(
        &self,
        kind: MappingKind,
    ) -> Result<ChannelUtilizationReport, InterleaverError> {
        let topology = self.dram.topology;
        let mapping = ChannelMapping::new(kind, &self.dram, self.spec.dimension())?;
        let generator = ChannelTraceGenerator::new(&mapping);
        let mut router = ChannelRouter::new(self.dram.clone(), self.controller)
            .map_err(InterleaverError::Dram)?;

        let (clock, width) = (self.dram.clock_mhz(), self.dram.geometry.bus_width_bits);
        let phase_report = |router: &mut ChannelRouter, phase: AccessPhase| {
            let sources = (0..topology.channels)
                .map(|channel| generator.channel_requests(phase, channel))
                .collect();
            let stats = router.run_phase_sources_threaded(sources, self.threads);
            ChannelPhaseReport {
                phase,
                utilization: stats.utilization(),
                aggregate_bandwidth_gbps: stats.aggregate_bandwidth_gbps(clock, width),
                utilization_spread: stats.utilization_spread(),
                stats,
            }
        };
        let write = phase_report(&mut router, AccessPhase::Write);
        router.reset_stats();
        let read = phase_report(&mut router, AccessPhase::Read);
        Ok(ChannelUtilizationReport {
            config_label: self.dram.label(),
            mapping_name: mapping.name().to_string(),
            channels: topology.channels,
            ranks: topology.ranks,
            write,
            read,
        })
    }

    /// Evaluates the paper's Table I pair (row-major and optimized) and
    /// returns both reports.
    ///
    /// # Errors
    ///
    /// See [`ThroughputEvaluator::evaluate`].
    pub fn evaluate_table1_pair(
        &self,
    ) -> Result<(ChannelUtilizationReport, ChannelUtilizationReport), InterleaverError> {
        Ok((
            self.evaluate(MappingKind::RowMajor)?,
            self.evaluate(MappingKind::Optimized)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_dram::DramStandard;

    fn evaluator(standard: DramStandard, rate: u32, bursts: u64) -> ThroughputEvaluator {
        let dram = DramConfig::preset(standard, rate).unwrap();
        ThroughputEvaluator::new(dram, InterleaverSpec::from_burst_count(bursts))
    }

    #[test]
    fn optimized_beats_row_major_on_fast_ddr4() {
        let eval = evaluator(DramStandard::Ddr4, 3200, 60_000);
        let (baseline, optimized) = eval.evaluate_table1_pair().unwrap();
        assert!(
            optimized.min_utilization() > baseline.min_utilization(),
            "optimized {} must beat row-major {}",
            optimized.min_utilization(),
            baseline.min_utilization()
        );
        assert!(optimized.min_utilization() > 0.85);
        // The baseline's weak phase is the column-wise read phase.
        assert!(baseline.read_utilization() < baseline.write_utilization());
    }

    #[test]
    fn reports_carry_labels_and_counts() {
        let eval = evaluator(DramStandard::Ddr3, 800, 5_000);
        let report = eval.evaluate(MappingKind::Optimized).unwrap();
        assert_eq!(report.config_label, "DDR3-800");
        assert_eq!(report.mapping_name, "optimized");
        assert_eq!(
            report.write.stats.aggregate().completed_requests,
            eval.spec().total_positions()
        );
        assert_eq!(
            report.read.stats.aggregate().completed_requests,
            eval.spec().total_positions()
        );
        assert!(report.sustained_throughput_gbps() > 0.0);
        assert!(report.min_utilization() <= report.write_utilization());
        assert!(report.min_utilization() <= report.read_utilization());
    }

    #[test]
    fn disabling_refresh_improves_utilization() {
        let eval = evaluator(DramStandard::Ddr4, 1600, 40_000);
        let with_refresh = eval.evaluate(MappingKind::Optimized).unwrap();
        let without_refresh = eval
            .without_refresh()
            .evaluate(MappingKind::Optimized)
            .unwrap();
        assert!(without_refresh.min_utilization() >= with_refresh.min_utilization());
        assert!(
            without_refresh.min_utilization() > 0.9,
            "refresh-free optimized mapping should be >90%, got {}",
            without_refresh.min_utilization()
        );
    }

    #[test]
    fn two_channels_nearly_double_aggregate_bandwidth() {
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let spec = InterleaverSpec::from_burst_count(100_000);
        let single = ThroughputEvaluator::new(dram.clone(), spec)
            .evaluate(MappingKind::Optimized)
            .unwrap();
        let dual = ThroughputEvaluator::new(
            dram.with_topology(tbi_dram::ChannelTopology::new(2, 1)),
            spec,
        )
        .evaluate(MappingKind::Optimized)
        .unwrap();
        let scaling = dual.sustained_throughput_gbps() / single.sustained_throughput_gbps();
        assert!(
            scaling > 1.8,
            "2-channel aggregate bandwidth should scale ≥1.8x, got {scaling} \
             ({} vs {})",
            single.sustained_throughput_gbps(),
            dual.sustained_throughput_gbps()
        );
        assert!(
            dual.utilization_spread() < 0.1,
            "channel load should be balanced, spread {}",
            dual.utilization_spread()
        );
    }

    #[test]
    fn threaded_channel_evaluation_is_bit_identical() {
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(tbi_dram::ChannelTopology::new(4, 1));
        let spec = InterleaverSpec::from_burst_count(40_000);
        let sequential = ThroughputEvaluator::new(dram.clone(), spec)
            .evaluate(MappingKind::Optimized)
            .unwrap();
        for threads in [2, 3, 4, 8] {
            let threaded = ThroughputEvaluator::new(dram.clone(), spec)
                .with_threads(threads)
                .evaluate(MappingKind::Optimized)
                .unwrap();
            assert_eq!(
                threaded, sequential,
                "threads={threads} must match the sequential evaluation"
            );
        }
    }

    #[test]
    fn capacity_errors_propagate() {
        let dram = DramConfig::preset(DramStandard::Lpddr4, 2133).unwrap();
        let eval =
            ThroughputEvaluator::new(dram, InterleaverSpec::from_burst_count(100_000_000_000));
        assert!(matches!(
            eval.evaluate(MappingKind::RowMajor),
            Err(InterleaverError::CapacityExceeded { .. })
        ));
    }
}
