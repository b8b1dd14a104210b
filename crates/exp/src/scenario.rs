//! One fully specified evaluation run.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tbi_dram::{
    ChannelRouter, CombinedStats, ConfigError, ControllerConfig, DramConfig, DramStandard,
    EnergyParams, EnergyReport, RefreshMode, TimingEngine,
};
use tbi_interleaver::mapping::DramMapping;
use tbi_interleaver::{
    AccessPhase, ChannelMapping, ChannelTraceGenerator, InterleaverSpec, MappingKind,
};
use tbi_satcom::{GilbertElliott, LinkConfig, LinkProfile, LinkSimulation};

use tbi_sched::{
    PhasePattern, QosClass, SchedConfig, SchedError, SchedPolicyKind, StreamScheduler, StreamSpec,
};

use crate::record::{LinkRecord, Record, TenantLatency, TenantSummary};
use crate::ExpError;

/// An optional end-to-end channel/FEC stage attached to a scenario.
///
/// When present, [`Scenario::run`] additionally pushes Reed–Solomon code
/// words through a burst channel (seeded, so results are reproducible) and
/// reports the link-level error rates in the record.  The channel is either
/// the static [`GilbertElliott`] optical-downlink model or — when a
/// [`LinkProfile`] is attached — a time-varying pass whose segments retune
/// the burst statistics over elevation and weather.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkStage {
    /// Code and interleaver-choice parameters of the link simulation.
    pub config: LinkConfig,
    /// Burst (bad-state) error rate of the Gilbert–Elliott optical channel
    /// (ignored when `profile` is set).
    pub burst_error_rate: f64,
    /// RNG seed; identical seeds reproduce identical link records.
    pub seed: u64,
    /// Optional time-varying pass profile replacing the static channel.
    pub profile: Option<LinkProfile>,
    /// Number of independent interleaver blocks pushed through the channel
    /// (their counters accumulate before the rates are computed; clamped to
    /// at least 1).  More trials smooth the error-rate estimates.
    pub trials: u32,
}

impl LinkStage {
    /// Creates a link stage with the default CCSDS-style code and the given
    /// channel burst error rate.
    #[must_use]
    pub fn new(burst_error_rate: f64) -> Self {
        Self {
            config: LinkConfig::default(),
            burst_error_rate,
            seed: 0x7B1_5EED,
            profile: None,
            trials: 1,
        }
    }

    /// Replaces the link-simulation configuration.
    #[must_use]
    pub fn with_config(mut self, config: LinkConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a time-varying pass profile (replaces the static channel).
    #[must_use]
    pub fn with_profile(mut self, profile: LinkProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Sets the number of independent interleaver blocks per run.
    #[must_use]
    pub fn with_trials(mut self, trials: u32) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Runs the link simulation and summarizes it as a [`LinkRecord`].
    ///
    /// All trials draw from one seeded RNG stream in order, so the record is
    /// a pure function of the stage (bit-identical across repeat runs,
    /// worker counts and host threads).
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Satcom`] if the code or link configuration is
    /// invalid.
    pub fn run(&self) -> Result<LinkRecord, ExpError> {
        let simulation = LinkSimulation::new(self.config)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let trials = self.trials.max(1);
        let mut total: Option<tbi_satcom::LinkReport> = None;
        for _ in 0..trials {
            let report = match &self.profile {
                Some(profile) => simulation.run(profile, &mut rng)?,
                None => {
                    let channel = GilbertElliott::optical_downlink(self.burst_error_rate);
                    simulation.run(&channel, &mut rng)?
                }
            };
            match &mut total {
                Some(total) => total.accumulate(&report),
                None => total = Some(report),
            }
        }
        let report = total.expect("at least one trial ran");
        Ok(LinkRecord {
            frame_error_rate: report.frame_error_rate(),
            channel_symbol_error_rate: report.channel_symbol_error_rate(),
            residual_symbol_error_rate: report.residual_symbol_error_rate(),
            post_fec_ber: report.post_fec_ber(),
            code_rate: self.config.rs_data_len as f64 / self.config.rs_code_len as f64,
            interleaver_depth: self.config.codewords as u64,
        })
    }
}

/// An optional multi-tenant scheduling stage attached to a scenario.
///
/// When present, [`Scenario::run`] replaces the single-stream phase drivers
/// with a [`StreamScheduler`] multiplexing `streams` concurrent copies of
/// the scenario's interleaver over the shared channels, and attaches a
/// [`TenantSummary`] (per-tenant p50/p99 latency, fairness index, deadline
/// misses) to the record.  Streams get a fixed 1:2:1 QoS mix by index —
/// `premium` (index ≡ 0 mod 4), `standard` (1, 2), `best_effort` (3) — so
/// two runs differing only in `policy` are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStage {
    /// Number of concurrent tenant streams (clamped to at least 1).
    pub streams: u32,
    /// Stream-selection policy.
    pub policy: SchedPolicyKind,
    /// Triangular blocks each stream processes (alternating write/read
    /// phases; clamped to at least 1).
    pub blocks: u64,
    /// In-flight block budget (0 = auto: two blocks per stream).
    pub max_in_flight_blocks: usize,
}

impl TenantStage {
    /// Creates a tenant stage with `streams` streams under `policy`, two
    /// blocks per stream and the auto in-flight budget.
    #[must_use]
    pub fn new(streams: u32, policy: SchedPolicyKind) -> Self {
        Self {
            streams: streams.max(1),
            policy,
            blocks: 2,
            max_in_flight_blocks: 0,
        }
    }

    /// Sets the number of blocks per stream.
    #[must_use]
    pub fn with_blocks(mut self, blocks: u64) -> Self {
        self.blocks = blocks.max(1);
        self
    }

    /// Sets an explicit in-flight block budget.
    #[must_use]
    pub fn with_max_in_flight(mut self, blocks: usize) -> Self {
        self.max_in_flight_blocks = blocks;
        self
    }

    /// The QoS class of stream `index` under the fixed 1:2:1 mix.
    #[must_use]
    pub fn qos_for(index: u32) -> QosClass {
        match index % 4 {
            0 => QosClass::Premium,
            3 => QosClass::BestEffort,
            _ => QosClass::Standard,
        }
    }
}

/// One fully specified run: DRAM configuration, mapping scheme, interleaver
/// sizing, controller options and an optional link stage.
///
/// # Examples
///
/// ```
/// use tbi_dram::DramStandard;
/// use tbi_interleaver::{InterleaverSpec, MappingKind};
/// use tbi_exp::Scenario;
///
/// # fn main() -> Result<(), tbi_exp::ExpError> {
/// let scenario = Scenario::preset(
///     DramStandard::Lpddr4,
///     4266,
///     MappingKind::Optimized,
///     InterleaverSpec::from_burst_count(5_000),
/// )?;
/// let record = scenario.run()?;
/// assert_eq!(record.dram_label, "LPDDR4-4266");
/// assert!(record.min_utilization > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    dram: DramConfig,
    mapping: MappingKind,
    spec: InterleaverSpec,
    controller: ControllerConfig,
    link: Option<LinkStage>,
    tenants: Option<TenantStage>,
    custom_id: Option<String>,
    threads: usize,
}

impl Scenario {
    /// Creates a scenario on one of the paper's preset DRAM configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Dram`] if the (standard, data rate) pair is not a
    /// known preset.
    pub fn preset(
        standard: DramStandard,
        data_rate_mtps: u32,
        mapping: MappingKind,
        spec: InterleaverSpec,
    ) -> Result<Self, ExpError> {
        Ok(Self::custom(
            DramConfig::preset(standard, data_rate_mtps)?,
            mapping,
            spec,
        ))
    }

    /// Creates a scenario on an arbitrary (e.g. hand-edited and validated)
    /// DRAM configuration.
    #[must_use]
    pub fn custom(dram: DramConfig, mapping: MappingKind, spec: InterleaverSpec) -> Self {
        Self {
            dram,
            mapping,
            spec,
            controller: ControllerConfig::default(),
            link: None,
            tenants: None,
            custom_id: None,
            threads: 1,
        }
    }

    /// Sets the worker-thread count used to drive the per-channel
    /// controllers (clamped to at least 1).  Results are bit-identical for
    /// any value — the thread count never enters [`Scenario::id`] and only
    /// affects [`Record::wall_time_s`]-class fields.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Replaces the controller configuration.
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = controller;
        self
    }

    /// Disables refresh (the paper's in-text experiment, legal when the
    /// interleaver data lifetime stays below the DRAM refresh period).
    #[must_use]
    pub fn without_refresh(mut self) -> Self {
        self.controller.refresh_mode = Some(RefreshMode::Disabled);
        self
    }

    /// Selects the timing engine advancing the DRAM clock (the event-driven
    /// engine is the default; the cycle-accurate engine remains available as
    /// the reference for equivalence checks and benchmarks).
    #[must_use]
    pub fn with_engine(mut self, engine: TimingEngine) -> Self {
        self.controller.engine = engine;
        self
    }

    /// Attaches a channel/FEC stage whose error rates are reported alongside
    /// the DRAM metrics.
    #[must_use]
    pub fn with_link(mut self, link: LinkStage) -> Self {
        self.link = Some(link);
        self
    }

    /// Attaches a multi-tenant scheduling stage: the run multiplexes
    /// `stage.streams` concurrent copies of the interleaver through a
    /// [`StreamScheduler`] instead of the single-stream phase drivers.
    #[must_use]
    pub fn with_tenants(mut self, stage: TenantStage) -> Self {
        self.tenants = Some(stage);
        self
    }

    /// Overrides the derived scenario ID.
    #[must_use]
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.custom_id = Some(id.into());
        self
    }

    /// The stable scenario ID: either the explicit override or
    /// `<label>/b<bursts>/<mapping>/refresh=<mode>`, with a `/c<N>r<M>`
    /// suffix when the topology is not the single-channel, single-rank
    /// default (so legacy IDs are unchanged).
    #[must_use]
    pub fn id(&self) -> String {
        if let Some(id) = &self.custom_id {
            return id.clone();
        }
        let mut id = format!(
            "{}/b{}/{}/refresh={}",
            self.dram.label(),
            self.spec.burst_count(),
            self.mapping.label(),
            refresh_tag(self.controller.refresh_mode)
        );
        if !self.dram.topology.is_single() {
            id.push_str(&format!(
                "/c{}r{}",
                self.dram.topology.channels, self.dram.topology.ranks
            ));
        }
        if let Some(stage) = &self.tenants {
            id.push_str(&format!("/tenants={}x{}", stage.streams, stage.policy));
        }
        id
    }

    /// The DRAM configuration under evaluation.
    #[must_use]
    pub fn dram(&self) -> &DramConfig {
        &self.dram
    }

    /// The mapping scheme under evaluation.
    #[must_use]
    pub fn mapping(&self) -> MappingKind {
        self.mapping
    }

    /// The interleaver sizing under evaluation.
    #[must_use]
    pub fn spec(&self) -> &InterleaverSpec {
        &self.spec
    }

    /// The controller configuration used by the run.
    #[must_use]
    pub fn controller(&self) -> &ControllerConfig {
        &self.controller
    }

    /// The optional link stage.
    #[must_use]
    pub fn link(&self) -> Option<&LinkStage> {
        self.link.as_ref()
    }

    /// The optional multi-tenant stage.
    #[must_use]
    pub fn tenants(&self) -> Option<&TenantStage> {
        self.tenants.as_ref()
    }

    /// Builds the scenario's DRAM mapping (used e.g. to render Figure 1
    /// grids without running a simulation).
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Interleaver`] if the index space does not fit the
    /// device under this scheme.
    pub fn build_mapping(&self) -> Result<Box<dyn DramMapping>, ExpError> {
        Ok(self.mapping.build(&self.dram, self.spec.dimension())?)
    }

    /// Runs the scenario and collects a structured [`Record`].
    ///
    /// The DRAM simulation is timed with a monotonic clock; the resulting
    /// [`Record::wall_time_s`] and [`Record::sim_cycles_per_second`] record
    /// how fast the configured [`TimingEngine`]
    /// chewed through the simulated cycles (they are excluded from record
    /// equality, see [`Record`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] if the mapping cannot be built, the interleaver
    /// does not fit the device, or the optional link stage fails.
    pub fn run(&self) -> Result<Record, ExpError> {
        match self.tenants {
            Some(stage) => self.run_tenant_mode(stage),
            None => self.run_phases(),
        }
    }

    /// Simulates the write phase and then the read phase, and returns their
    /// per-channel statistics in that order.
    ///
    /// The mapping's channel-aware variant stripes the traffic across the
    /// channels, and each channel runs under its own controller of one
    /// [`ChannelRouter`], driven on [`Scenario::threads`] workers.  Each
    /// phase gets a fresh statistics window while bank state carries over,
    /// so the read phase starts on the rows the write phase left open.
    /// [`Scenario::run`] times this call and builds its record from the
    /// result.  This method ignores any tenant stage: it always runs the
    /// two plain phases.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Dram`] if the DRAM or controller configuration is
    /// rejected (checked first), and [`ExpError::Interleaver`] if the mapping
    /// cannot be built, e.g. because the interleaver does not fit the device.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbi_dram::DramStandard;
    /// use tbi_interleaver::{InterleaverSpec, MappingKind};
    /// use tbi_exp::Scenario;
    ///
    /// # fn main() -> Result<(), tbi_exp::ExpError> {
    /// let spec = InterleaverSpec::from_burst_count(10_000);
    /// let scenario = Scenario::preset(DramStandard::Lpddr4, 4266, MappingKind::Optimized, spec)?;
    /// let [write, read] = scenario.phase_stats()?;
    /// assert_eq!(write.aggregate().write_bursts, spec.total_positions());
    /// assert_eq!(read.aggregate().read_bursts, spec.total_positions());
    /// assert!(write.utilization().min(read.utilization()) > 0.5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn phase_stats(&self) -> Result<[CombinedStats; 2], ExpError> {
        let mut router = ChannelRouter::new(self.dram.clone(), self.controller)?;
        let mapping = ChannelMapping::new(self.mapping, &self.dram, self.spec.dimension())?;
        let generator = ChannelTraceGenerator::new(&mapping);
        Ok(AccessPhase::ALL.map(|phase| {
            router.reset_stats();
            let sources = (0..self.dram.topology.channels)
                .map(|channel| generator.channel_requests(phase, channel))
                .collect();
            router.run_phase_sources_threaded(sources, self.threads)
        }))
    }

    /// The write and read phase on any topology ([`Scenario::phase_stats`]),
    /// timed.
    fn run_phases(&self) -> Result<Record, ExpError> {
        let started = std::time::Instant::now();
        let [write, read] = self.phase_stats()?;
        let wall_time_s = started.elapsed().as_secs_f64();
        self.record(&[&write, &read], wall_time_s, None)
    }

    /// The multi-tenant path: `streams` concurrent copies of the
    /// interleaver run through a [`StreamScheduler`] under the configured
    /// policy; the DRAM counters come from the scheduler's single combined
    /// statistics window (writes and reads interleave freely, so the two
    /// per-phase utilization columns both carry the combined window's bus
    /// utilization), and the per-tenant latency metrics fill
    /// [`Record::tenants`].
    fn run_tenant_mode(&self, stage: TenantStage) -> Result<Record, ExpError> {
        let started = std::time::Instant::now();
        let streams: Vec<StreamSpec> = (0..stage.streams)
            .map(|index| {
                StreamSpec::new(format!("tenant-{index:04}"), *self.spec())
                    .with_qos(TenantStage::qos_for(index))
                    .with_mapping(self.mapping)
                    .with_pattern(PhasePattern::Alternating)
                    .with_blocks(stage.blocks)
            })
            .collect();
        let sched = SchedConfig::new(stage.policy)
            .with_max_in_flight(stage.max_in_flight_blocks)
            .with_threads(self.threads);
        let scheduler = StreamScheduler::new(self.dram.clone(), self.controller, streams, sched)
            .map_err(|error| match error {
                SchedError::Config(e) => ExpError::Dram(e),
                SchedError::Interleaver(e) => ExpError::Interleaver(e),
                SchedError::NoStreams => ExpError::Dram(ConfigError::InvalidController {
                    field: "tenant streams",
                    reason: "a tenant stage needs at least one stream".to_string(),
                }),
            })?;
        let report = scheduler.run();
        let wall_time_s = started.elapsed().as_secs_f64();
        let per_tenant = report
            .tenants
            .iter()
            .map(|tenant| TenantLatency {
                tenant: tenant.tenant.clone(),
                qos: tenant.qos.label().to_string(),
                requests: tenant.requests,
                mean_latency_cycles: tenant.latency.mean(),
                latency_saturated: tenant.latency_saturated(),
                p50_latency_cycles: tenant.latency.p50(),
                p99_latency_cycles: tenant.latency.p99(),
                deadline_misses: tenant.deadline_misses,
            })
            .collect();
        let tenants = TenantSummary {
            policy: report.policy.label().to_string(),
            streams: stage.streams,
            fairness_index: report.fairness_index(),
            worst_p50_cycles: report.worst_p50(),
            worst_p99_cycles: report.worst_p99(),
            deadline_misses: report.total_deadline_misses(),
            per_tenant,
        };
        self.record(&[&report.stats], wall_time_s, Some(tenants))
    }

    /// Assembles the record of a run from its statistics windows, in order:
    /// the write and the read phase, or a tenant run's one combined window.
    /// The write columns come from the first window, the read columns from
    /// the last and the limits from the worse window.  Energy and counters
    /// are taken per channel over all windows (each channel's device pays
    /// its own background power over its own elapsed window) and summed
    /// into subsystem totals.  The optional link stage runs here, outside
    /// the timed simulation.
    fn record(
        &self,
        windows: &[&CombinedStats],
        wall_time_s: f64,
        tenants: Option<TenantSummary>,
    ) -> Result<Record, ExpError> {
        let (write, read) = (windows[0], windows[windows.len() - 1]);
        let (clock, width) = (self.dram.clock_mhz(), self.dram.geometry.bus_width_bits);
        let params = EnergyParams::for_config(&self.dram);
        let mut energy_total_mj = 0.0;
        let mut total_bytes = 0.0;
        let mut activates = 0u64;
        let mut simulated_cycles = 0u64;
        for channel in 0..write.channels() {
            let mut totals = write.per_channel()[channel].clone();
            for window in &windows[1..] {
                totals.merge(&window.per_channel()[channel]);
            }
            energy_total_mj += EnergyReport::from_stats(&totals, &self.dram, &params).total_mj;
            total_bytes += (totals.read_bursts + totals.write_bursts) as f64
                * f64::from(self.dram.geometry.burst_bytes());
            activates += totals.activates;
            simulated_cycles += totals.elapsed_cycles;
        }
        let min_utilization = windows
            .iter()
            .map(|w| w.utilization())
            .fold(f64::INFINITY, f64::min);
        let aggregate_gbps = windows
            .iter()
            .map(|w| w.aggregate_bandwidth_gbps(clock, width))
            .fold(f64::INFINITY, f64::min);
        let spread = windows
            .iter()
            .map(|w| w.utilization_spread())
            .fold(0.0, f64::max);
        Ok(Record {
            scenario_id: self.id(),
            dram_label: self.dram.label(),
            mapping: self.mapping.label(),
            bursts: self.spec.burst_count(),
            dimension: self.spec.dimension(),
            refresh_disabled: self.controller.refresh_mode == Some(RefreshMode::Disabled),
            channels: self.dram.topology.channels,
            ranks: self.dram.topology.ranks,
            write_utilization: write.utilization(),
            read_utilization: read.utilization(),
            min_utilization,
            sustained_gbps: aggregate_gbps / f64::from(self.dram.topology.channels),
            aggregate_gbps,
            channel_utilization_spread: spread,
            write_row_hit_rate: write.aggregate().row_hit_rate(),
            read_row_hit_rate: read.aggregate().row_hit_rate(),
            activates,
            energy_total_mj,
            energy_nj_per_byte: if total_bytes > 0.0 {
                energy_total_mj * 1e6 / total_bytes
            } else {
                0.0
            },
            simulated_cycles,
            threads: self.threads as u32,
            wall_time_s,
            sim_cycles_per_second: if wall_time_s > 0.0 {
                simulated_cycles as f64 / wall_time_s
            } else {
                0.0
            },
            link: self.link.as_ref().map(LinkStage::run).transpose()?,
            tenants,
        })
    }
}

/// The full grid-axis value set of the scenario, one line: DRAM label,
/// channel/rank topology, interleaver size and dimension, mapping, refresh
/// mode, scheduling policy, queue capacity and timing engine.
/// Experiment errors embed this so a failing sweep cell is diagnosable from
/// the log alone.
impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dram={} channels={} ranks={} bursts={} dimension={} mapping={} refresh={} \
             scheduling={:?} queue_capacity={} engine={}",
            self.dram.label(),
            self.dram.topology.channels,
            self.dram.topology.ranks,
            self.spec.burst_count(),
            self.spec.dimension(),
            self.mapping.label(),
            refresh_tag(self.controller.refresh_mode),
            self.controller.scheduling,
            self.controller.queue_capacity,
            self.controller.engine,
        )?;
        if let Some(stage) = &self.tenants {
            write!(
                f,
                " tenants={} policy={} blocks={}",
                stage.streams, stage.policy, stage.blocks
            )?;
        }
        Ok(())
    }
}

/// Short textual tag for a refresh-mode override (used in scenario IDs).
fn refresh_tag(mode: Option<RefreshMode>) -> &'static str {
    match mode {
        None => "default",
        Some(RefreshMode::AllBank) => "all-bank",
        Some(RefreshMode::PerBank) => "per-bank",
        Some(RefreshMode::Disabled) => "off",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> InterleaverSpec {
        InterleaverSpec::from_burst_count(2_000)
    }

    #[test]
    fn preset_scenario_derives_a_stable_id() {
        let s = Scenario::preset(
            DramStandard::Ddr4,
            3200,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap();
        assert_eq!(s.id(), "DDR4-3200/b2000/optimized/refresh=default");
        assert_eq!(
            s.without_refresh().id(),
            "DDR4-3200/b2000/optimized/refresh=off"
        );
    }

    #[test]
    fn unknown_preset_is_rejected() {
        let err = Scenario::preset(
            DramStandard::Ddr4,
            1234,
            MappingKind::RowMajor,
            small_spec(),
        );
        assert!(matches!(err, Err(ExpError::Dram(_))));
    }

    #[test]
    fn display_carries_every_grid_axis_value() {
        let s = Scenario::preset(
            DramStandard::Lpddr5,
            8533,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap()
        .without_refresh();
        let text = s.to_string();
        for fragment in [
            "dram=LPDDR5-8533",
            "bursts=2000",
            "dimension=",
            "mapping=optimized",
            "refresh=off",
            "scheduling=FrFcfs",
            "queue_capacity=64",
            "engine=event",
        ] {
            assert!(text.contains(fragment), "`{fragment}` missing from {text}");
        }
    }

    #[test]
    fn with_engine_selects_the_timing_engine() {
        let s = Scenario::preset(
            DramStandard::Ddr4,
            3200,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap();
        assert_eq!(s.controller().engine, TimingEngine::Event);
        let cycle = s.clone().with_engine(TimingEngine::Cycle);
        assert_eq!(cycle.controller().engine, TimingEngine::Cycle);
        assert!(cycle.to_string().contains("engine=cycle"));
        // Equal results either way — the records only differ in wall time.
        assert_eq!(s.run().unwrap(), cycle.run().unwrap());
    }

    #[test]
    fn records_report_simulation_speed() {
        let record = Scenario::preset(
            DramStandard::Ddr4,
            3200,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(record.simulated_cycles > 0);
        assert!(record.wall_time_s > 0.0);
        assert!(record.sim_cycles_per_second > 0.0);
    }

    #[test]
    fn topology_appends_to_the_id_only_when_scaled_out() {
        use tbi_dram::ChannelTopology;
        let base = Scenario::preset(
            DramStandard::Ddr4,
            3200,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap();
        assert_eq!(base.id(), "DDR4-3200/b2000/optimized/refresh=default");
        let mut scaled = base.clone();
        scaled.dram = scaled.dram.with_topology(ChannelTopology::new(2, 2));
        assert_eq!(
            scaled.id(),
            "DDR4-3200/b2000/optimized/refresh=default/c2r2"
        );
        let text = scaled.to_string();
        assert!(text.contains("channels=2"), "{text}");
        assert!(text.contains("ranks=2"), "{text}");
    }

    #[test]
    fn multi_channel_scenario_reports_aggregate_metrics() {
        use tbi_dram::ChannelTopology;
        let mut scenario = Scenario::preset(
            DramStandard::Ddr4,
            3200,
            MappingKind::Optimized,
            InterleaverSpec::from_burst_count(20_000),
        )
        .unwrap();
        let single = scenario.run().unwrap();
        scenario.dram = scenario.dram.with_topology(ChannelTopology::new(2, 1));
        let dual = scenario.run().unwrap();
        assert_eq!(dual.channels, 2);
        assert_eq!(dual.ranks, 1);
        assert!(dual.aggregate_gbps > 1.5 * single.aggregate_gbps);
        assert!((dual.sustained_gbps - dual.aggregate_gbps / 2.0).abs() < 1e-12);
        assert!(dual.channel_utilization_spread >= 0.0);
        assert!(dual.min_utilization > 0.5);
        assert!(dual.energy_total_mj > single.energy_total_mj * 0.5);
        // Both engines agree on the multi-channel path too.
        let cycle = scenario.clone().with_engine(TimingEngine::Cycle);
        assert_eq!(scenario.run().unwrap(), cycle.run().unwrap());
    }

    #[test]
    fn optimized_beats_row_major_on_fast_ddr4() {
        let run = |mapping| {
            let spec = InterleaverSpec::from_burst_count(60_000);
            Scenario::preset(DramStandard::Ddr4, 3200, mapping, spec)
                .unwrap()
                .run()
                .unwrap()
        };
        let (baseline, optimized) = (run(MappingKind::RowMajor), run(MappingKind::Optimized));
        assert!(
            optimized.min_utilization > baseline.min_utilization,
            "optimized {} must beat row-major {}",
            optimized.min_utilization,
            baseline.min_utilization
        );
        assert!(optimized.min_utilization > 0.85);
        // The baseline's weak phase is the column-wise read phase.
        assert!(baseline.read_utilization < baseline.write_utilization);
    }

    #[test]
    fn records_carry_labels_and_phase_counts() {
        let s = Scenario::preset(
            DramStandard::Ddr3,
            800,
            MappingKind::Optimized,
            InterleaverSpec::from_burst_count(5_000),
        )
        .unwrap();
        let record = s.run().unwrap();
        assert_eq!(record.dram_label, "DDR3-800");
        assert_eq!(record.mapping, "optimized");
        let [write, read] = s.phase_stats().unwrap();
        assert_eq!(
            write.aggregate().completed_requests,
            s.spec().total_positions()
        );
        assert_eq!(
            read.aggregate().completed_requests,
            s.spec().total_positions()
        );
        assert_eq!(record.write_utilization, write.utilization());
        assert_eq!(record.read_utilization, read.utilization());
        assert!(record.aggregate_gbps > 0.0);
        assert!(record.min_utilization <= record.write_utilization);
        assert!(record.min_utilization <= record.read_utilization);
    }

    #[test]
    fn disabling_refresh_improves_utilization() {
        let s = Scenario::preset(
            DramStandard::Ddr4,
            1600,
            MappingKind::Optimized,
            InterleaverSpec::from_burst_count(40_000),
        )
        .unwrap();
        let with_refresh = s.run().unwrap();
        let without_refresh = s.without_refresh().run().unwrap();
        assert!(without_refresh.min_utilization >= with_refresh.min_utilization);
        assert!(
            without_refresh.min_utilization > 0.9,
            "refresh-free optimized mapping should be >90%, got {}",
            without_refresh.min_utilization
        );
    }

    #[test]
    fn two_channels_nearly_double_aggregate_bandwidth() {
        use tbi_dram::ChannelTopology;
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let spec = InterleaverSpec::from_burst_count(100_000);
        let single = Scenario::custom(dram.clone(), MappingKind::Optimized, spec)
            .run()
            .unwrap();
        let dual = Scenario::custom(
            dram.with_topology(ChannelTopology::new(2, 1)),
            MappingKind::Optimized,
            spec,
        )
        .run()
        .unwrap();
        let scaling = dual.aggregate_gbps / single.aggregate_gbps;
        assert!(
            scaling > 1.8,
            "2-channel aggregate bandwidth should scale ≥1.8x, got {scaling} \
             ({} vs {})",
            single.aggregate_gbps,
            dual.aggregate_gbps
        );
        assert!(
            dual.channel_utilization_spread < 0.1,
            "channel load should be balanced, spread {}",
            dual.channel_utilization_spread
        );
    }

    #[test]
    fn threaded_phase_stats_are_bit_identical() {
        use tbi_dram::ChannelTopology;
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(4, 1));
        let s = Scenario::custom(
            dram,
            MappingKind::Optimized,
            InterleaverSpec::from_burst_count(40_000),
        );
        let sequential = s.phase_stats().unwrap();
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                s.clone().with_threads(threads).phase_stats().unwrap(),
                sequential,
                "threads={threads} must match the sequential phases"
            );
        }
    }

    #[test]
    fn id_override_wins() {
        let s = Scenario::preset(DramStandard::Ddr3, 800, MappingKind::RowMajor, small_spec())
            .unwrap()
            .with_id("custom");
        assert_eq!(s.id(), "custom");
    }

    #[test]
    fn run_produces_consistent_record() {
        let s = Scenario::preset(
            DramStandard::Lpddr4,
            4266,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap();
        let record = s.run().unwrap();
        assert_eq!(record.scenario_id, s.id());
        assert_eq!(record.mapping, "optimized");
        assert_eq!(record.bursts, 2_000);
        assert!(record.min_utilization <= record.write_utilization);
        assert!(record.min_utilization <= record.read_utilization);
        assert!(record.sustained_gbps > 0.0);
        assert!(record.energy_total_mj > 0.0);
        assert!(record.energy_nj_per_byte > 0.0);
        assert!(record.link.is_none());
    }

    #[test]
    fn oversized_interleaver_errors_cleanly() {
        let s = Scenario::preset(
            DramStandard::Ddr3,
            800,
            MappingKind::RowMajor,
            InterleaverSpec::from_burst_count(100_000_000_000),
        )
        .unwrap();
        assert!(matches!(s.run(), Err(ExpError::Interleaver(_))));
    }

    #[test]
    fn capacity_errors_propagate() {
        use tbi_interleaver::InterleaverError;
        let s = Scenario::preset(
            DramStandard::Lpddr4,
            2133,
            MappingKind::RowMajor,
            InterleaverSpec::from_burst_count(100_000_000_000),
        )
        .unwrap();
        assert!(matches!(
            s.phase_stats(),
            Err(ExpError::Interleaver(
                InterleaverError::CapacityExceeded { .. }
            ))
        ));
    }

    #[test]
    fn rejected_configurations_report_the_same_error_in_both_modes() {
        use tbi_dram::ChannelTopology;
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let zero_queue = Scenario::custom(dram.clone(), MappingKind::Optimized, small_spec())
            .with_controller(ControllerConfig {
                queue_capacity: 0,
                ..ControllerConfig::default()
            });
        let three_channels = Scenario::custom(
            dram.with_topology(ChannelTopology::new(3, 1)),
            MappingKind::Optimized,
            small_spec(),
        );
        let tenants = TenantStage::new(4, SchedPolicyKind::Edf);
        for s in [zero_queue.clone(), zero_queue.with_tenants(tenants)] {
            let error = s.run().unwrap_err();
            assert!(
                matches!(error, ExpError::Dram(ConfigError::InvalidController { .. })),
                "{s}: {error:?}"
            );
        }
        for s in [three_channels.clone(), three_channels.with_tenants(tenants)] {
            let error = s.run().unwrap_err();
            assert!(
                matches!(error, ExpError::Dram(ConfigError::InvalidGeometry { .. })),
                "{s}: {error:?}"
            );
        }
    }

    #[test]
    fn zero_stream_tenant_stage_errors_cleanly() {
        // The public fields bypass `TenantStage::new`'s clamp.
        let stage = TenantStage {
            streams: 0,
            ..TenantStage::new(4, SchedPolicyKind::Edf)
        };
        let s = Scenario::preset(
            DramStandard::Ddr4,
            3200,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap()
        .with_tenants(stage);
        assert!(matches!(
            s.run(),
            Err(ExpError::Dram(ConfigError::InvalidController { .. }))
        ));
    }

    #[test]
    fn link_stage_is_reproducible() {
        let stage = LinkStage::new(0.05).with_seed(42);
        let a = stage.run().unwrap();
        let b = stage.run().unwrap();
        assert_eq!(a, b);
        assert!(a.frame_error_rate >= 0.0 && a.frame_error_rate <= 1.0);
    }

    #[test]
    fn scenario_with_link_reports_error_rates() {
        let s = Scenario::preset(
            DramStandard::Ddr3,
            800,
            MappingKind::Optimized,
            small_spec(),
        )
        .unwrap()
        .with_link(LinkStage::new(0.02).with_seed(7));
        let record = s.run().unwrap();
        let link = record.link.expect("link record present");
        assert!(link.channel_symbol_error_rate > 0.0);
    }

    #[test]
    fn build_mapping_matches_kind() {
        let s =
            Scenario::preset(DramStandard::Ddr4, 1600, MappingKind::Tiled, small_spec()).unwrap();
        let mapping = s.build_mapping().unwrap();
        assert_eq!(mapping.name(), "tiled");
        assert_eq!(mapping.dimension(), s.spec().dimension());
    }
}
