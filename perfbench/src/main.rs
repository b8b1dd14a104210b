//! The repository benchmark: host time per simulated DRAM request, end to
//! end through `Scenario::run`, and host time per layer in a separate traced
//! run that calls each layer's public functions itself.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-1ch|hbm2-8ch-downlink|tenants-64|all> [--seed <n>] \
//!     [--seconds <s>] [--trace <0|1>] [--size <full|tiny>]
//! ```
//!
//! `all` runs the three workloads in turn, printing each one's lines.
//! `--trace 0` times repeated passes of the workload's `Scenario::run`
//! calls and prints the end-to-end metrics.  `--trace 1` alternates those
//! passes with traced passes and prints the per-layer metrics.  Both modes
//! check the simulated outputs and count the cells that fail.  The last
//! stdout line is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is a `detail` object with the
//! raw spans, the exact work counters and the host diagnostics.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use tbi_bench::campaign_profile;
use tbi_dram::{
    AddressBatch, ChannelRouter, CombinedStats, DramStandard, EnergyParams, EnergyReport,
    RefreshMode, Request, RequestSource, Stats,
};
use tbi_exp::{LinkRecord, LinkStage, Record, Scenario, TenantLatency, TenantStage, TenantSummary};
use tbi_interleaver::mapping::{ChannelMapping, ChannelTraceGenerator};
use tbi_interleaver::{AccessPhase, InterleaverSpec, MappingKind};
use tbi_satcom::link::{InterleaverChoice, LinkConfig};
use tbi_sched::{
    PhasePattern, SchedConfig, SchedPolicyKind, SchedReport, StreamScheduler, StreamSpec,
};

type Result<T> = std::result::Result<T, String>;

const USAGE: &str = "usage: perfbench --workload <paper-1ch|hbm2-8ch-downlink|tenants-64|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--size <full|tiny>]";

/// The workloads; `BENCHMARK.json` records why each one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// DDR4-3200 and LPDDR4-4266 at 1x1, each with the Table I pair.
    Paper1ch,
    /// HBM2-2400 on its 8 pseudo-channels, 2 threads, campaign link stage.
    Hbm2Downlink,
    /// DDR4-3200, 64 backlogged tenant streams under EDF and round-robin.
    Tenants64,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("paper-1ch", Workload::Paper1ch),
    ("hbm2-8ch-downlink", Workload::Hbm2Downlink),
    ("tenants-64", Workload::Tenants64),
];

/// Interleaver sizes of one benchmark scale.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Bursts of each phase-driven cell's interleaver.
    phase_bursts: u64,
    /// Bursts of each tenant stream's interleaver.
    stream_bursts: u64,
    /// Link-stage trials (blocks of 128 code words) per downlink cell.
    link_trials: u32,
}

const FULL: Size = Size {
    phase_bursts: 1_000_000,
    stream_bursts: 8_192,
    link_trials: 4,
};

/// The smoke-test scale: every layer still runs, in well under a second.
const TINY: Size = Size {
    phase_bursts: 20_000,
    stream_bursts: 256,
    link_trials: 1,
};

const TENANT_STREAMS: u32 = 64;
const TENANT_BLOCKS: u64 = 2;

/// The seed moves the interleaver dimension `n` by `seed % DIMENSION_OFFSETS`
/// positions, so seed 0 (the default) runs the named configuration.
const DIMENSION_OFFSETS: u64 = 8;

/// Link-stage seed of the default benchmark seed (`LinkStage::new`'s own).
const LINK_SEED: u64 = 0x7B1_5EED;

/// Coordinate chunk of the standalone mapping pass (the interleaver
/// crate's internal batch granularity).
const MAP_CHUNK: usize = 256;

/// Set-up repetitions before each untraced pass: at least `MIN`, then more
/// while the slice lasts.
const MIN_SETUP_REPS: usize = 3;
const SETUP_SLICE_S: f64 = 0.02;

/// Iterations of one timing of the host calibration loop.
const CALIB_ITERS: u64 = 1 << 22;

struct Args {
    /// The workloads to run in turn (`all` names every one).
    workloads: Vec<(&'static str, Workload)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self> {
        let mut workloads = Vec::new();
        let mut seed = 0;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut size = FULL;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workloads = WORKLOADS
                        .iter()
                        .filter(|(name, _)| value == "all" || *name == value)
                        .copied()
                        .collect();
                    if workloads.is_empty() {
                        return Err(format!("unknown workload `{value}`"));
                    }
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                    };
                }
                "--size" => {
                    size = match value.as_str() {
                        "full" => FULL,
                        "tiny" => TINY,
                        _ => return Err(format!("bad --size `{value}` (full or tiny)")),
                    };
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if workloads.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(Self {
            workloads,
            seed,
            seconds,
            trace,
            size,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for &(name, workload) in &args.workloads {
        if let Err(message) = run(&args, name, workload) {
            eprintln!("error: {name}: {message}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload and prints its detail and result lines.
fn run(args: &Args, name: &str, workload: Workload) -> Result<()> {
    let calib_start = calibrate();
    let steal_start = steal_ticks();
    let cells = build_cells(workload, args.seed, args.size)?;
    let requests_per_pass: u64 = cells.iter().map(cell_requests).sum();

    let mut tally = Tally::default();
    // The warm-up pass fills caches, brings the core up to speed before
    // anything is timed, and gives the reference records every later pass,
    // traced or not, must reproduce bit for bit.
    let (_, reference) = untraced_pass(&cells, None, &mut tally);
    // `cell_walls[c]` holds cell `c`'s `Scenario::run` wall time of every
    // pass, and `setup` the fastest set-up of each slice between passes.
    let mut cell_walls = vec![Vec::new(); cells.len()];
    let mut setup = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    loop {
        if args.trace {
            traced.push(traced_pass(&cells, &reference, &mut tally));
        } else {
            setup.push(fastest_setup(workload, args)?);
        }
        let (walls, _) = untraced_pass(&cells, Some(&reference), &mut tally);
        for (samples, wall) in cell_walls.iter_mut().zip(walls) {
            samples.push(wall);
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let untraced_walls: Vec<f64> = (0..cell_walls[0].len())
        .map(|pass| cell_walls.iter().map(|walls| walls[pass]).sum())
        .collect();
    let fastest_cells: Vec<f64> = cell_walls.iter().map(|walls| fastest(walls)).collect();
    if !args.trace {
        // The output checks that need layer-level statistics.
        traced.push(traced_pass(&cells, &reference, &mut tally));
    }
    for pass in &traced[1..] {
        if pass.counts != traced[0].counts {
            tally.fail(
                "work counters",
                "a traced pass did different work than the first",
            );
        }
    }
    let host = Host {
        calib_start,
        calib_end: calibrate(),
        steal_s: steal_ticks().saturating_sub(steal_start) as f64 / USER_HZ,
        parallelism: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };

    // The traced run reports the records it assembled itself, so its
    // simulated outputs can be compared with an untraced run's.
    let records: Vec<&Record> = if args.trace {
        traced
            .last()
            .map(|t| t.records.iter().collect())
            .unwrap_or_default()
    } else {
        reference.iter().flatten().collect()
    };
    let metrics = if args.trace {
        layer_metrics(&traced, &records, &untraced_walls, &host)
    } else {
        vec![
            // Neighbours on the shared host slow everything down for
            // seconds at a time, and interference only ever adds time, so
            // the timings report the fastest samples of the whole run: each
            // cell's fastest `Scenario::run`, and the fastest set-up.
            Metric::new(
                "ns_per_request",
                fastest_cells.iter().sum::<f64>() * 1e9 / requests_per_pass as f64,
                "ns",
            ),
            Metric::new("setup_s", fastest(&setup), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
            Metric::new(
                "min_utilization",
                mean(records.iter().map(|r| r.min_utilization)),
                "ratio",
            ),
            Metric::new(
                "aggregate_gbps",
                mean(records.iter().map(|r| r.aggregate_gbps)),
                "Gbit/s",
            ),
        ]
    };

    println!(
        "{}",
        detail_json(
            name,
            args.seed,
            &host,
            &Timings {
                untraced_walls: &untraced_walls,
                fastest_cells: &fastest_cells,
                setup: &setup,
            },
            &traced,
            &records
        )
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Workload cells and their inputs
// ---------------------------------------------------------------------------

fn err(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// The interleaver of `bursts` bursts, its dimension moved by the seed.
fn spec_for(bursts: u64, seed: u64) -> InterleaverSpec {
    let named = InterleaverSpec::from_burst_count(bursts);
    match seed % DIMENSION_OFFSETS {
        0 => named,
        offset => InterleaverSpec::from_burst_count(triangle(named.dimension() + offset as u32)),
    }
}

fn triangle(n: u32) -> u64 {
    let n = u64::from(n);
    n * (n + 1) / 2
}

/// The workload's cells, in run order.
fn build_cells(workload: Workload, seed: u64, size: Size) -> Result<Vec<Scenario>> {
    let mut cells = Vec::new();
    match workload {
        Workload::Paper1ch => {
            let spec = spec_for(size.phase_bursts, seed);
            for (standard, rate) in [(DramStandard::Ddr4, 3200), (DramStandard::Lpddr4, 4266)] {
                for kind in MappingKind::TABLE1 {
                    cells.push(Scenario::preset(standard, rate, kind, spec).map_err(err)?);
                }
            }
        }
        Workload::Hbm2Downlink => {
            let spec = spec_for(size.phase_bursts, seed);
            let link = LinkStage::new(0.0)
                .with_config(LinkConfig {
                    rs_code_len: 255,
                    rs_data_len: 223,
                    codewords: 128,
                    interleaver: InterleaverChoice::Triangular,
                })
                .with_profile(campaign_profile())
                .with_seed(LINK_SEED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .with_trials(size.link_trials);
            for kind in MappingKind::TABLE1 {
                cells.push(
                    Scenario::preset(DramStandard::Hbm2, 2400, kind, spec)
                        .map_err(err)?
                        .with_threads(2)
                        .with_link(link.clone()),
                );
            }
        }
        Workload::Tenants64 => {
            let spec = spec_for(size.stream_bursts, seed);
            for policy in [SchedPolicyKind::Edf, SchedPolicyKind::RoundRobin] {
                let stage = TenantStage::new(TENANT_STREAMS, policy).with_blocks(TENANT_BLOCKS);
                cells.push(
                    Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::Optimized, spec)
                        .map_err(err)?
                        .with_tenants(stage),
                );
            }
        }
    }
    Ok(cells)
}

/// Simulated DRAM requests of one cell: both phases of the triangle, or
/// every block of every tenant stream.
fn cell_requests(scenario: &Scenario) -> u64 {
    let positions = triangle(scenario.spec().dimension());
    match scenario.tenants() {
        Some(stage) => u64::from(stage.streams) * stage.blocks * positions,
        None => 2 * positions,
    }
}

/// A cell's inputs, built before its first request.
enum Prepared {
    Phases {
        mapping: ChannelMapping,
        router: ChannelRouter,
    },
    Tenants(Box<StreamScheduler>),
}

/// Builds a cell's inputs the way `Scenario::run` does.
fn prepare(scenario: &Scenario) -> Result<Prepared> {
    let dram = scenario.dram();
    let Some(stage) = scenario.tenants() else {
        return Ok(Prepared::Phases {
            mapping: ChannelMapping::new(scenario.mapping(), dram, scenario.spec().dimension())
                .map_err(err)?,
            router: ChannelRouter::new(dram.clone(), *scenario.controller()).map_err(err)?,
        });
    };
    let streams = (0..stage.streams)
        .map(|index| {
            StreamSpec::new(format!("tenant-{index:04}"), *scenario.spec())
                .with_qos(TenantStage::qos_for(index))
                .with_mapping(scenario.mapping())
                .with_pattern(PhasePattern::Alternating)
                .with_blocks(stage.blocks)
        })
        .collect();
    let sched = SchedConfig::new(stage.policy)
        .with_max_in_flight(stage.max_in_flight_blocks)
        .with_threads(scenario.threads());
    StreamScheduler::new(dram.clone(), *scenario.controller(), streams, sched)
        .map(|scheduler| Prepared::Tenants(Box::new(scheduler)))
        .map_err(err)
}

/// The fastest of the set-up repetitions that fit in one slice, in
/// seconds: building every cell's inputs (presets, channel mappings,
/// routers, schedulers).
fn fastest_setup(workload: Workload, args: &Args) -> Result<f64> {
    let started = Instant::now();
    let mut fastest = f64::INFINITY;
    let mut reps = 0;
    while reps < MIN_SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_SLICE_S {
        let start = Instant::now();
        let cells = build_cells(workload, args.seed, args.size)?;
        let prepared = cells.iter().map(prepare).collect::<Result<Vec<_>>>()?;
        fastest = fastest.min(start.elapsed().as_secs_f64());
        drop(black_box(prepared));
        reps += 1;
    }
    Ok(fastest)
}

// ---------------------------------------------------------------------------
// Passes and output checks
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn fail(&mut self, what: &str, message: &str) {
        self.failed += 1;
        eprintln!("check failed: {what}: {message}");
    }

    /// Counts one attempted cell and reports it if it failed.
    fn settle(&mut self, scenario: &Scenario, outcome: Result<Record>) -> Option<Record> {
        self.attempted += 1;
        outcome
            .map_err(|message| self.fail(&scenario.id(), &message))
            .ok()
    }
}

/// Checks every record must pass, traced or not.
fn check_record(scenario: &Scenario, record: &Record) -> Result<()> {
    if !(record.min_utilization > 0.0 && record.min_utilization <= 1.0) {
        return Err(format!(
            "min_utilization {} outside (0, 1]",
            record.min_utilization
        ));
    }
    if scenario.link().is_some() != record.link.is_some() {
        return Err("link record does not match the link stage".into());
    }
    if let Some(stage) = scenario.tenants() {
        let summary = record
            .tenants
            .as_ref()
            .ok_or("tenant cell without a summary")?;
        let total: u64 = summary.per_tenant.iter().map(|t| t.requests).sum();
        if summary.per_tenant.len() != stage.streams as usize || total != cell_requests(scenario) {
            return Err(format!(
                "{total} tenant requests over {} streams, expected {} over {}",
                summary.per_tenant.len(),
                cell_requests(scenario),
                stage.streams
            ));
        }
        if let Some(t) = summary
            .per_tenant
            .iter()
            .find(|t| t.p99_latency_cycles < t.p50_latency_cycles)
        {
            return Err(format!("{} has p99 below p50", t.tenant));
        }
    }
    Ok(())
}

/// Runs every cell through `Scenario::run`; returns each call's wall time
/// and the records that passed their checks (and, when given, match the
/// reference records bit for bit, wall-clock fields aside).
fn untraced_pass(
    cells: &[Scenario],
    reference: Option<&[Option<Record>]>,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<Option<Record>>) {
    let (walls, results): (Vec<f64>, Vec<_>) = cells
        .iter()
        .map(|cell| {
            let (result, wall) = timed(|| cell.run());
            (wall, result)
        })
        .unzip();
    let records = cells
        .iter()
        .zip(results)
        .enumerate()
        .map(|(index, (cell, result))| {
            let outcome = result.map_err(err).and_then(|record| {
                check_record(cell, &record)?;
                match reference {
                    Some(reference) if reference[index].as_ref() != Some(&record) => {
                        Err("record differs from the first pass".into())
                    }
                    _ => Ok(record),
                }
            });
            tally.settle(cell, outcome)
        })
        .collect();
    (walls, records)
}

/// Runs every cell through the layers' own functions, timing each call,
/// and checks the assembled records against the reference records.
fn traced_pass(cells: &[Scenario], reference: &[Option<Record>], tally: &mut Tally) -> Traced {
    let mut traced = Traced::default();
    let start = Instant::now();
    let results: Vec<_> = cells
        .iter()
        .map(|cell| traced_cell(cell, &mut traced))
        .collect();
    traced.spans.wall = start.elapsed().as_secs_f64();
    for ((cell, result), expected) in cells.iter().zip(results).zip(reference) {
        let outcome = result.and_then(|record| {
            check_record(cell, &record)?;
            if expected.as_ref() == Some(&record) {
                Ok(record)
            } else {
                Err("traced record differs from Scenario::run".into())
            }
        });
        traced.records.extend(tally.settle(cell, outcome));
    }
    traced
}

// ---------------------------------------------------------------------------
// The traced pipeline
// ---------------------------------------------------------------------------

/// Host seconds of one traced pass by layer.
///
/// The first eight fields are disjoint; with the residual they make up
/// `wall`.  `sched_setup` lies inside `setup`, and `threaded_base` inside
/// `fill + controller`.
#[derive(Debug, Default, Clone, Copy)]
struct Spans {
    /// `ChannelMapping::new` + `ChannelRouter::new`, or `StreamScheduler::new`.
    setup: f64,
    /// Standalone `ChannelMapping::route_batch` pass over both phase orders.
    mapping: f64,
    /// `RequestSource::fill` inside the one-thread phase drive.
    fill: f64,
    /// The one-thread phase drive minus its fill time: the controllers.
    controller: f64,
    /// `run_phase_sources_threaded` re-drive of multi-channel cells.
    threaded: f64,
    /// `StreamScheduler::run`.
    sched: f64,
    /// `LinkStage::run`.
    link: f64,
    /// Record, energy and statistics assembly.
    report: f64,
    /// `StreamScheduler::new`.
    sched_setup: f64,
    /// One-thread drive of the cells that were also driven on threads.
    threaded_base: f64,
    /// The whole pass.
    wall: f64,
}

impl Spans {
    fn named(&self) -> [(&'static str, f64); 9] {
        [
            ("setup", self.setup),
            ("mapping", self.mapping),
            ("fill", self.fill),
            ("controller", self.controller),
            ("threaded", self.threaded),
            ("sched", self.sched),
            ("link", self.link),
            ("report", self.report),
            ("residual", self.residual()),
        ]
    }

    /// Wall time no layer span covers: glue, allocation and probe overhead.
    fn residual(&self) -> f64 {
        self.wall
            - (self.setup
                + self.mapping
                + self.fill
                + self.controller
                + self.threaded
                + self.sched
                + self.link
                + self.report)
    }

    fn add(&mut self, other: &Spans) {
        self.setup += other.setup;
        self.mapping += other.mapping;
        self.fill += other.fill;
        self.controller += other.controller;
        self.threaded += other.threaded;
        self.sched += other.sched;
        self.link += other.link;
        self.report += other.report;
        self.sched_setup += other.sched_setup;
        self.threaded_base += other.threaded_base;
        self.wall += other.wall;
    }
}

/// Exact work counters of one traced pass; every pass must repeat them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    cells: u64,
    /// Completed DRAM requests.
    requests: u64,
    /// DRAM commands: ACT + PRE + RD + WR + REF.
    commands: u64,
    activates: u64,
    row_hits: u64,
    column_accesses: u64,
    /// Simulated device cycles, summed over channels and phases.
    sim_cycles: u64,
    /// Requests, commands and cycles of the phase drives alone.
    drive_requests: u64,
    drive_commands: u64,
    drive_cycles: u64,
    /// Sum over cells of channels x the busiest channel's commands.
    busiest_channel_commands: u64,
    /// Positions routed by the mapping pass.
    addresses: u64,
    /// Requests the timed sources emitted.
    fill_requests: u64,
    /// Threads of the threaded re-drive (the largest over cells).
    drive_threads: u64,
    sched_requests: u64,
    deadline_misses: u64,
    /// Code symbols pushed through the link channel.
    link_symbols: u64,
}

impl Counts {
    /// Adds the per-channel statistics of one cell (one entry per phase).
    fn add_stats(&mut self, phases: &[&CombinedStats], driven: bool) {
        let channels = phases[0].channels();
        let mut per_channel = vec![0u64; channels];
        for phase in phases {
            for (channel, stats) in phase.per_channel().iter().enumerate() {
                let commands = commands(stats);
                per_channel[channel] += commands;
                self.requests += stats.completed_requests;
                self.commands += commands;
                self.activates += stats.activates;
                self.row_hits += stats.row_hits;
                self.column_accesses += stats.row_hits + stats.row_conflicts + stats.row_empties;
                self.sim_cycles += stats.elapsed_cycles;
                if driven {
                    self.drive_requests += stats.completed_requests;
                    self.drive_commands += commands;
                    self.drive_cycles += stats.elapsed_cycles;
                }
            }
        }
        self.busiest_channel_commands +=
            channels as u64 * per_channel.iter().copied().max().unwrap_or(0);
    }
}

fn commands(stats: &Stats) -> u64 {
    stats.activates
        + stats.precharges
        + stats.read_bursts
        + stats.write_bursts
        + stats.refreshes_all_bank
        + stats.refreshes_per_bank
}

#[derive(Debug, Default)]
struct Traced {
    spans: Spans,
    counts: Counts,
    /// The assembled records that passed their checks.
    records: Vec<Record>,
}

/// Host time and requests of the `fill` calls on one channel's source.
#[derive(Default)]
struct FillProbe {
    nanos: Cell<u64>,
    requests: Cell<u64>,
}

/// A request source that charges each `fill` call to its probe.
struct Timed<'p, S> {
    source: S,
    probe: &'p FillProbe,
}

impl<S: RequestSource> RequestSource for Timed<'_, S> {
    fn fill(&mut self, out: &mut Vec<Request>, max: usize) -> usize {
        let start = Instant::now();
        let appended = self.source.fill(out, max);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.probe.nanos.set(self.probe.nanos.get() + nanos);
        self.probe
            .requests
            .set(self.probe.requests.get() + appended as u64);
        appended
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

fn traced_cell(scenario: &Scenario, traced: &mut Traced) -> Result<Record> {
    let (prepared, setup) = timed(|| prepare(scenario));
    traced.spans.setup += setup;
    traced.counts.cells += 1;
    match prepared? {
        Prepared::Phases { mapping, router } => traced_phases(scenario, &mapping, router, traced),
        Prepared::Tenants(scheduler) => {
            traced.spans.sched_setup += setup;
            traced_tenants(scenario, *scheduler, traced)
        }
    }
}

/// Routes both phase orders of the triangle through `route_batch` in
/// chunks, as the channel traces do; returns the positions routed.
fn mapping_pass(mapping: &ChannelMapping) -> u64 {
    let n = mapping.dimension();
    let mut coords = Vec::with_capacity(MAP_CHUNK);
    let mut batch = AddressBatch::new();
    let mut routed = 0;
    let mut flush = |coords: &mut Vec<(u32, u32)>| {
        batch.clear();
        mapping.route_batch(coords, &mut batch);
        black_box(&mut batch);
        routed += coords.len() as u64;
        coords.clear();
    };
    for phase in AccessPhase::ALL {
        for outer in 0..n {
            for inner in 0..n - outer {
                coords.push(match phase {
                    AccessPhase::Write => (outer, inner),
                    AccessPhase::Read => (inner, outer),
                });
                if coords.len() == MAP_CHUNK {
                    flush(&mut coords);
                }
            }
        }
        flush(&mut coords);
    }
    routed
}

fn traced_mapping(mapping: &ChannelMapping, traced: &mut Traced) {
    let (routed, secs) = timed(|| mapping_pass(mapping));
    traced.spans.mapping += secs;
    traced.counts.addresses += routed;
}

fn traced_link(scenario: &Scenario, traced: &mut Traced) -> Result<Option<LinkRecord>> {
    let (link, secs) = timed(|| scenario.link().map(LinkStage::run).transpose());
    traced.spans.link += secs;
    if let Some(stage) = scenario.link() {
        traced.counts.link_symbols +=
            u64::from(stage.trials) * (stage.config.codewords * stage.config.rs_code_len) as u64;
    }
    link.map_err(err)
}

/// Every position is written in the write phase and read in the read
/// phase, exactly once, over all channels.
fn check_phase(
    phase: AccessPhase,
    stats: &CombinedStats,
    positions: u64,
    emitted: u64,
) -> Result<()> {
    let total = stats.aggregate();
    let (writes, reads) = match phase {
        AccessPhase::Write => (positions, 0),
        AccessPhase::Read => (0, positions),
    };
    if total.write_bursts != writes
        || total.read_bursts != reads
        || total.completed_requests != positions
        || emitted != positions
    {
        return Err(format!(
            "{phase} phase: {} writes, {} reads, {} completed, {emitted} emitted; \
             expected {positions} positions once",
            total.write_bursts, total.read_bursts, total.completed_requests
        ));
    }
    Ok(())
}

fn traced_phases(
    scenario: &Scenario,
    mapping: &ChannelMapping,
    mut router: ChannelRouter,
    traced: &mut Traced,
) -> Result<Record> {
    traced_mapping(mapping, traced);
    let positions = triangle(mapping.dimension());
    let generator = ChannelTraceGenerator::new(mapping);
    let channels = router.channels();
    let mut phases = Vec::new();
    let mut drive_s = 0.0;
    for phase in AccessPhase::ALL {
        if phase == AccessPhase::Read {
            router.reset_stats();
        }
        let probes: Vec<FillProbe> = (0..channels).map(|_| FillProbe::default()).collect();
        let sources = probes
            .iter()
            .zip(0..)
            .map(|(probe, channel)| Timed {
                source: generator.channel_requests(phase, channel),
                probe,
            })
            .collect();
        let (stats, drive) = timed(|| router.run_phase_sources(sources));
        let fill = probes.iter().map(|p| p.nanos.get()).sum::<u64>() as f64 * 1e-9;
        let emitted: u64 = probes.iter().map(|p| p.requests.get()).sum();
        traced.spans.fill += fill;
        traced.spans.controller += drive - fill;
        traced.counts.fill_requests += emitted;
        drive_s += drive;
        check_phase(phase, &stats, positions, emitted)?;
        phases.push(stats);
    }

    let threads = scenario.threads().min(channels as usize);
    if threads > 1 {
        let (threaded, secs) = timed(|| -> Result<Vec<CombinedStats>> {
            let mut router =
                ChannelRouter::new(scenario.dram().clone(), *scenario.controller()).map_err(err)?;
            Ok(AccessPhase::ALL
                .into_iter()
                .map(|phase| {
                    if phase == AccessPhase::Read {
                        router.reset_stats();
                    }
                    let sources = (0..channels)
                        .map(|channel| generator.channel_requests(phase, channel))
                        .collect();
                    router.run_phase_sources_threaded(sources, threads)
                })
                .collect())
        });
        traced.spans.threaded += secs;
        traced.spans.threaded_base += drive_s;
        traced.counts.drive_threads = traced.counts.drive_threads.max(threads as u64);
        if threaded? != phases {
            return Err(format!("statistics differ between 1 and {threads} threads"));
        }
    }

    let link = traced_link(scenario, traced)?;
    let (record, secs) = timed(|| phase_record(scenario, &phases[0], &phases[1], link, drive_s));
    traced.spans.report += secs;
    traced.counts.add_stats(&[&phases[0], &phases[1]], true);
    Ok(record)
}

fn traced_tenants(
    scenario: &Scenario,
    scheduler: StreamScheduler,
    traced: &mut Traced,
) -> Result<Record> {
    let mapping = ChannelMapping::new(
        scenario.mapping(),
        scenario.dram(),
        scenario.spec().dimension(),
    )
    .map_err(err)?;
    traced_mapping(&mapping, traced);
    let (report, secs) = timed(|| scheduler.run());
    traced.spans.sched += secs;
    traced.counts.sched_requests += report.total_requests();
    traced.counts.deadline_misses += report.total_deadline_misses();
    let link = traced_link(scenario, traced)?;
    let (record, report_secs) = timed(|| tenant_record(scenario, &report, link, secs));
    traced.spans.report += report_secs;
    traced.counts.add_stats(&[&report.stats], false);
    Ok(record)
}

/// The fields every record shares, from the scenario alone.
fn record_base(scenario: &Scenario, link: Option<LinkRecord>, wall_time_s: f64) -> Record {
    let dram = scenario.dram();
    Record {
        scenario_id: scenario.id(),
        dram_label: dram.label(),
        mapping: scenario.mapping().label(),
        bursts: scenario.spec().burst_count(),
        dimension: scenario.spec().dimension(),
        refresh_disabled: scenario.controller().refresh_mode == Some(RefreshMode::Disabled),
        channels: dram.topology.channels,
        ranks: dram.topology.ranks,
        write_utilization: 0.0,
        read_utilization: 0.0,
        min_utilization: 0.0,
        sustained_gbps: 0.0,
        aggregate_gbps: 0.0,
        channel_utilization_spread: 0.0,
        write_row_hit_rate: 0.0,
        read_row_hit_rate: 0.0,
        activates: 0,
        energy_total_mj: 0.0,
        energy_nj_per_byte: 0.0,
        simulated_cycles: 0,
        threads: scenario.threads() as u32,
        wall_time_s,
        sim_cycles_per_second: 0.0,
        link,
        tenants: None,
    }
}

/// Fills the energy and counter fields from per-channel totals, summed the
/// way `Scenario::run` sums them (each channel pays its own background).
fn add_energy(record: &mut Record, scenario: &Scenario, per_channel: impl Iterator<Item = Stats>) {
    let dram = scenario.dram();
    let params = EnergyParams::for_config(dram);
    let mut total_bytes = 0.0;
    for totals in per_channel {
        record.energy_total_mj += EnergyReport::from_stats(&totals, dram, &params).total_mj;
        total_bytes += (totals.read_bursts + totals.write_bursts) as f64
            * f64::from(dram.geometry.burst_bytes());
        record.activates += totals.activates;
        record.simulated_cycles += totals.elapsed_cycles;
    }
    if total_bytes > 0.0 {
        record.energy_nj_per_byte = record.energy_total_mj * 1e6 / total_bytes;
    }
    if record.wall_time_s > 0.0 {
        record.sim_cycles_per_second = record.simulated_cycles as f64 / record.wall_time_s;
    }
}

fn phase_record(
    scenario: &Scenario,
    write: &CombinedStats,
    read: &CombinedStats,
    link: Option<LinkRecord>,
    wall_time_s: f64,
) -> Record {
    let dram = scenario.dram();
    let (clock, width) = (dram.clock_mhz(), dram.geometry.bus_width_bits);
    let mut record = record_base(scenario, link, wall_time_s);
    record.write_utilization = write.utilization();
    record.read_utilization = read.utilization();
    record.min_utilization = record.write_utilization.min(record.read_utilization);
    record.aggregate_gbps = write
        .aggregate_bandwidth_gbps(clock, width)
        .min(read.aggregate_bandwidth_gbps(clock, width));
    record.sustained_gbps = record.aggregate_gbps / f64::from(dram.topology.channels);
    record.channel_utilization_spread = write.utilization_spread().max(read.utilization_spread());
    record.write_row_hit_rate = write.aggregate().row_hit_rate();
    record.read_row_hit_rate = read.aggregate().row_hit_rate();
    let totals = write
        .per_channel()
        .iter()
        .zip(read.per_channel())
        .map(|(w, r)| {
            let mut totals = w.clone();
            totals.merge(r);
            totals
        });
    add_energy(&mut record, scenario, totals);
    record
}

fn tenant_record(
    scenario: &Scenario,
    report: &SchedReport,
    link: Option<LinkRecord>,
    wall_time_s: f64,
) -> Record {
    let dram = scenario.dram();
    let mut record = record_base(scenario, link, wall_time_s);
    let utilization = report.stats.utilization();
    let hit_rate = report.stats.aggregate().row_hit_rate();
    record.write_utilization = utilization;
    record.read_utilization = utilization;
    record.min_utilization = utilization;
    record.aggregate_gbps = report
        .stats
        .aggregate_bandwidth_gbps(dram.clock_mhz(), dram.geometry.bus_width_bits);
    record.sustained_gbps = record.aggregate_gbps / f64::from(dram.topology.channels);
    record.channel_utilization_spread = report.stats.utilization_spread();
    record.write_row_hit_rate = hit_rate;
    record.read_row_hit_rate = hit_rate;
    add_energy(
        &mut record,
        scenario,
        report.stats.per_channel().iter().cloned(),
    );
    record.tenants = Some(TenantSummary {
        policy: report.policy.label().to_string(),
        streams: report.tenants.len() as u32,
        fairness_index: report.fairness_index(),
        worst_p50_cycles: report.worst_p50(),
        worst_p99_cycles: report.worst_p99(),
        deadline_misses: report.total_deadline_misses(),
        per_tenant: report
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
            .collect(),
    });
    record
}

// ---------------------------------------------------------------------------
// Metrics and output
// ---------------------------------------------------------------------------

struct Host {
    calib_start: f64,
    calib_end: f64,
    /// CPU time the hypervisor gave other guests while this run waited.
    steal_s: f64,
    parallelism: usize,
}

/// Clock ticks per second of the `/proc/stat` counters.
const USER_HZ: f64 = 100.0;

/// Steal ticks summed over all CPUs so far, or 0 where `/proc/stat` lacks
/// them.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Nanoseconds per iteration of a fixed pure-CPU loop (median of five
/// timings): a host-speed reference taken at the start and the end of a
/// run, so drift of the host itself shows beside the results.
fn calibrate() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..CALIB_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / CALIB_ITERS as f64
        })
        .collect();
    quartile(&samples, 2)
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Quartile `k` of `values` (0 the minimum, 2 the median, 4 the maximum) by
/// the lower nearest rank, or 0 for
/// no values.
fn quartile(values: &[f64], k: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
        .get(sorted.len().saturating_sub(1) * k / 4)
        .copied()
        .unwrap_or(0.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0u32), |(sum, count), v| (sum + v, count + 1));
    if count == 0 {
        0.0
    } else {
        sum / f64::from(count)
    }
}

/// `numerator / denominator`, or 0 for a layer the workload bypasses.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The per-layer metrics: spans summed over the traced passes, divided by
/// the matching work counters (each pass repeats them exactly).
fn layer_metrics(
    traced: &[Traced],
    records: &[&Record],
    untraced_walls: &[f64],
    host: &Host,
) -> Vec<Metric> {
    let mut spans = Spans::default();
    for pass in traced {
        spans.add(&pass.spans);
    }
    let passes = traced.len() as f64;
    let c = traced[0].counts;
    let per = |count: u64| count as f64 * passes;
    let ns_per = |secs: f64, count: u64| ratio(secs * 1e9, per(count));
    let drive = spans.fill + spans.controller;
    let speedup = if spans.threaded > 0.0 {
        spans.threaded_base / spans.threaded
    } else {
        1.0
    };
    let tenants: Vec<&TenantSummary> = records.iter().filter_map(|r| r.tenants.as_ref()).collect();
    let premium_p99 = tenants
        .iter()
        .flat_map(|t| &t.per_tenant)
        .filter(|t| t.qos == "premium")
        .map(|t| t.p99_latency_cycles)
        .max()
        .unwrap_or(0);
    vec![
        Metric::new(
            "mapping.ns_per_address",
            ns_per(spans.mapping, c.addresses),
            "ns",
        ),
        Metric::new("mapping.addresses", c.addresses as f64, "count"),
        Metric::new(
            "trace.fill_ns_per_request",
            ns_per(spans.fill, c.fill_requests),
            "ns",
        ),
        Metric::new("trace.fill_share", ratio(spans.fill, spans.wall), "ratio"),
        Metric::new("trace.requests", c.fill_requests as f64, "count"),
        Metric::new(
            "ctrl.self_ns_per_request",
            ns_per(spans.controller, c.drive_requests),
            "ns",
        ),
        Metric::new(
            "ctrl.ns_per_command",
            ns_per(spans.controller, c.drive_commands),
            "ns",
        ),
        Metric::new(
            "ctrl.commands_per_request",
            ratio(c.commands as f64, c.requests as f64),
            "ratio",
        ),
        Metric::new("ctrl.commands", c.commands as f64, "count"),
        Metric::new(
            "ctrl.sim_cycles_per_s",
            ratio(per(c.drive_cycles), spans.controller),
            "1/s",
        ),
        Metric::new("ctrl.sim_cycles", c.sim_cycles as f64, "count"),
        Metric::new(
            "dram.row_hit_rate",
            ratio(c.row_hits as f64, c.column_accesses as f64),
            "ratio",
        ),
        Metric::new(
            "dram.activates_per_request",
            ratio(c.activates as f64, c.requests as f64),
            "ratio",
        ),
        Metric::new("dram.activates", c.activates as f64, "count"),
        Metric::new("router.drive_s", drive / passes, "s"),
        Metric::new("router.threaded_speedup", speedup, "x"),
        Metric::new(
            "router.parallel_efficiency",
            speedup / c.drive_threads.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "router.channel_imbalance",
            ratio(c.busiest_channel_commands as f64, c.commands as f64),
            "ratio",
        ),
        Metric::new("sched.setup_s", spans.sched_setup / passes, "s"),
        Metric::new(
            "sched.ns_per_request",
            ns_per(spans.sched, c.sched_requests),
            "ns",
        ),
        Metric::new("sched.requests", c.sched_requests as f64, "count"),
        Metric::new(
            "sched.fairness_index",
            mean(tenants.iter().map(|t| t.fairness_index)),
            "ratio",
        ),
        Metric::new("sched.deadline_misses", c.deadline_misses as f64, "count"),
        Metric::new("sched.premium_p99_cycles", premium_p99 as f64, "cycles"),
        Metric::new(
            "link.ns_per_symbol",
            ns_per(spans.link, c.link_symbols),
            "ns",
        ),
        Metric::new("link.symbols", c.link_symbols as f64, "count"),
        Metric::new("link.share", ratio(spans.link, spans.wall), "ratio"),
        Metric::new(
            "link.post_fec_ber",
            mean(
                records
                    .iter()
                    .filter_map(|r| r.link)
                    .map(|l| l.post_fec_ber),
            ),
            "ratio",
        ),
        Metric::new(
            "scenario.residual_ns_per_request",
            ns_per(spans.residual(), c.requests),
            "ns",
        ),
        Metric::new(
            "report.us_per_cell",
            ratio(spans.report * 1e6, per(c.cells)),
            "us",
        ),
        Metric::new("traced.wall_s", spans.wall / passes, "s"),
        Metric::new(
            "traced.overhead_ratio",
            ratio(spans.wall / passes, quartile(untraced_walls, 2)),
            "ratio",
        ),
        Metric::new("traced.requests", c.requests as f64, "count"),
        Metric::new(
            "host.calib_ns",
            (host.calib_start + host.calib_end) / 2.0,
            "ns",
        ),
        Metric::new(
            "host.calib_drift",
            ratio(host.calib_end, host.calib_start),
            "ratio",
        ),
        Metric::new("host.parallelism", host.parallelism as f64, "count"),
    ]
}

/// A JSON number: every digit Rust prints, and 0 for a non-finite value.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let entries: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn object(entries: &[(&str, String)]) -> String {
    let entries: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The raw timings of an untraced run.
struct Timings<'a> {
    /// Wall seconds of each pass's `Scenario::run` calls.
    untraced_walls: &'a [f64],
    /// Each cell's fastest `Scenario::run`, in seconds.
    fastest_cells: &'a [f64],
    /// The fastest set-up of each slice, in seconds.
    setup: &'a [f64],
}

fn list(values: &[f64]) -> String {
    let values: Vec<String> = values.iter().map(|&v| number(v)).collect();
    format!("[{}]", values.join(", "))
}

/// `[min, q1, median, q3, max]` of `values`.
fn five_numbers(values: &[f64]) -> String {
    let q: Vec<String> = (0..5).map(|k| number(quartile(values, k))).collect();
    format!("[{}]", q.join(", "))
}

/// The line before the result: raw spans, exact counters, the simulated
/// outputs and the host diagnostics, for humans and the smoke test.
fn detail_json(
    name: &str,
    seed: u64,
    host: &Host,
    timings: &Timings,
    traced: &[Traced],
    records: &[&Record],
) -> String {
    let mut spans = Spans::default();
    for pass in traced {
        spans.add(&pass.spans);
    }
    let counts = traced.first().map(|t| t.counts).unwrap_or_default();
    let span_entries: Vec<(&str, String)> = spans
        .named()
        .iter()
        .map(|(name, secs)| (*name, number(*secs)))
        .collect();
    let simulated = object(&[
        (
            "min_utilization",
            number(mean(records.iter().map(|r| r.min_utilization))),
        ),
        (
            "aggregate_gbps",
            number(mean(records.iter().map(|r| r.aggregate_gbps))),
        ),
        (
            "activates",
            records.iter().map(|r| r.activates).sum::<u64>().to_string(),
        ),
        (
            "simulated_cycles",
            records
                .iter()
                .map(|r| r.simulated_cycles)
                .sum::<u64>()
                .to_string(),
        ),
        (
            "post_fec_ber",
            number(mean(
                records
                    .iter()
                    .filter_map(|r| r.link)
                    .map(|l| l.post_fec_ber),
            )),
        ),
        (
            "worst_p99_cycles",
            records
                .iter()
                .filter_map(|r| r.tenants.as_ref())
                .map(|t| t.worst_p99_cycles)
                .max()
                .unwrap_or(0)
                .to_string(),
        ),
    ]);
    let counters = object(&[
        ("requests", counts.requests.to_string()),
        ("dram_commands", counts.commands.to_string()),
        ("activates", counts.activates.to_string()),
        ("simulated_cycles", counts.sim_cycles.to_string()),
        ("addresses_routed", counts.addresses.to_string()),
        ("link_symbols", counts.link_symbols.to_string()),
        ("scheduler_requests", counts.sched_requests.to_string()),
    ]);
    object(&[(
        "detail",
        object(&[
            ("workload", format!("\"{name}\"")),
            ("seed", seed.to_string()),
            ("untraced_passes", timings.untraced_walls.len().to_string()),
            ("untraced_wall_s_per_pass", list(timings.untraced_walls)),
            ("fastest_cell_wall_s", list(timings.fastest_cells)),
            (
                "fastest_setup_s_min_q1_median_q3_max",
                five_numbers(timings.setup),
            ),
            ("traced_passes", traced.len().to_string()),
            ("traced_wall_s", number(spans.wall)),
            ("spans_s", object(&span_entries)),
            ("counters_per_pass", counters),
            ("simulated", simulated),
            ("host_calib_ns_start", number(host.calib_start)),
            ("host_calib_ns_end", number(host.calib_end)),
            ("host_steal_s", number(host.steal_s)),
            ("host_parallelism", host.parallelism.to_string()),
        ]),
    )])
}
