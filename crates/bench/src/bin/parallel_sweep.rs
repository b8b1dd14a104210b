//! Measures the intra-scenario threaded drive mode — worker threads driving
//! one scenario's channel controllers in parallel — across a threads ×
//! channels × streams matrix, verifies every threaded record is
//! bit-identical to the sequential run, and emits a script-friendly
//! `BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin parallel_sweep [-- --full | --bursts <n> |
//!                                                          --json <p>]
//! ```
//!
//! Two workloads cover both threaded paths:
//!
//! - `table1` — the Table I DDR4-3200 row-major/optimized pair scaled out to
//!   1/2/4 channels, driven through
//!   `ChannelRouter::run_phase_sources_threaded`.  This is the headline
//!   speedup row family: at 4 channels, 4 workers drive 4 independent
//!   controllers concurrently.
//! - `tenants` — the multi-tenant scheduler at 4 channels × 8/64 streams,
//!   where only the final drain is threaded (admission is inherently
//!   sequential), pinning that the scheduler path stays bit-identical too.
//!
//! The experiment worker pool is pinned to one scenario at a time
//! (`--workers` is not supported) so intra-scenario threading is the only
//! parallelism being measured.  Wall-clock speedups are meaningful only on
//! multi-core hosts; the artifact records `host_parallelism` so consumers
//! (e.g. the CI smoke check) can gate speedup assertions on it.  Exits
//! non-zero if any threaded record diverges from its sequential reference.

use std::time::Instant;

use tbi_bench::HarnessOptions;
use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
use tbi_exp::serialize::{json_number, json_string};
use tbi_exp::{Experiment, Record, Scenario, TenantStage};
use tbi_interleaver::{InterleaverSpec, MappingKind};
use tbi_sched::SchedPolicyKind;

const CHANNEL_AXIS: [u32; 3] = [1, 2, 4];
const THREAD_AXIS: [usize; 3] = [1, 2, 4];
const STREAM_AXIS: [u32; 2] = [8, 64];
/// Minimum per-stream interleaver size of the tenant rows (matches
/// `tenant_sweep`).
const MIN_STREAM_BURSTS: u64 = 64;

const FLAGS: &[&str] = &["--full", "--bursts", "--json"];

/// One measured (workload, channels, streams, threads) cell.
struct Row {
    workload: &'static str,
    channels: u32,
    /// Tenant streams of the cell (0 for the plain `table1` workload).
    streams: u32,
    threads: usize,
    wall_s: f64,
    speedup_vs_1_thread: f64,
    identical_to_1_thread: bool,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":{},\"channels\":{},\"streams\":{},\"threads\":{},\
             \"wall_s\":{},\"speedup_vs_1_thread\":{},\"identical_to_1_thread\":{}}}",
            json_string(self.workload),
            self.channels,
            self.streams,
            self.threads,
            json_number(self.wall_s),
            json_number(self.speedup_vs_1_thread),
            self.identical_to_1_thread,
        )
    }
}

/// Runs `scenario` once on a single experiment worker, returning its records
/// and the wall-clock time of the run.
fn timed_run(scenarios: Vec<Scenario>) -> (Vec<Record>, f64) {
    let started = Instant::now();
    let records = match Experiment::new(scenarios).with_workers(1).run() {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    (records, started.elapsed().as_secs_f64())
}

/// Measures one workload cell across the thread axis: the 1-thread run is
/// the sequential reference, every other thread count must reproduce its
/// records bit-for-bit.
fn sweep_threads(
    workload: &'static str,
    channels: u32,
    streams: u32,
    scenarios: &[Scenario],
    rows: &mut Vec<Row>,
) {
    let mut reference: Option<(Vec<Record>, f64)> = None;
    for &threads in &THREAD_AXIS {
        let threaded: Vec<Scenario> = scenarios
            .iter()
            .map(|s| s.clone().with_threads(threads))
            .collect();
        let (records, wall_s) = timed_run(threaded);
        let (identical, speedup) = match &reference {
            None => (true, 1.0),
            Some((baseline, baseline_wall_s)) => (
                baseline == &records,
                baseline_wall_s / wall_s.max(f64::MIN_POSITIVE),
            ),
        };
        if !identical {
            eprintln!(
                "RECORD DIVERGENCE: {workload} c{channels} s{streams} at {threads} thread(s)"
            );
        }
        rows.push(Row {
            workload,
            channels,
            streams,
            threads,
            wall_s,
            speedup_vs_1_thread: speedup,
            identical_to_1_thread: identical,
        });
        if reference.is_none() {
            reference = Some((records, wall_s));
        }
    }
}

fn main() {
    let options = HarnessOptions::from_env("parallel_sweep", FLAGS);
    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let preset = match DramConfig::preset(DramStandard::Ddr4, 3200) {
        Ok(config) => config,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "parallel_sweep: {} bursts per scenario, channels {CHANNEL_AXIS:?} x threads \
         {THREAD_AXIS:?} (+ tenant rows at streams {STREAM_AXIS:?}), host parallelism {}",
        options.bursts, host_parallelism,
    );

    let mut rows: Vec<Row> = Vec::new();
    let spec = InterleaverSpec::from_burst_count(options.bursts);
    for &channels in &CHANNEL_AXIS {
        let dram = preset
            .clone()
            .with_topology(ChannelTopology::new(channels, 1));
        let scenarios: Vec<Scenario> = [MappingKind::RowMajor, MappingKind::Optimized]
            .into_iter()
            .map(|kind| Scenario::custom(dram.clone(), kind, spec))
            .collect();
        sweep_threads("table1", channels, 0, &scenarios, &mut rows);
    }
    let tenant_dram = preset.clone().with_topology(ChannelTopology::new(4, 1));
    for &streams in &STREAM_AXIS {
        let per_stream = (options.bursts / u64::from(streams)).max(MIN_STREAM_BURSTS);
        let spec = InterleaverSpec::from_burst_count(per_stream);
        let scenarios = vec![
            Scenario::custom(tenant_dram.clone(), MappingKind::Optimized, spec)
                .with_tenants(TenantStage::new(streams, SchedPolicyKind::WeightedShare)),
        ];
        sweep_threads("tenants", 4, streams, &scenarios, &mut rows);
    }

    let all_identical = rows.iter().all(|row| row.identical_to_1_thread);
    let speedup_4ch_4t = rows
        .iter()
        .find(|row| row.workload == "table1" && row.channels == 4 && row.threads == 4)
        .map_or(0.0, |row| row.speedup_vs_1_thread);

    println!(
        "{:<10} {:>3} {:>8} {:>8} {:>10} {:>9} {:>10}",
        "workload", "ch", "streams", "threads", "wall s", "speedup", "identical"
    );
    for row in &rows {
        println!(
            "{:<10} {:>3} {:>8} {:>8} {:>10.3} {:>8.2}x {:>10}",
            row.workload,
            row.channels,
            row.streams,
            row.threads,
            row.wall_s,
            row.speedup_vs_1_thread,
            row.identical_to_1_thread,
        );
    }
    println!("  4-channel / 4-thread speedup : {speedup_4ch_4t:.2}x");
    println!("  records bit-identical        : {all_identical}");

    let rows_json: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"host_parallelism\": {},\n  \
         \"channel_axis\": [1,2,4],\n  \"thread_axis\": [1,2,4],\n  \"stream_axis\": [8,64],\n  \
         \"speedup_4ch_4t\": {},\n  \"all_identical\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_string("parallel_sweep"),
        options.bursts,
        host_parallelism,
        json_number(speedup_4ch_4t),
        all_identical,
        rows_json.join(",\n"),
    );
    if let Some(output) = &options.json {
        if let Err(error) = std::fs::write(output, json) {
            eprintln!("error: cannot write {}: {error}", output.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", output.display());
    }

    if !all_identical {
        std::process::exit(1);
    }
}
