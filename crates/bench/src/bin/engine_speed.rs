//! Measures the wall-clock speed of the event-driven timing engine against
//! the cycle-accurate reference on the **full Table I sweep** (all ten DRAM
//! presets × the row-major/optimized mapping pair), verifies that both
//! engines produce bit-identical records, and emits a script-friendly
//! `BENCH_engine.json` so the workspace's performance trajectory accumulates
//! run over run.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin engine_speed [-- --full | --bursts <n> |
//!                                                        --workers <n> | --json <p>]
//! ```
//!
//! `--json` names the output file (`--full --json BENCH_engine.json`
//! regenerates the committed artifact); without it the binary prints its
//! table and writes nothing.  The report records the worker count the
//! sweeps ran on and the host's `host_parallelism`.

use std::time::Instant;

use tbi_bench::{table1_grid, HarnessOptions};
use tbi_dram::TimingEngine;
use tbi_exp::serialize::{json_number, json_string};
use tbi_exp::Record;

const FLAGS: &[&str] = &[
    "--full",
    "--bursts",
    "--channels",
    "--ranks",
    "--workers",
    "--json",
];

/// Runs the Table I sweep on `engine`: its records, wall time and the
/// worker count it ran on.
fn timed_sweep(options: &HarnessOptions, engine: TimingEngine) -> (Vec<Record>, f64, usize) {
    let started = Instant::now();
    let run = table1_grid(options).and_then(|grid| {
        let experiment = options.experiment(grid.engine(engine));
        Ok((experiment.run()?, experiment.workers()))
    });
    let (records, workers) = match run {
        Ok(run) => run,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    (records, started.elapsed().as_secs_f64(), workers)
}

fn main() {
    let options = HarnessOptions::from_env("engine_speed", FLAGS);

    eprintln!(
        "engine_speed: full Table I sweep at {} bursts per scenario",
        options.bursts
    );
    eprintln!("running cycle-accurate reference engine ...");
    let (cycle_records, cycle_wall_s, _) = timed_sweep(&options, TimingEngine::Cycle);
    eprintln!("  cycle engine: {cycle_wall_s:.3} s");
    eprintln!("running event-driven engine ...");
    let (event_records, event_wall_s, workers) = timed_sweep(&options, TimingEngine::Event);
    eprintln!("  event engine: {event_wall_s:.3} s");

    // `Record`'s PartialEq deliberately ignores the wall-clock fields, so
    // this compares exactly the deterministic simulation outputs.
    let identical = cycle_records == event_records;
    if !identical {
        for (c, e) in cycle_records.iter().zip(&event_records) {
            if c != e {
                eprintln!(
                    "RECORD DIVERGENCE in {}:\n  cycle: {c:?}\n  event: {e:?}",
                    c.scenario_id
                );
            }
        }
    }

    let simulated_cycles: u64 = event_records.iter().map(|r| r.simulated_cycles).sum();
    let speedup = if event_wall_s > 0.0 {
        cycle_wall_s / event_wall_s
    } else {
        f64::INFINITY
    };

    println!(
        "Table I sweep ({} scenarios, {} bursts each):",
        event_records.len(),
        options.bursts
    );
    println!("  simulated cycles (total) : {simulated_cycles}");
    println!("  cycle engine wall time   : {cycle_wall_s:.3} s");
    println!("  event engine wall time   : {event_wall_s:.3} s");
    println!("  speedup (cycle / event)  : {speedup:.2}x");
    println!("  records bit-identical    : {identical}");

    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"scenarios\": {},\n  \"workers\": {},\n  \
         \"host_parallelism\": {},\n  \"simulated_cycles_total\": {},\n  \
         \"cycle_wall_s\": {},\n  \"event_wall_s\": {},\n  \"speedup\": {},\n  \
         \"cycle_sim_cycles_per_second\": {},\n  \"event_sim_cycles_per_second\": {},\n  \
         \"records_identical\": {}\n}}\n",
        json_string("engine_speed"),
        options.bursts,
        event_records.len(),
        workers,
        host_parallelism,
        simulated_cycles,
        json_number(cycle_wall_s),
        json_number(event_wall_s),
        json_number(speedup),
        json_number(simulated_cycles as f64 / cycle_wall_s.max(f64::MIN_POSITIVE)),
        json_number(simulated_cycles as f64 / event_wall_s.max(f64::MIN_POSITIVE)),
        identical,
    );
    if let Some(output) = &options.json {
        if let Err(error) = std::fs::write(output, json) {
            eprintln!("error: cannot write {}: {error}", output.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", output.display());
    }

    if !identical {
        std::process::exit(1);
    }
}
