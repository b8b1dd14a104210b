//! Performance-trajectory regression gate: compares each committed
//! `BENCH_*.json` artifact with a fresh artifact that the same sweep binary
//! wrote.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin perf_gate -- \
//!     <committed.json> <fresh.json> [<committed.json> <fresh.json> ...]
//! ```
//!
//! Both files of a pair must carry the same `bench` tag, which selects the
//! checks of [`tbi_bench::gate::checks_for`].  The gate runs no workload of
//! its own, so it judges the program that wrote the baseline.  CI writes
//! the fresh files (`*_smoke.json`) with the sweep binaries in the steps
//! before the gate and then runs:
//!
//! ```text
//! perf_gate BENCH_engine.json engine_smoke.json BENCH_channels.json channels_smoke.json \
//!     BENCH_dse.json dse_smoke.json BENCH_mapgen.json mapgen_smoke.json \
//!     BENCH_tenants.json tenants_smoke.json BENCH_campaign.json campaign_smoke.json
//! ```
//!
//! Exits 1 if any check fails or a pair cannot be read, parsed or matched,
//! and 2 on a malformed command line.

use std::path::{Path, PathBuf};

use tbi_bench::gate::{checks_for, evaluate, GateReport};
use tbi_exp::json::{parse, JsonValue};

const USAGE: &str =
    "usage: perf_gate <committed.json> <fresh.json> [<committed.json> <fresh.json> ...]\n\n\
     Compares each committed BENCH_*.json artifact with a fresh artifact written by\n\
     the same sweep binary (both must carry the same `bench` tag) and fails (exit 1)\n\
     if a reproduced field differs or a metric regressed beyond its tolerance.\n\n\
     options:\n  \
     -h, --help       print this help";

/// Splits the command line into `(committed, fresh)` pairs; `Ok(None)`
/// means `--help`.
fn parse_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<Option<Vec<(PathBuf, PathBuf)>>, String> {
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.is_empty() || paths.len() % 2 != 0 {
        return Err(format!(
            "expected <committed> <fresh> pairs, got {} path(s)",
            paths.len()
        ));
    }
    Ok(Some(
        paths
            .chunks_exact(2)
            .map(|pair| (pair[0].clone(), pair[1].clone()))
            .collect(),
    ))
}

/// Reads and parses an artifact, returning it with its `bench` tag.
fn load(path: &Path) -> Result<(JsonValue, String), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let bench = doc
        .get("bench")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{} has no `bench` tag", path.display()))?
        .to_string();
    Ok((doc, bench))
}

fn gate_pair(committed_path: &Path, fresh_path: &Path) -> Result<GateReport, String> {
    let (committed, bench) = load(committed_path)?;
    let (fresh, fresh_bench) = load(fresh_path)?;
    if fresh_bench != bench {
        return Err(format!(
            "{} is a `{bench}` artifact but {} is a `{fresh_bench}` artifact",
            committed_path.display(),
            fresh_path.display()
        ));
    }
    let checks = checks_for(&bench).ok_or_else(|| {
        format!(
            "{}: no checks for bench `{bench}`",
            committed_path.display()
        )
    })?;
    eprintln!(
        "gating {} against {} ({bench}) ...",
        fresh_path.display(),
        committed_path.display()
    );
    Ok(evaluate(&bench, &fresh, &committed, &checks))
}

fn main() {
    let pairs = match parse_args(std::env::args().skip(1)) {
        Ok(Some(pairs)) => pairs,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut all_passed = true;
    for (committed, fresh) in &pairs {
        match gate_pair(committed, fresh) {
            Ok(report) => {
                print!("{}", report.render());
                all_passed &= report.passed();
            }
            Err(message) => {
                eprintln!("error: {message}");
                all_passed = false;
            }
        }
    }
    if all_passed {
        println!("perf_gate: all artifacts within tolerance");
    } else {
        println!("perf_gate: PERFORMANCE REGRESSION DETECTED");
        std::process::exit(1);
    }
}
