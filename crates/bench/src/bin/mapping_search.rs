//! Address-mapping design-space exploration on the Table I presets.
//!
//! For every preset DRAM configuration, runs `tbi_exp`'s [`MappingSearch`]
//! — the seeded portfolio search over free-shape tilings and hybrid
//! `(permutation, fold)` mappings (simulated annealing, evolutionary
//! restarts, diagonal-fold starts) — and compares the best discovered
//! mapping against the paper's hand-optimized scheme, emitting a
//! script-friendly `BENCH_dse.json`.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin mapping_search -- \
//!     [--seed <n>] [--restarts <n>] [--budget <n>] [--neighbors <n>]
//!     [--full | --bursts <n>] [--no-refresh] [--workers <n>] [--json <p>]
//! ```
//!
//! The default search settings are the committed artifact's, so
//! `mapping_search --full --no-refresh --json BENCH_dse.json` regenerates
//! it.  The committed `BENCH_dse.json` pins the headline DSE claim: on every
//! Table I preset the portfolio search discovers a hybrid mapping whose
//! round-trip row-hit rate **strictly beats** the paper's optimized scheme
//! (`all_beat_optimized`; the tolerance-based
//! [`MATCH_TOLERANCE`] flag is kept alongside —
//! exact gains are embedded next to both), under the paper's in-text
//! no-refresh condition, and the run is bit-reproducible for a fixed
//! `--seed` at any worker count.

use tbi_bench::HarnessOptions;
use tbi_dram::standards::ALL_CONFIGS;
use tbi_dram::DramConfig;
use tbi_exp::search::{MappingSearch, SearchRecord, SearchSettings, MATCH_TOLERANCE};
use tbi_exp::serialize::{json_number, json_string, search_records_to_json};
use tbi_interleaver::InterleaverSpec;

const FLAGS: &[&str] = &["--full", "--bursts", "--no-refresh", "--workers", "--json"];

fn usage() -> String {
    let shared = HarnessOptions::usage_for("mapping_search", FLAGS);
    let defaults = SearchSettings::default();
    format!(
        "{shared}\n\nsearch options:\n  \
         --seed <n>       RNG seed; fixed seeds reproduce bit-identical searches (default {})\n  \
         --restarts <n>   climb starting points per preset (default {})\n  \
         --budget <n>     candidate evaluations per preset (default {})\n  \
         --neighbors <n>  candidates per climb step (default {})",
        defaults.seed, defaults.restarts, defaults.budget, defaults.neighbors,
    )
}

/// Splits the search-specific flags off the command line, leaving the
/// shared harness flags for [`HarnessOptions::parse_for`].
fn parse_search_flags(
    args: Vec<String>,
    settings: &mut SearchSettings,
) -> Result<Vec<String>, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut numeric = |name: &str| -> Result<u64, String> {
            let value = iter
                .next()
                .ok_or_else(|| format!("{name} requires a value"))?;
            value
                .parse::<u64>()
                .map_err(|e| format!("invalid {name} value `{value}`: {e}"))
        };
        match arg.as_str() {
            "--seed" => settings.seed = numeric("--seed")?,
            "--restarts" => {
                settings.restarts = numeric("--restarts")?
                    .try_into()
                    .map_err(|_| "--restarts out of range".to_string())?;
                if settings.restarts == 0 {
                    return Err("--restarts must be at least 1".to_string());
                }
            }
            "--budget" => {
                settings.budget = numeric("--budget")?
                    .try_into()
                    .map_err(|_| "--budget out of range".to_string())?;
                if settings.budget == 0 {
                    return Err("--budget must be at least 1".to_string());
                }
            }
            "--neighbors" => {
                settings.neighbors = numeric("--neighbors")?
                    .try_into()
                    .map_err(|_| "--neighbors out of range".to_string())?;
                if settings.neighbors == 0 {
                    return Err("--neighbors must be at least 1".to_string());
                }
            }
            _ => rest.push(arg),
        }
    }
    Ok(rest)
}

fn main() {
    let mut settings = SearchSettings::default();
    let parsed = parse_search_flags(std::env::args().skip(1).collect(), &mut settings)
        .and_then(|rest| HarnessOptions::parse_for(rest, FLAGS));
    let options = HarnessOptions::or_exit(parsed, &usage());
    settings.workers = options.workers;
    let spec = InterleaverSpec::from_burst_count(options.bursts);

    eprintln!(
        "mapping_search: {} presets x {} evaluations at {} bursts \
         (seed {}, {} restarts, {} neighbors/step)",
        ALL_CONFIGS.len(),
        settings.budget,
        options.bursts,
        settings.seed,
        settings.restarts,
        settings.neighbors,
    );

    println!(
        "{:<14} {:>6} {:>6} {:>10} {:>10} {:>7} {:>10} {:>10}  fold",
        "config", "evals", "moves", "dse hit", "paper hit", "gain", "dse util", "paper util",
    );
    let mut records: Vec<SearchRecord> = Vec::with_capacity(ALL_CONFIGS.len());
    for (standard, rate) in ALL_CONFIGS {
        let dram = match DramConfig::preset(*standard, *rate) {
            Ok(dram) => dram,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        };
        let search = MappingSearch::new(dram, spec, settings).with_controller(options.controller());
        let record = match search.run() {
            Ok(record) => record,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        };
        println!(
            "{:<14} {:>6} {:>6} {:>9.2} % {:>9.2} % {:>6.3}x {:>9.2} % {:>9.2} %  {}",
            record.dram_label,
            record.evaluations,
            record.accepted_moves,
            record.discovered_row_hit_rate() * 100.0,
            record.optimized_row_hit_rate() * 100.0,
            record.row_hit_gain(),
            record.best.min_utilization * 100.0,
            record.optimized.min_utilization * 100.0,
            if record.fold.is_empty() {
                "-"
            } else {
                &record.fold
            },
        );
        records.push(record);
    }

    let all_match = records.iter().all(SearchRecord::matches_or_beats_optimized);
    let all_beat = records.iter().all(SearchRecord::beats_optimized);
    let min_gain = records
        .iter()
        .map(SearchRecord::row_hit_gain)
        .fold(f64::INFINITY, f64::min);
    println!(
        "discovered mappings strictly beat the paper's optimized row-hit rate on {}/{} presets, \
         match-or-beat on {}/{} (min gain {min_gain:.6}x; matches = within \
         {MATCH_TOLERANCE:e} relative)",
        records.iter().filter(|r| r.beats_optimized()).count(),
        records.len(),
        records
            .iter()
            .filter(|r| r.matches_or_beats_optimized())
            .count(),
        records.len(),
    );

    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"seed\": {},\n  \"restarts\": {},\n  \
         \"budget\": {},\n  \"neighbors\": {},\n  \"presets\": {},\n  \
         \"refresh_disabled\": {},\n  \"match_tolerance\": {},\n  \
         \"all_match_or_beat_optimized\": {},\n  \"all_beat_optimized\": {},\n  \
         \"min_row_hit_gain\": {},\n  \
         \"search\": {}}}\n",
        json_string("mapping_search"),
        options.bursts,
        settings.seed,
        settings.restarts,
        settings.budget,
        settings.neighbors,
        records.len(),
        options.no_refresh,
        json_number(MATCH_TOLERANCE),
        all_match,
        all_beat,
        json_number(min_gain),
        search_records_to_json(&records),
    );
    if let Some(output) = &options.json {
        if let Err(error) = std::fs::write(output, json) {
            eprintln!("error: cannot write {}: {error}", output.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", output.display());
    }
}
