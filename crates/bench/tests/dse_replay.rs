//! Full-size replay of the committed `BENCH_dse.json`.
//!
//! Every search row embeds three full records: the discovered mapping
//! (`best`), the row-major baseline and the paper's optimized scheme.  This
//! test rebuilds each one as an ordinary scenario on the row's preset, at
//! the committed size with refresh off, runs all 30 through one
//! [`Experiment`] and compares each fresh record with the committed one
//! through the perf gate's exact comparator (every field except the
//! wall-clock ones).  The search path itself is pinned at 4,000 bursts by
//! `tbi_exp`'s `search_golden.rs`.
//!
//! Ignored by default: the 30 simulations take about a minute on two
//! cores in release.  CI runs it as
//!
//! ```text
//! cargo test --release -p tbi_bench --test dse_replay -- --ignored
//! ```

use tbi_bench::gate::{same_as_committed, WHOLE_ARTIFACT};
use tbi_dram::standards::ALL_CONFIGS;
use tbi_dram::DramConfig;
use tbi_exp::json::{parse, JsonValue};
use tbi_exp::serialize::records_to_json;
use tbi_exp::{Experiment, Scenario};
use tbi_interleaver::{InterleaverSpec, MappingKind};

/// The records each search row embeds.
const ROLES: [&str; 3] = ["best", "row_major", "optimized"];

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("`{key}` is a string"))
}

#[test]
#[ignore = "30 full-size simulations; run in release"]
fn committed_search_records_replay_at_full_size() {
    let committed = parse(include_str!("../../../BENCH_dse.json")).expect("BENCH_dse.json parses");
    assert_eq!(
        committed.get("refresh_disabled"),
        Some(&JsonValue::Bool(true)),
        "the committed search ran without refresh"
    );
    let bursts = committed
        .get("bursts")
        .and_then(JsonValue::as_f64)
        .expect("`bursts` is a number");
    assert_eq!(
        bursts, 12_500_000.0,
        "the committed search ran at full size"
    );
    let spec = InterleaverSpec::from_burst_count(12_500_000);
    let rows = committed
        .get("search")
        .and_then(JsonValue::as_array)
        .expect("`search` is an array");
    assert_eq!(rows.len(), ALL_CONFIGS.len());

    let mut names = Vec::new();
    let mut baselines = Vec::new();
    let mut scenarios = Vec::new();
    for row in rows {
        let label = text(row, "dram");
        let dram = ALL_CONFIGS
            .iter()
            .map(|&(standard, rate)| DramConfig::preset(standard, rate).expect("preset builds"))
            .find(|dram| dram.label() == label)
            .unwrap_or_else(|| panic!("`{label}` is a preset"));
        for role in ROLES {
            let record = row.get(role).unwrap_or_else(|| panic!("row has `{role}`"));
            let mapping = MappingKind::parse_label(text(record, "mapping")).expect("label parses");
            scenarios.push(Scenario::custom(dram.clone(), mapping, spec).without_refresh());
            names.push(format!("{label}/{role}"));
            baselines.push(record);
        }
    }

    let records = Experiment::new(scenarios)
        .with_workers(0)
        .run()
        .expect("every scenario runs");
    let fresh = parse(&records_to_json(&records)).expect("records serialize to JSON");
    let fresh = fresh.as_array().expect("records serialize to an array");
    assert_eq!(fresh.len(), baselines.len());
    let failures: Vec<String> = names
        .iter()
        .zip(fresh.iter().zip(&baselines))
        .filter_map(|(name, (fresh, committed))| {
            same_as_committed(WHOLE_ARTIFACT, fresh, committed)
                .err()
                .map(|difference| format!("{name}: {difference}"))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} committed records did not reproduce:\n{}",
        failures.len(),
        baselines.len(),
        failures.join("\n")
    );
}
