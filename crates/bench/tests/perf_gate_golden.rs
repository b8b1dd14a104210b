//! Golden coverage for the performance-regression gate.
//!
//! Two layers, mirroring `tbi_exp`'s `serialize_golden.rs` discipline:
//!
//! 1. **Report goldens** — [`tbi_bench::gate::evaluate`] runs on fixed
//!    synthetic documents (a regressed pair that must fail, a
//!    tolerance-boundary pair that must pass, degenerate baselines, a
//!    nested field-for-field difference) and the rendered report is
//!    pinned byte-for-byte under `tests/fixtures/`.  Regenerate after an
//!    intentional format change:
//!
//!    ```text
//!    TBI_BLESS_GOLDEN=1 cargo test -p tbi_bench --test perf_gate_golden
//!    ```
//!
//! 2. **End-to-end injected regression** — the `perf_gate` binary compares
//!    a fresh 4,000-burst `channel_sweep` artifact with a committed one
//!    from the same command (`gate_passing_channels.json`), which must
//!    pass, and with a copy whose `min_scaling_1_to_2_optimized` is
//!    impossibly good (`gate_regressed_channels.json`); the gate must exit
//!    non-zero and name the differing key.  Regenerate both after an
//!    intentional change to the sweep's output:
//!
//!    ```text
//!    channel_sweep --bursts 4000 --json crates/bench/tests/fixtures/gate_passing_channels.json
//!    ```
//!
//!    then copy it to `gate_regressed_channels.json` with that one value
//!    set to `1000`.
//!
//!    An artifact that gives one key twice fails to parse, so the gate
//!    exits non-zero and names the key.
//!
//! 3. **Check table** — every committed `BENCH_*.json` passes its own
//!    [`tbi_bench::gate::checks_for`] checks, so a check naming a key the
//!    artifact lacks fails here at once.

use std::path::{Path, PathBuf};
use std::process::Command;

use tbi_bench::gate::{checks_for, evaluate, Check, CheckKind, WHOLE_ARTIFACT};
use tbi_exp::json::{parse, JsonValue};

const REGRESSED_REPORT: &str = include_str!("fixtures/gate_report_regressed.txt");
const BOUNDARY_REPORT: &str = include_str!("fixtures/gate_report_boundary.txt");
const DEGENERATE_REPORT: &str = include_str!("fixtures/gate_report_degenerate.txt");
const NESTED_REPORT: &str = include_str!("fixtures/gate_report_nested.txt");

fn doc(text: &str) -> JsonValue {
    parse(text).expect("test document parses")
}

/// With `TBI_BLESS_GOLDEN=1`, rewrites the fixture instead of comparing
/// (returns `true` when blessing happened).
fn bless(name: &str, contents: &str) -> bool {
    if std::env::var("TBI_BLESS_GOLDEN").is_err() {
        return false;
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, contents).unwrap();
    eprintln!("blessed {}", path.display());
    true
}

/// The check set of a representative bench (`engine_speed`-shaped, plus a
/// ratio check so every [`CheckKind`] appears in the goldens).
fn checks() -> Vec<Check> {
    vec![
        Check::new("records_identical", CheckKind::MustBeTrue),
        Check::new("speedup", CheckKind::MinRatio(0.5)),
        Check::new(
            "event_sim_cycles_per_second",
            CheckKind::AbsFloor(1000000.0),
        ),
    ]
}

#[test]
fn regressed_artifact_fails_every_check_and_matches_the_golden_report() {
    // Identity broken, speedup collapsed below half the baseline, absolute
    // throughput below the floor: all three checks must fail.
    let current = doc(r#"{"records_identical": false, "speedup": 4.25,
            "event_sim_cycles_per_second": 500000.0}"#);
    let committed = doc(r#"{"speedup": 13.5, "event_sim_cycles_per_second": 90000000.0}"#);
    let report = evaluate("engine_speed", &current, &committed, &checks());
    assert!(!report.passed(), "regressed artifact must fail the gate");
    assert!(report.results.iter().all(|r| !r.passed));
    let text = report.render();
    if bless("gate_report_regressed.txt", &text) {
        return;
    }
    assert_eq!(
        text, REGRESSED_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_regressed.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

#[test]
fn tolerance_boundary_artifact_passes_and_matches_the_golden_report() {
    // Every metric sits exactly on its boundary: the ratio check at
    // committed × tolerance, the floor check at the floor itself.  The gate
    // is inclusive (>=), so all must pass.
    let current = doc(r#"{"records_identical": true, "speedup": 6.75,
            "event_sim_cycles_per_second": 1000000.0}"#);
    let committed = doc(r#"{"speedup": 13.5, "event_sim_cycles_per_second": 90000000.0}"#);
    let report = evaluate("engine_speed", &current, &committed, &checks());
    assert!(report.passed(), "boundary artifact must pass the gate");
    let text = report.render();
    if bless("gate_report_boundary.txt", &text) {
        return;
    }
    assert_eq!(
        text, BOUNDARY_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_boundary.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

#[test]
fn degenerate_min_ratio_baselines_fail_cleanly_and_match_the_golden_report() {
    // A corrupt committed artifact must fail its `MinRatio` checks with a
    // diagnostic — never divide by zero, never pass against a meaningless
    // baseline, never panic on a non-numeric stand-in (non-finite floats
    // serialize as `null` under the artifact discipline, so `null` is the
    // on-disk face of a NaN/inf baseline).
    let current = doc(
        r#"{"zero_base": 1.0, "negative_base": 1.0, "null_base": 1.0,
            "missing_base": 1.0, "null_current": null}"#,
    );
    let committed = doc(
        r#"{"zero_base": 0.0, "negative_base": -13.5, "null_base": null,
            "null_current": 2.0}"#,
    );
    let checks = [
        Check::new("zero_base", CheckKind::MinRatio(0.5)),
        Check::new("negative_base", CheckKind::MinRatio(0.5)),
        Check::new("null_base", CheckKind::MinRatio(0.5)),
        Check::new("missing_base", CheckKind::MinRatio(0.5)),
        Check::new("null_current", CheckKind::MinRatio(0.5)),
    ];
    let report = evaluate("degenerate", &current, &committed, &checks);
    assert!(!report.passed(), "every degenerate baseline must fail");
    assert!(report.results.iter().all(|r| !r.passed));
    let text = report.render();
    if bless("gate_report_degenerate.txt", &text) {
        return;
    }
    assert_eq!(
        text, DEGENERATE_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_degenerate.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

#[test]
fn nested_difference_fails_the_whole_artifact_check_and_matches_the_golden_report() {
    // A committed-size tenant sweep that reproduces every field but one
    // tail latency, with every wall-clock field different: the report must
    // name that latency's JSON path, and nothing else.
    let committed = doc(r#"{"bench": "tenant_sweep", "bursts": 1048576, "records": [
        {"scenario_id": "a", "wall_time_s": 0.5, "sim_cycles_per_second": 2e8, "tenants": null},
        {"scenario_id": "b", "wall_time_s": 0.5, "sim_cycles_per_second": 2e8, "tenants": null},
        {"scenario_id": "c", "wall_time_s": 0.5, "sim_cycles_per_second": 2e8, "tenants": null},
        {"scenario_id": "d", "wall_time_s": 0.5, "sim_cycles_per_second": 2e8, "tenants":
            {"per_tenant": [{"p99_latency_cycles": 40}, {"p99_latency_cycles": 40}]}}]}"#);
    let current = doc(r#"{"bench": "tenant_sweep", "bursts": 1048576, "records": [
        {"scenario_id": "a", "wall_time_s": 0.7, "sim_cycles_per_second": 1e8, "tenants": null},
        {"scenario_id": "b", "wall_time_s": 0.7, "sim_cycles_per_second": 1e8, "tenants": null},
        {"scenario_id": "c", "wall_time_s": 0.7, "sim_cycles_per_second": 1e8, "tenants": null},
        {"scenario_id": "d", "wall_time_s": 0.7, "sim_cycles_per_second": 1e8, "tenants":
            {"per_tenant": [{"p99_latency_cycles": 40}, {"p99_latency_cycles": 41}]}}]}"#);
    let checks = [
        Check::new("bursts", CheckKind::SameAsCommitted),
        Check::new(WHOLE_ARTIFACT, CheckKind::SameAsCommitted),
    ];
    let report = evaluate("tenant_sweep", &current, &committed, &checks);
    assert!(!report.passed(), "a nested difference must fail the gate");
    let text = report.render();
    if bless("gate_report_nested.txt", &text) {
        return;
    }
    assert_eq!(
        text, NESTED_REPORT,
        "gate report format drifted from tests/fixtures/gate_report_nested.txt — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Writes a fresh `channel_sweep` artifact at a tiny size (plus `extra`
/// flags) to `name` under the test scratch directory.
fn fresh_channel_sweep(name: &str, extra: &[&str]) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let output = Command::new(env!("CARGO_BIN_EXE_channel_sweep"))
        .args(["--bursts", "4000"])
        .args(extra)
        .arg("--json")
        .arg(&path)
        .output()
        .expect("channel_sweep binary runs");
    assert!(
        output.status.success(),
        "channel_sweep failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    path
}

/// Runs the `perf_gate` binary on one (committed, fresh) pair, returning
/// (exit success, stdout, stderr).
fn run_gate_pair(committed: &Path, fresh: &Path) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .arg(committed)
        .arg(fresh)
        .output()
        .expect("perf_gate binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Gates a fresh `channel_sweep` artifact against one committed fixture,
/// returning (exit success, stdout).
fn run_gate(committed_fixture: &str) -> (bool, String) {
    let fresh = fresh_channel_sweep(&format!("fresh_{committed_fixture}"), &[]);
    let (success, stdout, _) = run_gate_pair(&fixture(committed_fixture), &fresh);
    (success, stdout)
}

#[test]
fn injected_regression_fixture_fails_the_gate_binary() {
    // The fixture is a real 4,000-burst artifact whose 1 → 2 channel
    // scaling was edited to an impossibly good 1000x, so any honest fresh
    // run differs from it in that one field.
    let (success, stdout) = run_gate("gate_regressed_channels.json");
    assert!(!success, "gate must exit non-zero on the regressed fixture");
    assert!(
        stdout.contains(
            "FAIL channel_sweep/* (== committed): min_scaling_1_to_2_optimized: current "
        ) && stdout.contains(", committed 1000\n"),
        "gate must name the regressed key:\n{stdout}"
    );
    assert!(
        stdout.contains("PERFORMANCE REGRESSION DETECTED"),
        "gate must print the failure banner:\n{stdout}"
    );
}

#[test]
fn modest_baseline_fixture_passes_the_gate_binary() {
    // The fixture is the artifact the same command wrote: a fresh run must
    // reproduce every field except the wall-clock ones, which pins the
    // gate's pass path end to end without depending on the host's speed.
    let (success, stdout) = run_gate("gate_passing_channels.json");
    assert!(
        success,
        "gate must exit zero on the passing fixture:\n{stdout}"
    );
    assert!(
        stdout.contains("PASS channel_sweep/* (== committed): equal; "),
        "gate must report the passing comparison:\n{stdout}"
    );
    assert!(
        stdout.contains("all artifacts within tolerance"),
        "gate must print the success banner:\n{stdout}"
    );
}

#[test]
fn fresh_artifact_with_other_ranks_fails_the_ranks_guard() {
    // Different settings measure a different workload: the comparison must
    // refuse it, and the first differing field is the rank count.
    let fresh = fresh_channel_sweep("fresh_ranks2.json", &["--ranks", "2"]);
    let (success, stdout, _) = run_gate_pair(&fixture("gate_passing_channels.json"), &fresh);
    assert!(
        !success,
        "a --ranks 2 artifact must fail the gate:\n{stdout}"
    );
    assert!(
        stdout.contains("FAIL channel_sweep/* (== committed): ranks: current 2, committed 1"),
        "gate must name the mismatched setting:\n{stdout}"
    );
    assert!(
        stdout.contains("PERFORMANCE REGRESSION DETECTED"),
        "{stdout}"
    );
}

#[test]
fn mismatched_bench_tags_fail_and_name_both_files() {
    let committed = fixture("gate_passing_channels.json");
    let fresh = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let (success, stdout, stderr) = run_gate_pair(&committed, &fresh);
    assert!(!success, "mismatched tags must fail the gate");
    for path in [&committed, &fresh] {
        assert!(
            stderr.contains(&path.display().to_string()),
            "error must name {}:\n{stderr}",
            path.display()
        );
    }
    assert!(
        stdout.contains("PERFORMANCE REGRESSION DETECTED"),
        "{stdout}"
    );
}

#[test]
fn artifact_with_a_duplicate_key_fails_the_gate_binary() {
    // A key-based check reads one copy of a key, so a second, contradicting
    // copy must make the artifact unreadable rather than pass unseen.
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let text = std::fs::read_to_string(&committed).expect("committed artifact exists");
    let twice = text.replace(
        "\"records_identical\": true",
        "\"records_identical\": true,\n  \"records_identical\": false",
    );
    assert_ne!(
        twice, text,
        "BENCH_engine.json lost its records_identical key"
    );
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine_duplicate_key.json");
    std::fs::write(&fresh, twice).expect("scratch artifact is writable");
    let (success, stdout, stderr) = run_gate_pair(&committed, &fresh);
    assert!(!success, "a duplicate key must fail the gate:\n{stdout}");
    assert!(
        stderr.contains("duplicate key `records_identical` at byte "),
        "error must name the duplicate key:\n{stderr}"
    );
    assert!(
        stdout.contains("PERFORMANCE REGRESSION DETECTED"),
        "{stdout}"
    );
}

#[test]
fn every_committed_artifact_passes_its_own_checks() {
    for name in [
        "BENCH_engine.json",
        "BENCH_channels.json",
        "BENCH_dse.json",
        "BENCH_mapgen.json",
        "BENCH_tenants.json",
        "BENCH_campaign.json",
        "BENCH_parallel.json",
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        let committed = doc(&std::fs::read_to_string(&path).expect("committed artifact exists"));
        let bench = committed
            .get("bench")
            .and_then(JsonValue::as_str)
            .expect("committed artifact has a bench tag");
        let Some(checks) = checks_for(bench) else {
            // The one ungated artifact: its speedups depend on the core
            // count of the host that wrote it.
            assert_eq!(bench, "parallel_sweep", "{name} has no checks");
            continue;
        };
        let report = evaluate(bench, &committed, &committed, &checks);
        assert!(report.passed(), "{name}:\n{}", report.render());
    }
}
