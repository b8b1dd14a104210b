//! Performance-trajectory gate: compares a fresh benchmark artifact against
//! the committed `BENCH_*.json` baseline with per-metric tolerances.
//!
//! The committed artifacts record the performance wins of past PRs (engine
//! speedup, channel scaling, mapping-search gains, tenant QoS separation,
//! the downlink waterfall).  The fresh artifact comes from the same sweep
//! binary at smoke scale; [`checks_for`] names the checks of each `bench`
//! tag and [`evaluate`] judges them, so the `perf_gate` binary only reads
//! the two files and prints the [`GateReport`].  CI fails on any `FAIL`
//! line.  The pass/fail logic lives here — in the library, not the binary —
//! so the regression and tolerance-boundary fixtures can pin it
//! byte-for-byte (see `tests/perf_gate_golden.rs`).

use tbi_exp::json::JsonValue;
use tbi_exp::serialize::{json_number, json_string};

/// How one metric of the current run is judged against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckKind {
    /// The current value must be at least `tolerance × committed` (e.g.
    /// `MinRatio(0.5)`: a smoke-scale run may lose up to half the
    /// committed metric before the gate fails).  Committed values ≤ 0 fail
    /// the check outright — a non-positive baseline means the committed
    /// artifact itself is broken.
    MinRatio(f64),
    /// The current value must be the boolean `true` (identity/correctness
    /// flags like `records_identical` or `all_identical`, which must hold at
    /// any scale).
    MustBeTrue,
    /// The current value must be at least this absolute floor, independent
    /// of the committed value.
    AbsFloor(f64),
    /// The current value must equal the committed one.  Guards the settings
    /// that make the comparison like-for-like (search seed and budget,
    /// campaign trials, rank count): a fresh run with other settings
    /// measures a different workload.
    SameAsCommitted,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckKind::MinRatio(tolerance) => write!(f, ">= {tolerance} x committed"),
            CheckKind::MustBeTrue => write!(f, "must be true"),
            CheckKind::AbsFloor(floor) => write!(f, ">= {floor}"),
            CheckKind::SameAsCommitted => write!(f, "== committed"),
        }
    }
}

/// One metric to gate: the top-level JSON key and how to judge it.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Top-level key of the artifact object holding the metric.
    pub metric: String,
    /// Pass criterion.
    pub kind: CheckKind,
}

impl Check {
    /// Convenience constructor.
    #[must_use]
    pub fn new(metric: impl Into<String>, kind: CheckKind) -> Self {
        Self {
            metric: metric.into(),
            kind,
        }
    }
}

/// Outcome of one [`Check`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// The gated metric key.
    pub metric: String,
    /// The criterion that was applied.
    pub kind: CheckKind,
    /// Whether the metric passed.
    pub passed: bool,
    /// Human-readable evidence (values involved, or the missing key).
    pub detail: String,
}

/// Outcome of gating one benchmark artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// The artifact's `bench` tag (e.g. `engine_speed`).
    pub bench: String,
    /// Per-check outcomes, in check order.
    pub results: Vec<CheckResult>,
}

impl GateReport {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// Renders the report as one `PASS`/`FAIL` line per check plus a final
    /// verdict line.  The output is deterministic for fixed inputs (floats
    /// print via `Display`, the shortest round-trip form), so golden tests
    /// can pin it byte-for-byte.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for result in &self.results {
            let status = if result.passed { "PASS" } else { "FAIL" };
            out.push_str(&format!(
                "{status} {}/{} ({}): {}\n",
                self.bench, result.metric, result.kind, result.detail
            ));
        }
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        out.push_str(&format!("{verdict} {}\n", self.bench));
        out
    }
}

/// The checks `perf_gate` applies to an artifact with this `bench` tag, or
/// `None` for a bench it does not gate.
///
/// Every tolerance is set for a fresh artifact from the same binary as CI
/// runs it: at smoke scale (`--bursts 20000`, `100000` for
/// `engine_speed`), or at the committed size for `mapgen_speed` and
/// `tenant_sweep`.  Identity flags must hold at any scale, ratio metrics
/// may lose a bounded fraction of the committed value, deterministic
/// metrics of a committed-size run must equal it, and speed ratios of a
/// smoke-scale run, whose size depends on the host, get absolute floors.
#[must_use]
pub fn checks_for(bench: &str) -> Option<Vec<Check>> {
    use CheckKind::{AbsFloor, MinRatio, MustBeTrue, SameAsCommitted};
    let table: &[(&str, CheckKind)] = match bench {
        // The committed full-size speedup is 13.5x.
        "engine_speed" => &[
            ("records_identical", MustBeTrue),
            ("speedup", AbsFloor(4.0)),
        ],
        "channel_sweep" => &[
            ("ranks", SameAsCommitted),
            ("min_scaling_1_to_2_optimized", MinRatio(0.75)),
        ],
        // The committed permutations are tuned to the full-size triangle, so
        // the fresh run repeats the *search* with the committed settings and
        // must still rediscover mappings near the optimized row-hit rate.
        "mapping_search" => &[
            ("seed", SameAsCommitted),
            ("restarts", SameAsCommitted),
            ("budget", SameAsCommitted),
            ("neighbors", SameAsCommitted),
            ("strategy", SameAsCommitted),
            ("surrogate_divisor", SameAsCommitted),
            ("promote", SameAsCommitted),
            ("sa_temp_micro", SameAsCommitted),
            ("transfer", SameAsCommitted),
            ("refresh_disabled", SameAsCommitted),
            ("min_row_hit_gain", MinRatio(0.95)),
        ],
        // The fresh run is the committed size.  The committed gather
        // minimum is 4.50x and fresh runs on a 2-vCPU host read 4.15 or
        // more, so 0.6 x committed (2.70) fails a gather kernel at half
        // speed.
        "mapgen_speed" => &[
            ("all_identical", MustBeTrue),
            ("min_permutation_gather_speedup", MinRatio(0.6)),
        ],
        // The fresh run is the committed size, and every pick is
        // deterministic, so the headline ratio reproduces exactly.
        "tenant_sweep" => &[
            ("bursts", SameAsCommitted),
            ("max_premium_p99_ratio", SameAsCommitted),
        ],
        // The link seeds do not depend on the burst count, so with the
        // committed seed and trials the waterfall reproduces exactly.  The
        // mapping shift grows with the burst count, hence a floor rather
        // than a ratio against the full-size value.
        "campaign_sweep" => &[
            ("seed", SameAsCommitted),
            ("trials", SameAsCommitted),
            ("ber_strictly_decreases_with_depth", MustBeTrue),
            ("all_frontiers_nonempty", MustBeTrue),
            ("min_mapping_bandwidth_shift", AbsFloor(0.01)),
            ("max_aggregate_gbps", MinRatio(0.5)),
        ],
        _ => return None,
    };
    Some(
        table
            .iter()
            .map(|&(metric, kind)| Check::new(metric, kind))
            .collect(),
    )
}

/// Renders a JSON scalar for a report line.
fn show(value: &JsonValue) -> String {
    match value {
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => json_number(*n),
        JsonValue::String(s) => json_string(s),
        other => format!("{other:?}"),
    }
}

/// Extracts a finite f64 from a top-level key.
fn number(doc: &JsonValue, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        None => Err(format!("missing key `{key}`")),
        Some(value) => match value.as_f64() {
            Some(n) if n.is_finite() => Ok(n),
            Some(n) => Err(format!("`{key}` is not finite ({n})")),
            None => Err(format!("`{key}` is not a number")),
        },
    }
}

/// Judges every check of `checks` for the `bench` artifact, comparing the
/// freshly measured `current` document against the `committed` baseline.
///
/// A key missing from either document — or holding the wrong type — fails
/// its check rather than being skipped: a silently missing metric is
/// indistinguishable from a regression.
#[must_use]
pub fn evaluate(
    bench: &str,
    current: &JsonValue,
    committed: &JsonValue,
    checks: &[Check],
) -> GateReport {
    let results = checks
        .iter()
        .map(|check| {
            let (passed, detail) = match check.kind {
                CheckKind::MustBeTrue => match current.get(&check.metric) {
                    Some(JsonValue::Bool(true)) => (true, "true".to_string()),
                    Some(JsonValue::Bool(false)) => (false, "false".to_string()),
                    Some(_) => (false, format!("`{}` is not a boolean", check.metric)),
                    None => (false, format!("missing key `{}`", check.metric)),
                },
                CheckKind::AbsFloor(floor) => match number(current, &check.metric) {
                    Ok(value) => (value >= floor, format!("current {value}, floor {floor}")),
                    Err(message) => (false, message),
                },
                CheckKind::SameAsCommitted => {
                    match (current.get(&check.metric), committed.get(&check.metric)) {
                        (Some(value), Some(baseline)) if value == baseline => (true, show(value)),
                        (Some(value), Some(baseline)) => (
                            false,
                            format!("current {}, committed {}", show(value), show(baseline)),
                        ),
                        (None, _) => (false, format!("current: missing key `{}`", check.metric)),
                        (_, None) => (false, format!("committed: missing key `{}`", check.metric)),
                    }
                }
                CheckKind::MinRatio(tolerance) => {
                    match (
                        number(current, &check.metric),
                        number(committed, &check.metric),
                    ) {
                        (Ok(value), Ok(baseline)) => {
                            if baseline <= 0.0 {
                                (
                                    false,
                                    format!("committed baseline {baseline} is not positive"),
                                )
                            } else {
                                (
                                    value >= baseline * tolerance,
                                    format!(
                                        "current {value}, committed {baseline}, \
                                         required {}",
                                        baseline * tolerance
                                    ),
                                )
                            }
                        }
                        (Err(message), _) => (false, format!("current: {message}")),
                        (_, Err(message)) => (false, format!("committed: {message}")),
                    }
                }
            };
            CheckResult {
                metric: check.metric.clone(),
                kind: check.kind,
                passed,
                detail,
            }
        })
        .collect();
    GateReport {
        bench: bench.to_string(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_exp::json::parse;

    fn doc(text: &str) -> JsonValue {
        parse(text).unwrap()
    }

    #[test]
    fn min_ratio_passes_at_and_above_the_boundary() {
        let committed = doc(r#"{"speedup": 10.0}"#);
        for (current_value, expect) in [(5.0, true), (4.999, false), (10.0, true)] {
            let current = doc(&format!(r#"{{"speedup": {current_value}}}"#));
            let report = evaluate(
                "engine_speed",
                &current,
                &committed,
                &[Check::new("speedup", CheckKind::MinRatio(0.5))],
            );
            assert_eq!(report.passed(), expect, "current {current_value}");
        }
    }

    #[test]
    fn gather_speedup_gate_fails_a_half_speed_kernel_against_the_committed_value() {
        let committed = doc(include_str!("../../../BENCH_mapgen.json"));
        let checks = checks_for("mapgen_speed").unwrap();
        // 4.15 is the slowest fresh run seen; 2.25 is a gather kernel at
        // half the committed speed.
        for (speedup, expect) in [(2.25, false), (4.15, true)] {
            let current = doc(&format!(
                r#"{{"all_identical": true, "min_permutation_gather_speedup": {speedup}}}"#
            ));
            let report = evaluate("mapgen_speed", &current, &committed, &checks);
            assert_eq!(report.passed(), expect, "{speedup}:\n{}", report.render());
        }
    }

    #[test]
    fn must_be_true_rejects_false_and_non_booleans() {
        let committed = doc(r#"{}"#);
        for (text, expect) in [
            (r#"{"ok": true}"#, true),
            (r#"{"ok": false}"#, false),
            (r#"{"ok": 1}"#, false),
            (r#"{}"#, false),
        ] {
            let report = evaluate(
                "b",
                &doc(text),
                &committed,
                &[Check::new("ok", CheckKind::MustBeTrue)],
            );
            assert_eq!(report.passed(), expect, "doc {text}");
        }
    }

    #[test]
    fn abs_floor_ignores_the_committed_value() {
        let report = evaluate(
            "b",
            &doc(r#"{"x": 1.5}"#),
            &doc(r#"{"x": 100.0}"#),
            &[Check::new("x", CheckKind::AbsFloor(1.0))],
        );
        assert!(report.passed());
    }

    #[test]
    fn missing_keys_fail_instead_of_skipping() {
        let report = evaluate(
            "b",
            &doc(r#"{}"#),
            &doc(r#"{"x": 1.0}"#),
            &[Check::new("x", CheckKind::MinRatio(0.5))],
        );
        assert!(!report.passed());
        assert!(report.results[0].detail.contains("missing key `x`"));
        let report = evaluate(
            "b",
            &doc(r#"{"x": 1.0}"#),
            &doc(r#"{}"#),
            &[Check::new("x", CheckKind::MinRatio(0.5))],
        );
        assert!(!report.passed());
        assert!(report.results[0].detail.starts_with("committed:"));
    }

    #[test]
    fn non_positive_baseline_fails_min_ratio() {
        let report = evaluate(
            "b",
            &doc(r#"{"x": 1.0}"#),
            &doc(r#"{"x": 0.0}"#),
            &[Check::new("x", CheckKind::MinRatio(0.5))],
        );
        assert!(!report.passed());
        assert!(report.results[0].detail.contains("not positive"));
    }

    #[test]
    fn same_as_committed_passes_only_on_equal_values_present_on_both_sides() {
        let check = [Check::new("seed", CheckKind::SameAsCommitted)];
        let committed = doc(r#"{"seed": 8, "strategy": "portfolio"}"#);
        let report = evaluate("b", &doc(r#"{"seed": 8}"#), &committed, &check);
        assert!(report.passed());
        assert_eq!(report.results[0].detail, "8");

        let report = evaluate("b", &doc(r#"{"seed": 9}"#), &committed, &check);
        assert!(!report.passed());
        assert_eq!(report.results[0].detail, "current 9, committed 8");
        // Same text, different JSON type: not the same setting.
        let report = evaluate("b", &doc(r#"{"seed": "8"}"#), &committed, &check);
        assert!(!report.passed());
        let strategy = [Check::new("strategy", CheckKind::SameAsCommitted)];
        let report = evaluate(
            "b",
            &doc(r#"{"strategy": "greedy"}"#),
            &committed,
            &strategy,
        );
        assert!(!report.passed());
        assert_eq!(
            report.results[0].detail,
            r#"current "greedy", committed "portfolio""#
        );

        let report = evaluate("b", &doc(r#"{}"#), &committed, &check);
        assert!(!report.passed());
        assert_eq!(report.results[0].detail, "current: missing key `seed`");
        let report = evaluate("b", &doc(r#"{"seed": 8}"#), &doc(r#"{}"#), &check);
        assert!(!report.passed());
        assert_eq!(report.results[0].detail, "committed: missing key `seed`");
    }

    #[test]
    fn render_emits_one_line_per_check_plus_verdict() {
        let report = evaluate(
            "engine_speed",
            &doc(r#"{"speedup": 8.0, "records_identical": true}"#),
            &doc(r#"{"speedup": 10.0}"#),
            &[
                Check::new("speedup", CheckKind::MinRatio(0.5)),
                Check::new("records_identical", CheckKind::MustBeTrue),
            ],
        );
        let text = report.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("PASS engine_speed/speedup"));
        assert!(lines[1].starts_with("PASS engine_speed/records_identical"));
        assert_eq!(lines[2], "PASS engine_speed");
        assert!(report.passed());
    }
}
