//! Performance-trajectory gate: compares a fresh benchmark artifact against
//! the committed `BENCH_*.json` baseline, field for field
//! ([`same_as_committed`]) where the fresh run repeats the committed
//! workload and with per-metric tolerances elsewhere.
//!
//! The fresh artifact comes from the same sweep binary; [`checks_for`]
//! names the checks of each `bench` tag and [`evaluate`] judges them, so
//! the `perf_gate` binary only reads the two files and prints the
//! [`GateReport`].  CI fails on any `FAIL` line.  The pass/fail logic lives
//! here — in the library, not the binary — so the regression and
//! tolerance-boundary fixtures can pin it byte-for-byte (see
//! `tests/perf_gate_golden.rs`).

use tbi_exp::json::JsonValue;
use tbi_exp::serialize::{json_number, json_string};

/// Keys whose values measure the host: [`same_as_committed`] only checks
/// that each is a finite number > 0 in the fresh artifact.
pub const WALL_CLOCK_FIELDS: [&str; 6] = [
    "wall_time_s",
    "sim_cycles_per_second",
    "scalar_addresses_per_s",
    "batch_addresses_per_s",
    "speedup",
    "min_permutation_gather_speedup",
];

/// The `metric` of a [`CheckKind::SameAsCommitted`] check that compares the
/// whole artifact rather than one top-level key.
pub const WHOLE_ARTIFACT: &str = "*";

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
    /// The current value must equal the committed one as
    /// [`same_as_committed`] compares them: a setting or size-independent
    /// result, or the [`WHOLE_ARTIFACT`] of a committed-size run.
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
    /// Top-level key of the artifact object holding the metric, or
    /// [`WHOLE_ARTIFACT`].
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
/// CI runs `channel_sweep`, `mapgen_speed` and `tenant_sweep` at the
/// committed size, so their whole artifact must reproduce.  At smoke scale,
/// settings and size-independent results must reproduce, identity flags
/// hold, ratios may lose a bounded fraction and host speeds get floors.
#[must_use]
pub fn checks_for(bench: &str) -> Option<Vec<Check>> {
    use CheckKind::{AbsFloor, MinRatio, MustBeTrue, SameAsCommitted};
    let table: &[(&str, CheckKind)] = match bench {
        // The committed full-size speedup is 13.5x.
        "engine_speed" => &[
            ("records_identical", MustBeTrue),
            ("speedup", AbsFloor(4.0)),
        ],
        "channel_sweep" | "tenant_sweep" => &[(WHOLE_ARTIFACT, SameAsCommitted)],
        // The committed permutations are tuned to the full-size triangle, so
        // the fresh run repeats the *search* with the committed settings and
        // must still rediscover mappings near the optimized row-hit rate.
        "mapping_search" => &[
            ("seed", SameAsCommitted),
            ("restarts", SameAsCommitted),
            ("budget", SameAsCommitted),
            ("neighbors", SameAsCommitted),
            ("refresh_disabled", SameAsCommitted),
            ("min_row_hit_gain", MinRatio(0.95)),
        ],
        // The committed gather minimum is 4.50x and fresh runs on a 2-vCPU
        // host read 4.15 or more, so 0.6 x committed (2.70) fails a gather
        // kernel at half speed.
        "mapgen_speed" => &[
            ("all_identical", MustBeTrue),
            ("min_permutation_gather_speedup", MinRatio(0.6)),
            (WHOLE_ARTIFACT, SameAsCommitted),
        ],
        // The link seeds do not depend on the burst count, so with the
        // committed seed and trials the waterfall reproduces exactly.  The
        // mapping shift grows with the burst count, hence a floor rather
        // than a ratio against the full-size value.
        "campaign_sweep" => &[
            ("seed", SameAsCommitted),
            ("trials", SameAsCommitted),
            ("depths", SameAsCommitted),
            ("code_rates", SameAsCommitted),
            ("scenarios", SameAsCommitted),
            ("ber_curves", SameAsCommitted),
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

/// Renders a JSON value for a report line.
fn show(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => json_number(*n),
        JsonValue::String(s) => json_string(s),
        JsonValue::Array(items) => format!("an array of {}", items.len()),
        JsonValue::Object(_) => "an object".to_string(),
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

/// The first difference at or below JSON path `path`, as `(path, detail)`.
fn difference(
    path: &str,
    current: &JsonValue,
    committed: &JsonValue,
    skipped: &mut usize,
) -> Option<(String, String)> {
    let here = |detail: String| Some((path.to_string(), detail));
    match (current, committed) {
        (JsonValue::Object(fresh), JsonValue::Object(base)) => {
            let has =
                |entries: &[(String, JsonValue)], key: &str| entries.iter().any(|(k, _)| k == key);
            if let Some((key, _)) = base.iter().find(|(key, _)| !has(fresh, key)) {
                return here(format!("current: missing key `{key}`"));
            }
            if let Some((key, _)) = fresh.iter().find(|(key, _)| !has(base, key)) {
                return here(format!("committed: missing key `{key}`"));
            }
            if fresh.len() != base.len() {
                return here(format!(
                    "current {} keys, committed {}",
                    fresh.len(),
                    base.len()
                ));
            }
            fresh
                .iter()
                .zip(base)
                .find_map(|((key, value), (base_key, baseline))| {
                    let path = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    match value {
                        _ if key != base_key => here(format!(
                            "key order: current `{key}` where committed has `{base_key}`"
                        )),
                        _ if !WALL_CLOCK_FIELDS.contains(&key.as_str()) => {
                            difference(&path, value, baseline, skipped)
                        }
                        JsonValue::Number(n) if n.is_finite() && *n > 0.0 => {
                            *skipped += 1;
                            None
                        }
                        _ => Some((
                            path,
                            format!(
                                "current {}, but a wall-clock field must be a finite number > 0",
                                show(value)
                            ),
                        )),
                    }
                })
        }
        (JsonValue::Array(fresh), JsonValue::Array(base)) if fresh.len() != base.len() => here(
            format!("current {} elements, committed {}", fresh.len(), base.len()),
        ),
        (JsonValue::Array(fresh), JsonValue::Array(base)) => fresh
            .iter()
            .zip(base)
            .enumerate()
            .find_map(|(index, (value, baseline))| {
                difference(&format!("{path}[{index}]"), value, baseline, skipped)
            }),
        _ if current == committed => None,
        _ => here(format!(
            "current {}, committed {}",
            show(current),
            show(committed)
        )),
    }
}

/// Compares top-level key `metric` (or the [`WHOLE_ARTIFACT`]) of two
/// documents: recursive equality, key order included, except the
/// [`WALL_CLOCK_FIELDS`].  `f64` equality is exact here, as no committed
/// integer reaches 2⁵³.  Recursion is as deep as the nesting, which
/// [`tbi_exp::json::parse`] caps at [`tbi_exp::json::MAX_DEPTH`].  Returns
/// the number of wall-clock values skipped.
///
/// # Errors
///
/// The first difference in document order after its JSON path (none for
/// `metric` itself), e.g. `records[3].tenants.per_tenant[1].p99_latency_cycles:
/// current 41, committed 40`.
pub fn same_as_committed(
    metric: &str,
    current: &JsonValue,
    committed: &JsonValue,
) -> Result<usize, String> {
    let mut skipped = 0;
    let found = if metric == WHOLE_ARTIFACT {
        difference("", current, committed, &mut skipped)
    } else {
        match (current.get(metric), committed.get(metric)) {
            (Some(value), Some(baseline)) => difference(metric, value, baseline, &mut skipped),
            (None, _) => Some((String::new(), format!("current: missing key `{metric}`"))),
            (_, None) => Some((String::new(), format!("committed: missing key `{metric}`"))),
        }
    };
    match found {
        None => Ok(skipped),
        Some((path, detail)) if path.is_empty() || path == metric => Err(detail),
        Some((path, detail)) => Err(format!("{path}: {detail}")),
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
            let metric = &check.metric;
            let (passed, detail) = match check.kind {
                CheckKind::MustBeTrue => match current.get(metric) {
                    Some(JsonValue::Bool(true)) => (true, "true".to_string()),
                    Some(JsonValue::Bool(false)) => (false, "false".to_string()),
                    Some(_) => (false, format!("`{metric}` is not a boolean")),
                    None => (false, format!("missing key `{metric}`")),
                },
                CheckKind::AbsFloor(floor) => match number(current, metric) {
                    Ok(value) => (value >= floor, format!("current {value}, floor {floor}")),
                    Err(message) => (false, message),
                },
                CheckKind::SameAsCommitted => {
                    match (
                        same_as_committed(metric, current, committed),
                        current.get(metric),
                    ) {
                        (Err(detail), _) => (false, detail),
                        (Ok(_), Some(value))
                            if !matches!(value, JsonValue::Array(_) | JsonValue::Object(_)) =>
                        {
                            (true, show(value))
                        }
                        (Ok(skipped), _) => {
                            (true, format!("equal; {skipped} wall-clock values skipped"))
                        }
                    }
                }
                CheckKind::MinRatio(tolerance) => {
                    match (number(current, metric), number(committed, metric)) {
                        (Err(message), _) => (false, format!("current: {message}")),
                        (_, Err(message)) => (false, format!("committed: {message}")),
                        (Ok(_), Ok(baseline)) if baseline <= 0.0 => (
                            false,
                            format!("committed baseline {baseline} is not positive"),
                        ),
                        (Ok(value), Ok(baseline)) => (
                            value >= baseline * tolerance,
                            format!(
                                "current {value}, committed {baseline}, required {}",
                                baseline * tolerance
                            ),
                        ),
                    }
                }
            };
            CheckResult {
                metric: metric.clone(),
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
        // half the committed speed.  Every other field is the committed
        // one, so only the ratio check can fail.
        for (speedup, expect) in [(2.25, false), (4.15, true)] {
            let JsonValue::Object(mut fields) = committed.clone() else {
                panic!("the artifact is an object");
            };
            for (key, value) in &mut fields {
                if key == "min_permutation_gather_speedup" {
                    *value = JsonValue::Number(speedup);
                }
            }
            let current = JsonValue::Object(fields);
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
        let committed = doc(r#"{"seed": 8, "weather": "clear"}"#);
        let report = evaluate("b", &doc(r#"{"seed": 8}"#), &committed, &check);
        assert!(report.passed());
        assert_eq!(report.results[0].detail, "8");

        let report = evaluate("b", &doc(r#"{"seed": 9}"#), &committed, &check);
        assert!(!report.passed());
        assert_eq!(report.results[0].detail, "current 9, committed 8");
        // Same text, different JSON type: not the same setting.
        let report = evaluate("b", &doc(r#"{"seed": "8"}"#), &committed, &check);
        assert!(!report.passed());
        let weather = [Check::new("weather", CheckKind::SameAsCommitted)];
        let report = evaluate("b", &doc(r#"{"weather": "rain"}"#), &committed, &weather);
        assert!(!report.passed());
        assert_eq!(
            report.results[0].detail,
            r#"current "rain", committed "clear""#
        );

        let report = evaluate("b", &doc(r#"{}"#), &committed, &check);
        assert!(!report.passed());
        assert_eq!(report.results[0].detail, "current: missing key `seed`");
        let report = evaluate("b", &doc(r#"{"seed": 8}"#), &doc(r#"{}"#), &check);
        assert!(!report.passed());
        assert_eq!(report.results[0].detail, "committed: missing key `seed`");
    }

    /// A committed tenant-sweep-shaped document: four records, each with
    /// wall-clock fields and a nested per-tenant list.
    const RECORDS: &str = r#"{"bench": "tenant_sweep", "bursts": 4096, "records": [
        {"scenario_id": "a", "wall_time_s": 0.5, "tenants": {"per_tenant": [
            {"tenant": "t0", "p99_latency_cycles": 40}, {"tenant": "t1", "p99_latency_cycles": 40}]}},
        {"scenario_id": "b", "wall_time_s": 0.5, "tenants": null},
        {"scenario_id": "c", "wall_time_s": 0.5, "tenants": null},
        {"scenario_id": "d", "wall_time_s": 0.5, "sim_cycles_per_second": 2e8, "tenants": {"per_tenant": [
            {"tenant": "t0", "p99_latency_cycles": 40}, {"tenant": "t1", "p99_latency_cycles": 40}]}}]}"#;

    /// `RECORDS` with the first match of `old` at or after byte `from`
    /// replaced by `new`.
    fn edited(from: usize, old: &str, new: &str) -> JsonValue {
        let at = from + RECORDS[from..].find(old).expect("edit target exists");
        doc(&format!(
            "{}{new}{}",
            &RECORDS[..at],
            &RECORDS[at + old.len()..]
        ))
    }

    /// The whole-artifact verdict of `current` against `RECORDS`.
    fn whole(current: &JsonValue) -> (bool, String) {
        let report = evaluate(
            "tenant_sweep",
            current,
            &doc(RECORDS),
            &[Check::new(WHOLE_ARTIFACT, CheckKind::SameAsCommitted)],
        );
        (report.passed(), report.results[0].detail.clone())
    }

    #[test]
    fn whole_artifact_comparison_names_a_nested_difference_by_its_path() {
        assert_eq!(
            whole(&doc(RECORDS)),
            (true, "equal; 5 wall-clock values skipped".to_string())
        );
        let last = RECORDS.find(r#""scenario_id": "d""#).unwrap();
        let current = edited(
            last,
            r#""tenant": "t1", "p99_latency_cycles": 40"#,
            r#""tenant": "t1", "p99_latency_cycles": 41"#,
        );
        assert_eq!(
            whole(&current),
            (
                false,
                "records[3].tenants.per_tenant[1].p99_latency_cycles: current 41, committed 40"
                    .to_string()
            )
        );
        assert_eq!(
            same_as_committed(WHOLE_ARTIFACT, &current, &doc(RECORDS)).unwrap_err(),
            whole(&current).1
        );
        // A null against an object is a difference too.
        let current = edited(
            0,
            r#""b", "wall_time_s": 0.5, "tenants": null"#,
            r#""b", "wall_time_s": 0.5, "tenants": {}"#,
        );
        assert_eq!(
            whole(&current).1,
            "records[1].tenants: current an object, committed null"
        );
    }

    #[test]
    fn whole_artifact_comparison_fails_an_array_length_mismatch() {
        let current = edited(0, r#"{"tenant": "t0", "p99_latency_cycles": 40}, "#, "");
        assert_eq!(
            whole(&current),
            (
                false,
                "records[0].tenants.per_tenant: current 1 elements, committed 2".to_string()
            )
        );
    }

    #[test]
    fn whole_artifact_comparison_fails_a_key_missing_on_either_side() {
        let current = edited(0, r#""bursts": 4096, "#, "");
        assert_eq!(
            whole(&current),
            (false, "current: missing key `bursts`".to_string())
        );
        let current = edited(
            0,
            r#""scenario_id": "c", "#,
            r#""scenario_id": "c", "threads": 1, "#,
        );
        assert_eq!(
            whole(&current),
            (
                false,
                "records[2]: committed: missing key `threads`".to_string()
            )
        );
        // A wall-clock field is skipped, not optional.
        let current = edited(0, r#", "sim_cycles_per_second": 2e8"#, "");
        assert_eq!(
            whole(&current),
            (
                false,
                "records[3]: current: missing key `sim_cycles_per_second`".to_string()
            )
        );
    }

    #[test]
    fn whole_artifact_comparison_fails_a_key_order_change() {
        let current = edited(
            0,
            r#""bench": "tenant_sweep", "bursts": 4096"#,
            r#""bursts": 4096, "bench": "tenant_sweep""#,
        );
        assert_eq!(
            whole(&current),
            (
                false,
                "key order: current `bursts` where committed has `bench`".to_string()
            )
        );
    }

    #[test]
    fn differing_wall_clock_fields_pass() {
        let current = edited(
            0,
            r#""a", "wall_time_s": 0.5"#,
            r#""a", "wall_time_s": 7.25"#,
        );
        assert!(whole(&current).0);
        let current = edited(0, "2e8", "1e-9");
        assert_eq!(
            same_as_committed(WHOLE_ARTIFACT, &current, &doc(RECORDS)),
            Ok(5),
            "every wall-clock value counts as skipped"
        );
    }

    #[test]
    fn a_wall_clock_field_must_be_a_positive_finite_number_in_the_fresh_artifact() {
        for (value, shown) in [
            ("0", "0"),
            ("-0.5", "-0.5"),
            ("null", "null"),
            (r#""0.5""#, r#""0.5""#),
        ] {
            let current = edited(
                0,
                r#""c", "wall_time_s": 0.5"#,
                &format!(r#""c", "wall_time_s": {value}"#),
            );
            assert_eq!(
                whole(&current),
                (
                    false,
                    format!(
                        "records[2].wall_time_s: current {shown}, but a wall-clock field \
                         must be a finite number > 0"
                    )
                ),
                "{value}"
            );
        }
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
