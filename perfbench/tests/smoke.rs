//! Smoke test of the benchmark itself: every workload at the tiny size,
//! untraced and traced, against the metric list in `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

use tbi_exp::json::{parse, JsonValue};

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(benchmark: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    benchmark
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {value:?}"))
}

/// One tiny run: returns its `detail` object and its result line.
fn run(workload: &str, trace: &str) -> (JsonValue, JsonValue) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace {trace}: {stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "detail and result lines expected: {stdout}"
    );
    let result = parse(lines[lines.len() - 1]).expect("result line is JSON");
    let detail = parse(lines[lines.len() - 2])
        .expect("detail line is JSON")
        .get("detail")
        .cloned()
        .expect("detail object");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{stderr}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
    (detail, result)
}

fn workloads() -> Vec<String> {
    entries(&benchmark(), "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let benchmark = benchmark();
    for workload in workloads() {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (_, result) = run(&workload, trace);
            let Some(JsonValue::Object(printed)) = result.get("metrics") else {
                panic!("{workload}: metrics object expected");
            };
            let declared = entries(&benchmark, section);
            assert_eq!(printed.len(), declared.len(), "{workload} {section}");
            for metric in declared {
                let name = text(metric, "name");
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{workload}: `{name}` not printed"));
                assert_eq!(
                    text(value, "unit"),
                    text(metric, "unit"),
                    "{workload} {name}"
                );
                let number = value.get("value").and_then(JsonValue::as_f64);
                assert!(number.is_some_and(f64::is_finite), "{workload} {name}");
                if section == "end_to_end" {
                    assert!(number > Some(0.0), "{workload}: `{name}` must never be 0");
                }
            }
        }
    }
}

#[test]
fn traced_spans_and_residual_add_up_to_the_traced_wall() {
    for workload in workloads() {
        let (detail, _) = run(&workload, "1");
        let wall = detail
            .get("traced_wall_s")
            .and_then(JsonValue::as_f64)
            .unwrap();
        let Some(JsonValue::Object(spans)) = detail.get("spans_s") else {
            panic!("{workload}: spans_s object expected");
        };
        let sum: f64 = spans.iter().filter_map(|(_, v)| v.as_f64()).sum();
        assert!(wall > 0.0, "{workload}");
        assert!(
            (sum - wall).abs() <= 1e-9 * wall.max(1.0),
            "{workload}: {sum} vs {wall}"
        );
        for (name, secs) in spans {
            if name != "residual" {
                assert!(
                    secs.as_f64() >= Some(0.0),
                    "{workload}: span {name} negative"
                );
            }
        }
    }
}

#[test]
fn traced_and_untraced_runs_give_identical_simulated_outputs() {
    for workload in workloads() {
        let (untraced, _) = run(&workload, "0");
        let (traced, _) = run(&workload, "1");
        assert_eq!(
            untraced.get("simulated"),
            traced.get("simulated"),
            "{workload}"
        );
        assert_eq!(
            untraced.get("counters_per_pass"),
            traced.get("counters_per_pass"),
            "{workload}"
        );
    }
}
