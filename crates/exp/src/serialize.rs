//! Hand-rolled JSON and CSV serialization for [`Record`]s.
//!
//! The build environment has no crates.io access, so rather than pulling in
//! `serde` the record schema is flat and small enough to serialize by hand.
//! The emitted JSON is an array of objects (one per record, one per line);
//! the CSV uses a fixed header with empty link columns when no channel/FEC
//! stage ran.  [`crate::json::parse`] can re-parse the emitted JSON, which
//! the test-suite and the CI smoke run use to validate the artifacts.

use std::path::Path;

use crate::record::Record;
use crate::search::SearchRecord;
use crate::ExpError;

/// Escapes a string for embedding in a JSON document (quotes included).
#[must_use]
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float as a JSON number (`null` for non-finite values).
#[must_use]
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `Display` for f64 prints the shortest representation that parses
        // back to the same value, which is exactly what JSON wants.
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn tenants_to_json(summary: &crate::record::TenantSummary) -> String {
    let per_tenant: Vec<String> = summary
        .per_tenant
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\":{},\"qos\":{},\"requests\":{},\"mean_latency_cycles\":{},\
                 \"latency_saturated\":{},\"p50_latency_cycles\":{},\"p99_latency_cycles\":{},\
                 \"deadline_misses\":{}}}",
                json_string(&t.tenant),
                json_string(&t.qos),
                t.requests,
                json_number(t.mean_latency_cycles),
                t.latency_saturated,
                t.p50_latency_cycles,
                t.p99_latency_cycles,
                t.deadline_misses,
            )
        })
        .collect();
    format!(
        "{{\"policy\":{},\"streams\":{},\"fairness_index\":{},\"worst_p50_cycles\":{},\
         \"worst_p99_cycles\":{},\"deadline_misses\":{},\"per_tenant\":[{}]}}",
        json_string(&summary.policy),
        summary.streams,
        json_number(summary.fairness_index),
        summary.worst_p50_cycles,
        summary.worst_p99_cycles,
        summary.deadline_misses,
        per_tenant.join(","),
    )
}

fn record_to_json(record: &Record) -> String {
    let link = match &record.link {
        None => "null".to_string(),
        Some(l) => format!(
            "{{\"frame_error_rate\":{},\"channel_symbol_error_rate\":{},\"residual_symbol_error_rate\":{},\
             \"post_fec_ber\":{},\"code_rate\":{},\"interleaver_depth\":{}}}",
            json_number(l.frame_error_rate),
            json_number(l.channel_symbol_error_rate),
            json_number(l.residual_symbol_error_rate),
            json_number(l.post_fec_ber),
            json_number(l.code_rate),
            l.interleaver_depth,
        ),
    };
    format!(
        "{{\"scenario_id\":{},\"dram\":{},\"mapping\":{},\"bursts\":{},\"dimension\":{},\
         \"refresh_disabled\":{},\"channels\":{},\"ranks\":{},\"threads\":{},\"write_utilization\":{},\
         \"read_utilization\":{},\"min_utilization\":{},\"sustained_gbps\":{},\
         \"aggregate_gbps\":{},\"channel_utilization_spread\":{},\"write_row_hit_rate\":{},\
         \"read_row_hit_rate\":{},\"activates\":{},\"energy_total_mj\":{},\
         \"energy_nj_per_byte\":{},\"simulated_cycles\":{},\"wall_time_s\":{},\
         \"sim_cycles_per_second\":{},\"link\":{},\"tenants\":{}}}",
        json_string(&record.scenario_id),
        json_string(&record.dram_label),
        json_string(&record.mapping),
        record.bursts,
        record.dimension,
        record.refresh_disabled,
        record.channels,
        record.ranks,
        record.threads,
        json_number(record.write_utilization),
        json_number(record.read_utilization),
        json_number(record.min_utilization),
        json_number(record.sustained_gbps),
        json_number(record.aggregate_gbps),
        json_number(record.channel_utilization_spread),
        json_number(record.write_row_hit_rate),
        json_number(record.read_row_hit_rate),
        record.activates,
        json_number(record.energy_total_mj),
        json_number(record.energy_nj_per_byte),
        record.simulated_cycles,
        json_number(record.wall_time_s),
        json_number(record.sim_cycles_per_second),
        link,
        match &record.tenants {
            None => "null".to_string(),
            Some(summary) => tenants_to_json(summary),
        },
    )
}

/// Serializes records as a JSON array (one object per line).
#[must_use]
pub fn records_to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, record) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&record_to_json(record));
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// The CSV header emitted by [`records_to_csv`] (34 columns).  The six link
/// columns are empty for records without a channel/FEC stage and the five
/// tenant columns for records without a multi-tenant stage; the per-tenant
/// breakdown is only available in the JSON form.
pub const CSV_HEADER: &str = "scenario_id,dram,mapping,bursts,dimension,refresh_disabled,\
channels,ranks,threads,write_utilization,read_utilization,min_utilization,sustained_gbps,\
aggregate_gbps,channel_utilization_spread,write_row_hit_rate,\
read_row_hit_rate,activates,energy_total_mj,energy_nj_per_byte,simulated_cycles,\
wall_time_s,sim_cycles_per_second,frame_error_rate,\
channel_symbol_error_rate,residual_symbol_error_rate,post_fec_ber,link_code_rate,\
link_interleaver_depth,tenant_policy,tenant_streams,\
tenant_fairness_index,tenant_worst_p50_cycles,tenant_worst_p99_cycles";

/// Quotes a CSV field if it contains a comma, quote or newline.
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Serializes records as CSV with a fixed header; the six link columns are
/// empty for records without a channel/FEC stage.
#[must_use]
pub fn records_to_csv(records: &[Record]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in records {
        let (fer, cser, rser, ber, rate, depth) = match &r.link {
            None => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            Some(l) => (
                json_number(l.frame_error_rate),
                json_number(l.channel_symbol_error_rate),
                json_number(l.residual_symbol_error_rate),
                json_number(l.post_fec_ber),
                json_number(l.code_rate),
                l.interleaver_depth.to_string(),
            ),
        };
        let (policy, streams, fairness, p50, p99) = match &r.tenants {
            None => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            Some(t) => (
                t.policy.clone(),
                t.streams.to_string(),
                json_number(t.fairness_index),
                t.worst_p50_cycles.to_string(),
                t.worst_p99_cycles.to_string(),
            ),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            csv_field(&r.scenario_id),
            csv_field(&r.dram_label),
            csv_field(&r.mapping),
            r.bursts,
            r.dimension,
            r.refresh_disabled,
            r.channels,
            r.ranks,
            r.threads,
            json_number(r.write_utilization),
            json_number(r.read_utilization),
            json_number(r.min_utilization),
            json_number(r.sustained_gbps),
            json_number(r.aggregate_gbps),
            json_number(r.channel_utilization_spread),
            json_number(r.write_row_hit_rate),
            json_number(r.read_row_hit_rate),
            r.activates,
            json_number(r.energy_total_mj),
            json_number(r.energy_nj_per_byte),
            r.simulated_cycles,
            json_number(r.wall_time_s),
            json_number(r.sim_cycles_per_second),
            fer,
            cser,
            rser,
            ber,
            rate,
            depth,
            csv_field(&policy),
            streams,
            fairness,
            p50,
            p99,
        ));
    }
    out
}

/// Serializes one [`SearchRecord`] as a JSON object; the three embedded
/// records use the regular [`Record`] schema.
fn search_record_to_json(record: &SearchRecord) -> String {
    format!(
        "{{\"dram\":{},\"seed\":{},\"restarts\":{},\"budget\":{},\"evaluations\":{},\
         \"surrogate_evaluations\":{},\"accepted_moves\":{},\"bursts\":{},\"permutation\":{},\
         \"fold\":{},\"discovered_row_hit_rate\":{},\"optimized_row_hit_rate\":{},\
         \"matches_or_beats_optimized\":{},\"beats_optimized\":{},\"row_hit_gain\":{},\
         \"utilization_gain\":{},\"best\":{},\"row_major\":{},\"optimized\":{}}}",
        json_string(&record.dram_label),
        record.seed,
        record.restarts,
        record.budget,
        record.evaluations,
        record.surrogate_evaluations,
        record.accepted_moves,
        record.bursts,
        json_string(&record.permutation),
        json_string(&record.fold),
        json_number(record.discovered_row_hit_rate()),
        json_number(record.optimized_row_hit_rate()),
        record.matches_or_beats_optimized(),
        record.beats_optimized(),
        json_number(record.row_hit_gain()),
        json_number(record.utilization_gain()),
        record_to_json(&record.best),
        record_to_json(&record.row_major),
        record_to_json(&record.optimized),
    )
}

/// Serializes search records as a JSON array (one object per line), the
/// search-layer counterpart of [`records_to_json`].
#[must_use]
pub fn search_records_to_json(records: &[SearchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, record) in records.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&search_record_to_json(record));
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// The CSV header emitted by [`search_records_to_csv`] (18 columns).
pub const SEARCH_CSV_HEADER: &str = "dram,seed,restarts,budget,evaluations,\
surrogate_evaluations,accepted_moves,bursts,permutation,fold,discovered_row_hit_rate,\
optimized_row_hit_rate,row_major_row_hit_rate,discovered_min_utilization,\
optimized_min_utilization,row_hit_gain,utilization_gain,beats_optimized";

/// Serializes search records as flat CSV (summary metrics only; use the
/// JSON form for the full embedded records).
#[must_use]
pub fn search_records_to_csv(records: &[SearchRecord]) -> String {
    let mut out = String::from(SEARCH_CSV_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            csv_field(&r.dram_label),
            r.seed,
            r.restarts,
            r.budget,
            r.evaluations,
            r.surrogate_evaluations,
            r.accepted_moves,
            r.bursts,
            csv_field(&r.permutation),
            csv_field(&r.fold),
            json_number(r.discovered_row_hit_rate()),
            json_number(r.optimized_row_hit_rate()),
            json_number(crate::search::round_trip_row_hit_rate(&r.row_major)),
            json_number(r.best.min_utilization),
            json_number(r.optimized.min_utilization),
            json_number(r.row_hit_gain()),
            json_number(r.utilization_gain()),
            r.beats_optimized(),
        ));
    }
    out
}

/// Writes the CSV serialization of `records` to `path`.
///
/// # Errors
///
/// Returns [`ExpError::Io`] if the file cannot be written.
pub fn write_search_csv(path: &Path, records: &[SearchRecord]) -> Result<(), ExpError> {
    write_artifact(path, &search_records_to_csv(records))
}

fn write_artifact(path: &Path, contents: &str) -> Result<(), ExpError> {
    std::fs::write(path, contents).map_err(|e| ExpError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Writes the JSON serialization of `records` to `path`.
///
/// # Errors
///
/// Returns [`ExpError::Io`] if the file cannot be written.
pub fn write_json(path: &Path, records: &[Record]) -> Result<(), ExpError> {
    write_artifact(path, &records_to_json(records))
}

/// Writes the CSV serialization of `records` to `path`.
///
/// # Errors
///
/// Returns [`ExpError::Io`] if the file cannot be written.
pub fn write_csv(path: &Path, records: &[Record]) -> Result<(), ExpError> {
    write_artifact(path, &records_to_csv(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::record::LinkRecord;

    fn sample(id: &str, link: bool) -> Record {
        Record {
            scenario_id: id.to_string(),
            dram_label: "LPDDR4-4266".to_string(),
            mapping: "row-major".to_string(),
            bursts: 20_000,
            dimension: 200,
            refresh_disabled: false,
            channels: 2,
            ranks: 1,
            aggregate_gbps: 97.64,
            channel_utilization_spread: 0.0125,
            write_utilization: 0.9871,
            read_utilization: 0.3577,
            min_utilization: 0.3577,
            sustained_gbps: 48.82,
            write_row_hit_rate: 0.99,
            read_row_hit_rate: 0.01,
            activates: 40_000,
            energy_total_mj: 3.25,
            energy_nj_per_byte: 1.27,
            simulated_cycles: 123_456,
            threads: 1,
            wall_time_s: 0.5,
            sim_cycles_per_second: 246_912.0,
            link: link.then_some(LinkRecord {
                frame_error_rate: 0.015625,
                channel_symbol_error_rate: 0.05,
                residual_symbol_error_rate: 0.001,
                post_fec_ber: 0.000125,
                code_rate: 223.0 / 255.0,
                interleaver_depth: 64,
            }),
            tenants: None,
        }
    }

    fn tenant_summary() -> crate::record::TenantSummary {
        crate::record::TenantSummary {
            policy: "weighted_share".to_string(),
            streams: 2,
            fairness_index: 0.875,
            worst_p50_cycles: 4_000,
            worst_p99_cycles: 12_000,
            deadline_misses: 3,
            per_tenant: vec![
                crate::record::TenantLatency {
                    tenant: "tenant-0000".to_string(),
                    qos: "premium".to_string(),
                    requests: 1_000,
                    mean_latency_cycles: 1_234.5,
                    latency_saturated: false,
                    p50_latency_cycles: 1_000,
                    p99_latency_cycles: 4_000,
                    deadline_misses: 0,
                },
                crate::record::TenantLatency {
                    tenant: "tenant-0001".to_string(),
                    qos: "best_effort".to_string(),
                    requests: 1_000,
                    mean_latency_cycles: 6_789.0,
                    latency_saturated: false,
                    p50_latency_cycles: 8_000,
                    p99_latency_cycles: 12_000,
                    deadline_misses: 3,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let records = vec![sample("a", false), sample("b \"quoted\"", true)];
        let text = records_to_json(&records);
        let value = parse(&text).expect("emitted JSON parses");
        let array = value.as_array().expect("top level is an array");
        assert_eq!(array.len(), 2);
        let first = &array[0];
        assert_eq!(
            first.get("scenario_id").and_then(JsonValue::as_str),
            Some("a")
        );
        assert_eq!(
            first.get("read_utilization").and_then(JsonValue::as_f64),
            Some(0.3577)
        );
        assert!(matches!(first.get("link"), Some(JsonValue::Null)));
        let second = &array[1];
        assert_eq!(
            second.get("scenario_id").and_then(JsonValue::as_str),
            Some("b \"quoted\"")
        );
        let link = second.get("link").expect("link object");
        assert_eq!(
            link.get("frame_error_rate").and_then(JsonValue::as_f64),
            Some(0.015625)
        );
        assert_eq!(
            link.get("post_fec_ber").and_then(JsonValue::as_f64),
            Some(0.000125)
        );
        assert_eq!(
            link.get("code_rate").and_then(JsonValue::as_f64),
            Some(223.0 / 255.0)
        );
        assert_eq!(
            link.get("interleaver_depth").and_then(JsonValue::as_f64),
            Some(64.0)
        );
    }

    #[test]
    fn json_handles_non_finite_floats() {
        let mut record = sample("nan", false);
        record.sustained_gbps = f64::NAN;
        let text = records_to_json(&[record]);
        let value = parse(&text).expect("NaN serialized as null still parses");
        let first = &value.as_array().unwrap()[0];
        assert!(matches!(first.get("sustained_gbps"), Some(JsonValue::Null)));
    }

    #[test]
    fn timing_fields_serialize_non_finite_values_as_null() {
        // A zero-duration measurement window yields infinite cycles/second
        // (and a failed clock read can yield NaN wall time); both must emit
        // valid JSON `null`, not bare `inf`/`NaN` tokens the parser rejects.
        let mut record = sample("degenerate-timing", false);
        record.wall_time_s = f64::NAN;
        record.sim_cycles_per_second = f64::INFINITY;
        let text = records_to_json(&[record]);
        let value = parse(&text).expect("non-finite timing fields still parse");
        let first = &value.as_array().unwrap()[0];
        assert!(matches!(first.get("wall_time_s"), Some(JsonValue::Null)));
        assert!(matches!(
            first.get("sim_cycles_per_second"),
            Some(JsonValue::Null)
        ));
        // The finite fields of the same record are unaffected.
        assert_eq!(
            first.get("sustained_gbps").and_then(JsonValue::as_f64),
            Some(48.82)
        );
    }

    #[test]
    fn csv_has_header_and_one_line_per_record() {
        let records = vec![sample("a", false), sample("b", true)];
        let text = records_to_csv(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines[0].split(',').count(), 34);
        assert_eq!(lines[1].split(',').count(), 34);
        assert!(
            lines[1].ends_with(",,,,,,,,,,,"),
            "link and tenant columns empty: {}",
            lines[1]
        );
        assert!(lines[2].contains("0.015625"));
        assert!(lines[2].contains("0.000125"));
    }

    #[test]
    fn tenant_summary_round_trips_through_json_and_csv() {
        let mut record = sample("tenants", false);
        record.tenants = Some(tenant_summary());
        let text = records_to_json(&[record.clone()]);
        let value = parse(&text).expect("tenant JSON parses");
        let first = &value.as_array().unwrap()[0];
        let tenants = first.get("tenants").expect("tenants object");
        assert_eq!(
            tenants.get("policy").and_then(JsonValue::as_str),
            Some("weighted_share")
        );
        assert_eq!(
            tenants.get("fairness_index").and_then(JsonValue::as_f64),
            Some(0.875)
        );
        assert_eq!(
            tenants.get("worst_p99_cycles").and_then(JsonValue::as_f64),
            Some(12_000.0)
        );
        let per_tenant = tenants
            .get("per_tenant")
            .and_then(JsonValue::as_array)
            .expect("per-tenant array");
        assert_eq!(per_tenant.len(), 2);
        assert_eq!(
            per_tenant[1].get("qos").and_then(JsonValue::as_str),
            Some("best_effort")
        );
        assert_eq!(
            per_tenant[1]
                .get("p99_latency_cycles")
                .and_then(JsonValue::as_f64),
            Some(12_000.0)
        );
        // A record without tenants still serializes the field as null.
        let plain = records_to_json(&[sample("plain", false)]);
        let value = parse(&plain).unwrap();
        assert!(matches!(
            value.as_array().unwrap()[0].get("tenants"),
            Some(JsonValue::Null)
        ));
        // CSV carries the five summary columns.
        let csv = records_to_csv(&[record]);
        let line = csv.lines().nth(1).unwrap();
        assert_eq!(line.split(',').count(), 34);
        assert!(
            line.ends_with("weighted_share,2,0.875,4000,12000"),
            "{line}"
        );
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let mut record = sample("id,with,commas", false);
        record.mapping = "has \"quotes\"".to_string();
        let text = records_to_csv(&[record]);
        assert!(text.contains("\"id,with,commas\""));
        assert!(text.contains("\"has \"\"quotes\"\"\""));
    }

    #[test]
    fn files_are_written_and_readable() {
        let dir = std::env::temp_dir().join("tbi_exp_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("records.json");
        let csv_path = dir.join("records.csv");
        let records = vec![sample("file", true)];
        write_json(&json_path, &records).unwrap();
        write_csv(&csv_path, &records).unwrap();
        let json_text = std::fs::read_to_string(&json_path).unwrap();
        assert!(parse(&json_text).is_ok());
        let csv_text = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv_text.starts_with("scenario_id,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_path_reports_io_error() {
        let path = Path::new("/nonexistent-dir-tbi/records.json");
        let err = write_json(path, &[]).unwrap_err();
        assert!(matches!(err, ExpError::Io { .. }));
    }
}
