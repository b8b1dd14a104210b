//! Hand-rolled JSON serialization for [`Record`]s and [`SearchRecord`]s.
//!
//! The build environment has no crates.io access, so rather than pulling in
//! `serde` the record schema is flat and small enough to serialize by hand.
//! The emitted JSON is an array of objects (one per record, one per line),
//! with `null` for the link and tenant objects of records that ran no
//! channel/FEC or multi-tenant stage.  [`crate::json::parse`] can re-parse
//! the emitted JSON, which the test-suite and the CI smoke run use to
//! validate the artifacts.

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

/// Serializes `items` as a JSON array with one object per line.
fn json_array<T>(items: &[T], object: impl Fn(&T) -> String) -> String {
    let mut out = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&object(item));
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Serializes records as a JSON array (one object per line).
#[must_use]
pub fn records_to_json(records: &[Record]) -> String {
    json_array(records, record_to_json)
}

/// Serializes one [`SearchRecord`] as a JSON object; the three embedded
/// records use the regular [`Record`] schema.
fn search_record_to_json(record: &SearchRecord) -> String {
    format!(
        "{{\"dram\":{},\"seed\":{},\"restarts\":{},\"budget\":{},\"evaluations\":{},\
         \"accepted_moves\":{},\"bursts\":{},\"permutation\":{},\
         \"fold\":{},\"discovered_row_hit_rate\":{},\"optimized_row_hit_rate\":{},\
         \"matches_or_beats_optimized\":{},\"beats_optimized\":{},\"row_hit_gain\":{},\
         \"utilization_gain\":{},\"best\":{},\"row_major\":{},\"optimized\":{}}}",
        json_string(&record.dram_label),
        record.seed,
        record.restarts,
        record.budget,
        record.evaluations,
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
    json_array(records, search_record_to_json)
}

/// Writes the JSON serialization of `records` to `path`.
///
/// # Errors
///
/// Returns [`ExpError::Io`] if the file cannot be written.
pub fn write_json(path: &Path, records: &[Record]) -> Result<(), ExpError> {
    std::fs::write(path, records_to_json(records)).map_err(|e| ExpError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
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
    fn tenant_summary_round_trips_through_json() {
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
    }

    #[test]
    fn files_are_written_and_readable() {
        let dir = std::env::temp_dir().join("tbi_exp_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("records.json");
        let records = vec![sample("file", true)];
        write_json(&json_path, &records).unwrap();
        let json_text = std::fs::read_to_string(&json_path).unwrap();
        assert!(parse(&json_text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_path_reports_io_error() {
        let path = Path::new("/nonexistent-dir-tbi/records.json");
        let err = write_json(path, &[]).unwrap_err();
        assert!(matches!(err, ExpError::Io { .. }));
    }
}
