//! Golden snapshot tests for the `tbi_exp` JSON record serializer.
//!
//! The serialized byte stream of a fixed record set is committed under
//! `tests/fixtures/`; any schema change — a new key, a reordering, a
//! float-formatting change — fails these tests and forces the fixture (and
//! therefore the change) to be a conscious choice.  The fixture must
//! additionally round-trip through the crate's own validating parser.
//!
//! Regenerating the fixture after an intentional schema change:
//!
//! ```text
//! TBI_BLESS_GOLDEN=1 cargo test -p tbi_exp --test serialize_golden
//! ```

use tbi_exp::json::{parse, JsonValue};
use tbi_exp::serialize::records_to_json;
use tbi_exp::{LinkRecord, Record, TenantLatency, TenantSummary};

const JSON_FIXTURE: &str = include_str!("fixtures/records_golden.json");

/// A fixed, fully populated record set: a legacy single-channel record
/// without a link stage, a multi-channel/multi-rank record with a tenant
/// summary, and a record with a link stage plus characters that exercise
/// JSON escaping.
fn golden_records() -> Vec<Record> {
    vec![
        Record {
            scenario_id: "DDR4-3200/b20000/optimized/refresh=default".to_string(),
            dram_label: "DDR4-3200".to_string(),
            mapping: "optimized".to_string(),
            bursts: 20_000,
            dimension: 200,
            refresh_disabled: false,
            channels: 1,
            ranks: 1,
            write_utilization: 0.9719,
            read_utilization: 0.9561,
            min_utilization: 0.9561,
            sustained_gbps: 195.80928,
            aggregate_gbps: 195.80928,
            channel_utilization_spread: 0.0,
            write_row_hit_rate: 0.96875,
            read_row_hit_rate: 0.9375,
            activates: 1_250,
            energy_total_mj: 3.375,
            energy_nj_per_byte: 1.3125,
            simulated_cycles: 165_432,
            threads: 1,
            wall_time_s: 0.5,
            sim_cycles_per_second: 330_864.0,
            link: None,
            tenants: None,
        },
        Record {
            scenario_id: "LPDDR4-4266/b20000/optimized/refresh=off/c4r2".to_string(),
            dram_label: "LPDDR4-4266".to_string(),
            mapping: "optimized".to_string(),
            bursts: 20_000,
            dimension: 200,
            refresh_disabled: true,
            channels: 4,
            ranks: 2,
            write_utilization: 0.90625,
            read_utilization: 0.875,
            min_utilization: 0.875,
            sustained_gbps: 119.496,
            aggregate_gbps: 477.984,
            channel_utilization_spread: 0.03125,
            write_row_hit_rate: 0.9921875,
            read_row_hit_rate: 0.984375,
            activates: 5_000,
            energy_total_mj: 2.625,
            energy_nj_per_byte: 1.025390625,
            simulated_cycles: 700_416,
            threads: 1,
            wall_time_s: 0.25,
            sim_cycles_per_second: 2_801_664.0,
            link: None,
            tenants: Some(TenantSummary {
                policy: "weighted_share".to_string(),
                streams: 2,
                fairness_index: 0.8125,
                worst_p50_cycles: 2_047,
                worst_p99_cycles: 16_383,
                deadline_misses: 1,
                per_tenant: vec![
                    TenantLatency {
                        tenant: "tenant-0000".to_string(),
                        qos: "premium".to_string(),
                        requests: 20_100,
                        mean_latency_cycles: 768.5,
                        latency_saturated: false,
                        p50_latency_cycles: 511,
                        p99_latency_cycles: 2_047,
                        deadline_misses: 0,
                    },
                    TenantLatency {
                        tenant: "tenant-0001".to_string(),
                        qos: "standard".to_string(),
                        requests: 20_100,
                        mean_latency_cycles: 3_072.25,
                        latency_saturated: true,
                        p50_latency_cycles: 2_047,
                        p99_latency_cycles: 16_383,
                        deadline_misses: 1,
                    },
                ],
            }),
        },
        Record {
            scenario_id: "custom \"quoted\", with commas".to_string(),
            dram_label: "DDR3-800".to_string(),
            mapping: "row-major".to_string(),
            bursts: 5_000,
            dimension: 100,
            refresh_disabled: false,
            channels: 2,
            ranks: 1,
            write_utilization: 0.984375,
            read_utilization: 0.3577,
            min_utilization: 0.3577,
            sustained_gbps: 18.31424,
            aggregate_gbps: 36.62848,
            channel_utilization_spread: 0.0078125,
            write_row_hit_rate: 0.9990234375,
            read_row_hit_rate: 0.0107421875,
            activates: 10_000,
            energy_total_mj: 0.8125,
            energy_nj_per_byte: 2.5390625,
            simulated_cycles: 89_600,
            threads: 1,
            wall_time_s: 0.125,
            sim_cycles_per_second: 716_800.0,
            link: Some(LinkRecord {
                frame_error_rate: 0.015625,
                channel_symbol_error_rate: 0.05078125,
                residual_symbol_error_rate: 0.0009765625,
                post_fec_ber: 0.000244140625,
                code_rate: 0.875,
                interleaver_depth: 128,
            }),
            tenants: None,
        },
    ]
}

/// With `TBI_BLESS_GOLDEN=1`, rewrites the fixture file instead of
/// comparing (returns `true` when blessing happened).
fn bless(name: &str, contents: &str) -> bool {
    if std::env::var("TBI_BLESS_GOLDEN").is_err() {
        return false;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, contents).unwrap();
    eprintln!("blessed {}", path.display());
    true
}

#[test]
fn json_serialization_is_byte_identical_to_the_committed_fixture() {
    let json = records_to_json(&golden_records());
    if bless("records_golden.json", &json) {
        return;
    }
    assert_eq!(
        json, JSON_FIXTURE,
        "JSON schema drifted from tests/fixtures/records_golden.json — if \
         intentional, regenerate with TBI_BLESS_GOLDEN=1"
    );
}

#[test]
fn committed_json_fixture_round_trips_through_the_parser() {
    let value = parse(JSON_FIXTURE).expect("committed fixture parses");
    let array = value.as_array().expect("top level is an array");
    let records = golden_records();
    assert_eq!(array.len(), records.len());
    for (object, record) in array.iter().zip(&records) {
        assert_eq!(
            object.get("scenario_id").and_then(JsonValue::as_str),
            Some(record.scenario_id.as_str())
        );
        assert_eq!(
            object.get("channels").and_then(JsonValue::as_f64),
            Some(f64::from(record.channels))
        );
        assert_eq!(
            object.get("ranks").and_then(JsonValue::as_f64),
            Some(f64::from(record.ranks))
        );
        assert_eq!(
            object.get("threads").and_then(JsonValue::as_f64),
            Some(f64::from(record.threads))
        );
        assert_eq!(
            object.get("aggregate_gbps").and_then(JsonValue::as_f64),
            Some(record.aggregate_gbps)
        );
        assert_eq!(
            object
                .get("channel_utilization_spread")
                .and_then(JsonValue::as_f64),
            Some(record.channel_utilization_spread)
        );
        assert_eq!(
            object.get("min_utilization").and_then(JsonValue::as_f64),
            Some(record.min_utilization)
        );
        match &record.link {
            None => assert!(matches!(object.get("link"), Some(JsonValue::Null))),
            Some(link) => {
                let parsed = object.get("link").expect("link object present");
                assert_eq!(
                    parsed.get("frame_error_rate").and_then(JsonValue::as_f64),
                    Some(link.frame_error_rate)
                );
            }
        }
        match &record.tenants {
            None => assert!(matches!(object.get("tenants"), Some(JsonValue::Null))),
            Some(tenants) => {
                let parsed = object.get("tenants").expect("tenants object present");
                assert_eq!(
                    parsed.get("policy").and_then(JsonValue::as_str),
                    Some(tenants.policy.as_str())
                );
                assert_eq!(
                    parsed.get("fairness_index").and_then(JsonValue::as_f64),
                    Some(tenants.fairness_index)
                );
                let per_tenant = parsed
                    .get("per_tenant")
                    .and_then(JsonValue::as_array)
                    .expect("per-tenant array present");
                assert_eq!(per_tenant.len(), tenants.per_tenant.len());
                for (entry, tenant) in per_tenant.iter().zip(&tenants.per_tenant) {
                    assert_eq!(
                        entry.get("tenant").and_then(JsonValue::as_str),
                        Some(tenant.tenant.as_str())
                    );
                    assert_eq!(
                        entry.get("p99_latency_cycles").and_then(JsonValue::as_f64),
                        Some(tenant.p99_latency_cycles as f64)
                    );
                    assert_eq!(
                        entry.get("latency_saturated").and_then(JsonValue::as_bool),
                        Some(tenant.latency_saturated)
                    );
                }
            }
        }
    }
}
