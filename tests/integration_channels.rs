//! The channel/rank scale-out safety net:
//!
//! 1. **Legacy pinning** — with the default `channels=1, ranks=1` topology,
//!    the full Table I sweep must reproduce the records captured from the
//!    pre-scale-out tree (`tests/fixtures/table1_main_b6000.json`)
//!    **bit-identically**, on both timing engines.  Every shared record
//!    field is compared with exact (`==`) float equality.
//! 2. **Scaling** — striping the optimized mapping across two channels must
//!    scale the aggregate bandwidth by ≥ 1.8×, with balanced per-channel
//!    load (the claim pinned at full size by the committed
//!    `BENCH_channels.json` from the `channel_sweep` binary).
//! 3. **Topology axes** — the channels/ranks sweep axes expand, run and
//!    serialize end to end.

use std::sync::OnceLock;

use tbi::exp::json::{parse, JsonValue};
use tbi::exp::SweepGrid;
use tbi::{ControllerConfig, MappingKind, Record, TimingEngine};

const FIXTURE: &str = include_str!("fixtures/table1_main_b6000.json");
const FIXTURE_BURSTS: u64 = 6_000;

fn table1_records(engine: TimingEngine) -> Vec<Record> {
    SweepGrid::new()
        .all_presets()
        .expect("all presets build")
        .size(FIXTURE_BURSTS)
        .mappings(MappingKind::TABLE1)
        .controller(ControllerConfig {
            engine,
            ..ControllerConfig::default()
        })
        .into_experiment()
        .with_workers(0)
        .run()
        .expect("table1 sweep runs")
}

fn fixture() -> &'static Vec<JsonValue> {
    static FIXTURE_VALUES: OnceLock<Vec<JsonValue>> = OnceLock::new();
    FIXTURE_VALUES.get_or_init(|| {
        parse(FIXTURE)
            .expect("committed fixture parses")
            .as_array()
            .expect("fixture is an array")
            .to_vec()
    })
}

/// Compares one freshly computed record against its fixture object: every
/// field the fixture knows about must match bit-exactly (floats with `==`,
/// no tolerance), and the new topology fields must hold their legacy
/// values.
fn assert_matches_fixture(record: &Record, expected: &JsonValue) {
    let id = record.scenario_id.as_str();
    let get_str = |k: &str| {
        expected
            .get(k)
            .and_then(JsonValue::as_str)
            .map(String::from)
    };
    let get_f64 = |k: &str| {
        expected
            .get(k)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{id}: fixture missing `{k}`"))
    };
    assert_eq!(get_str("scenario_id").as_deref(), Some(id));
    assert_eq!(get_str("dram").as_deref(), Some(record.dram_label.as_str()));
    assert_eq!(get_str("mapping").as_deref(), Some(record.mapping.as_str()));
    assert_eq!(get_f64("bursts"), record.bursts as f64, "{id}: bursts");
    assert_eq!(get_f64("dimension"), f64::from(record.dimension), "{id}");
    assert_eq!(
        expected
            .get("refresh_disabled")
            .and_then(JsonValue::as_bool),
        Some(record.refresh_disabled),
        "{id}: refresh_disabled"
    );
    // Exact float equality: the simulation is deterministic, so the values
    // must be bit-identical to the pre-scale-out tree, not merely close.
    assert_eq!(
        get_f64("write_utilization"),
        record.write_utilization,
        "{id}: write_utilization"
    );
    assert_eq!(
        get_f64("read_utilization"),
        record.read_utilization,
        "{id}: read_utilization"
    );
    assert_eq!(
        get_f64("min_utilization"),
        record.min_utilization,
        "{id}: min_utilization"
    );
    assert_eq!(
        get_f64("sustained_gbps"),
        record.sustained_gbps,
        "{id}: sustained_gbps"
    );
    assert_eq!(
        get_f64("write_row_hit_rate"),
        record.write_row_hit_rate,
        "{id}: write_row_hit_rate"
    );
    assert_eq!(
        get_f64("read_row_hit_rate"),
        record.read_row_hit_rate,
        "{id}: read_row_hit_rate"
    );
    assert_eq!(get_f64("activates"), record.activates as f64, "{id}");
    assert_eq!(
        get_f64("energy_total_mj"),
        record.energy_total_mj,
        "{id}: energy_total_mj"
    );
    assert_eq!(
        get_f64("energy_nj_per_byte"),
        record.energy_nj_per_byte,
        "{id}: energy_nj_per_byte"
    );
    assert_eq!(
        get_f64("simulated_cycles"),
        record.simulated_cycles as f64,
        "{id}: simulated_cycles"
    );
    // The scale-out fields must report the legacy topology.
    assert_eq!(record.channels, 1, "{id}: channels");
    assert_eq!(record.ranks, 1, "{id}: ranks");
    assert_eq!(record.aggregate_gbps, record.sustained_gbps, "{id}");
    assert_eq!(record.channel_utilization_spread, 0.0, "{id}: spread");
}

#[test]
fn single_topology_table1_is_bit_identical_to_the_pre_scale_out_fixture() {
    for engine in [TimingEngine::Event, TimingEngine::Cycle] {
        let records = table1_records(engine);
        let expected = fixture();
        assert_eq!(records.len(), expected.len(), "{engine}: record count");
        for (record, object) in records.iter().zip(expected) {
            assert_matches_fixture(record, object);
        }
    }
}

#[test]
fn two_channel_optimized_mapping_scales_aggregate_bandwidth() {
    let run = |channels: u32| {
        SweepGrid::new()
            .preset(tbi::DramStandard::Ddr4, 3200)
            .expect("preset builds")
            .channel_count(channels)
            .size(100_000)
            .mapping(MappingKind::Optimized)
            .into_experiment()
            .run()
            .expect("sweep runs")
            .remove(0)
    };
    let single = run(1);
    let dual = run(2);
    let scaling = dual.aggregate_gbps / single.aggregate_gbps;
    assert!(
        scaling >= 1.8,
        "1 -> 2 channel aggregate bandwidth scaling {scaling:.3} below 1.8x \
         ({} vs {} Gbit/s)",
        single.aggregate_gbps,
        dual.aggregate_gbps
    );
    assert!(
        dual.channel_utilization_spread < 0.1,
        "channel load imbalanced: spread {}",
        dual.channel_utilization_spread
    );
    assert_eq!(dual.channels, 2);
}

#[test]
fn topology_axes_run_end_to_end_and_serialize() {
    let records = SweepGrid::new()
        .preset(tbi::DramStandard::Lpddr4, 4266)
        .expect("preset builds")
        .channels([1, 2])
        .ranks([1, 2])
        .size(20_000)
        .mapping(MappingKind::Optimized)
        .into_experiment()
        .with_workers(0)
        .run()
        .expect("topology sweep runs");
    assert_eq!(records.len(), 4);
    let topologies: Vec<(u32, u32)> = records.iter().map(|r| (r.channels, r.ranks)).collect();
    assert_eq!(topologies, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
    for record in &records {
        assert!(record.min_utilization > 0.5, "{}", record.scenario_id);
        assert!(
            record.aggregate_gbps >= record.sustained_gbps,
            "{}",
            record.scenario_id
        );
    }
    // The whole topology sweep serializes and re-parses.
    let json = tbi::exp::serialize::records_to_json(&records);
    let parsed = parse(&json).expect("emitted JSON parses");
    assert_eq!(parsed.as_array().unwrap().len(), 4);

    // Both engines agree on every topology cell.
    let cycle = SweepGrid::new()
        .preset(tbi::DramStandard::Lpddr4, 4266)
        .expect("preset builds")
        .channels([1, 2])
        .ranks([1, 2])
        .size(20_000)
        .mapping(MappingKind::Optimized)
        .engine(TimingEngine::Cycle)
        .into_experiment()
        .with_workers(0)
        .run()
        .expect("cycle sweep runs");
    assert_eq!(records, cycle);
}
