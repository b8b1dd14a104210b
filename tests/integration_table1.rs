//! Integration test reproducing the *shape* of the paper's Table I on a
//! reduced interleaver size: the qualitative claims must hold even though the
//! absolute percentages differ from the DRAMSys-based numbers in the paper.
//!
//! All ten configurations are evaluated once, through a single parallel
//! [`tbi::Experiment`] shared by every test (the golden ordering pin and the
//! worker-count determinism check live in `integration_experiment.rs`).

use std::sync::OnceLock;

use tbi::{DramStandard, MappingKind, Record, SweepGrid};

const BURSTS: u64 = 60_000;

/// Runs the full Table I sweep once and shares the records across tests.
fn records() -> &'static [Record] {
    static RECORDS: OnceLock<Vec<Record>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        SweepGrid::new()
            .all_presets()
            .expect("all presets build")
            .size(BURSTS)
            .mappings(MappingKind::TABLE1)
            .into_experiment()
            .with_workers(0)
            .run()
            .expect("table1 sweep runs")
    })
}

/// The `(row-major, optimized)` record pair for one configuration.
fn pair(standard: DramStandard, rate: u32) -> (&'static Record, &'static Record) {
    let label = format!("{}-{rate}", standard.name());
    let mut it = records().iter().filter(|r| r.dram_label == label);
    let row_major = it.next().expect("row-major record present");
    let optimized = it.next().expect("optimized record present");
    assert_eq!(row_major.mapping, "row-major");
    assert_eq!(optimized.mapping, "optimized");
    (row_major, optimized)
}

#[test]
fn row_major_write_phase_stays_high_everywhere() {
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let (row_major, _) = pair(*standard, *rate);
        assert!(
            row_major.write_utilization > 0.85,
            "{standard:?}-{rate}: row-major write utilization {} too low",
            row_major.write_utilization
        );
    }
}

#[test]
fn row_major_read_phase_collapses_on_fast_speed_grades() {
    // The paper's central observation: the faster grade of each standard
    // loses a large fraction of its bandwidth in the column-wise read phase.
    for (standard, rate, ceiling) in [
        (DramStandard::Ddr3, 1600, 0.80),
        (DramStandard::Ddr4, 3200, 0.65),
        (DramStandard::Lpddr4, 4266, 0.55),
        (DramStandard::Lpddr5, 8533, 0.65),
    ] {
        let (row_major, _) = pair(standard, rate);
        assert!(
            row_major.read_utilization < ceiling,
            "{standard:?}-{rate}: row-major read utilization {} should collapse below {ceiling}",
            row_major.read_utilization
        );
    }
}

#[test]
fn slow_grades_suffer_less_than_fast_grades_under_row_major() {
    for standard in DramStandard::ALL {
        let [slow, fast] = standard.paper_speed_grades();
        let (row_major_slow, _) = pair(standard, slow);
        let (row_major_fast, _) = pair(standard, fast);
        assert!(
            row_major_slow.read_utilization >= row_major_fast.read_utilization - 0.02,
            "{standard:?}: slow grade {} should not be worse than fast grade {}",
            row_major_slow.read_utilization,
            row_major_fast.read_utilization
        );
    }
}

#[test]
fn optimized_mapping_reaches_high_utilization_in_both_phases_everywhere() {
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let (_, optimized) = pair(*standard, *rate);
        assert!(
            optimized.write_utilization > 0.85 && optimized.read_utilization > 0.85,
            "{standard:?}-{rate}: optimized mapping write {} / read {} below target",
            optimized.write_utilization,
            optimized.read_utilization
        );
    }
}

#[test]
fn optimized_mapping_gives_large_gains_where_the_paper_reports_them() {
    // LPDDR4-4266 is the paper's most dramatic row (35.77 % -> 99.72 %).
    let (row_major, optimized) = pair(DramStandard::Lpddr4, 4266);
    assert!(
        optimized.min_utilization > 1.5 * row_major.min_utilization,
        "expected a large speedup on LPDDR4-4266: {} vs {}",
        optimized.min_utilization,
        row_major.min_utilization
    );
    assert!(optimized.speedup_over(row_major) > 1.5);
}

#[test]
fn records_carry_energy_and_row_hit_metrics() {
    for record in records() {
        assert!(record.energy_total_mj > 0.0, "{}", record.scenario_id);
        assert!(record.energy_nj_per_byte > 0.0, "{}", record.scenario_id);
        assert!(record.activates > 0, "{}", record.scenario_id);
        assert!(
            (0.0..=1.0).contains(&record.write_row_hit_rate)
                && (0.0..=1.0).contains(&record.read_row_hit_rate),
            "{}",
            record.scenario_id
        );
    }
    // The optimized mapping exists to avoid row thrashing in the read
    // phase: its read row-hit rate must dwarf the row-major baseline's on
    // the collapsing configurations.
    let (row_major, optimized) = pair(DramStandard::Lpddr4, 4266);
    assert!(optimized.read_row_hit_rate > row_major.read_row_hit_rate);
}
