//! The transition-safety net for the event-driven timing engine: the cycle
//! and event engines must produce **bit-identical** results.
//!
//! Both engines share one scheduler and one issue path (see
//! `crates/dram/src/controller/mod.rs`); the event engine only skips cycles
//! in which the cycle engine provably finds nothing to issue.  These tests
//! pin that equivalence end to end:
//!
//! * identical [`Record`]s for every Table I preset at a reduced burst count
//!   (both mappings, default refresh — the exact sweep behind Table I);
//! * identical raw per-channel [`tbi::Stats`] (including diagnostic counters
//!   such as `stall_cycles`) for a write-then-read phase pair, where any
//!   divergence in absolute time would shift refresh deadlines and show up;
//! * identical stats under every refresh mode and scheduling/page-policy
//!   ablation, where the scheduler takes its rarer code paths.

use tbi::dram::controller::TimingEngine;
use tbi::dram::CombinedStats;
use tbi::exp::SweepGrid;
use tbi::{
    ControllerConfig, DramStandard, InterleaverSpec, MappingKind, PagePolicy, Record, RefreshMode,
    Scenario, SchedulingPolicy,
};

const REDUCED_BURSTS: u64 = 6_000;

fn table1_records(engine: TimingEngine) -> Vec<Record> {
    SweepGrid::new()
        .all_presets()
        .expect("all presets build")
        .size(REDUCED_BURSTS)
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

#[test]
fn cycle_and_event_engines_produce_identical_table1_records() {
    let cycle = table1_records(TimingEngine::Cycle);
    let event = table1_records(TimingEngine::Event);
    assert_eq!(cycle.len(), event.len());
    for (c, e) in cycle.iter().zip(&event) {
        assert_eq!(c, e, "records diverge for {}", c.scenario_id);
        // `Record`'s PartialEq deliberately ignores wall-clock fields, but
        // the simulated-cycle count is deterministic and must match exactly.
        assert_eq!(
            c.simulated_cycles, e.simulated_cycles,
            "cycle counts diverge for {}",
            c.scenario_id
        );
    }
}

fn phase_stats(
    standard: DramStandard,
    rate: u32,
    mapping: MappingKind,
    ctrl: ControllerConfig,
) -> [CombinedStats; 2] {
    let spec = InterleaverSpec::from_burst_count(REDUCED_BURSTS);
    Scenario::preset(standard, rate, mapping, spec)
        .expect("preset exists")
        .with_controller(ctrl)
        .phase_stats()
        .expect("phases run")
}

/// Raw per-phase statistics — every field, including diagnostics — must be
/// bit-identical between the engines.  The read phase starts at whatever
/// absolute cycle the write phase ended on, so a single skipped or duplicated
/// cycle in either engine would desynchronize the refresh deadlines of the
/// second phase and fail this test.
#[test]
fn cycle_and_event_engines_agree_on_raw_stats() {
    for (standard, rate) in [
        (DramStandard::Ddr4, 3200),
        (DramStandard::Lpddr4, 4266),
        (DramStandard::Ddr5, 6400),
    ] {
        for mapping in MappingKind::TABLE1 {
            let cycle_ctrl = ControllerConfig {
                engine: TimingEngine::Cycle,
                ..ControllerConfig::default()
            };
            let event_ctrl = ControllerConfig {
                engine: TimingEngine::Event,
                ..ControllerConfig::default()
            };
            let [cw, cr] = phase_stats(standard, rate, mapping, cycle_ctrl);
            let [ew, er] = phase_stats(standard, rate, mapping, event_ctrl);
            assert_eq!(cw, ew, "{standard:?}-{rate}/{mapping} write phase");
            assert_eq!(cr, er, "{standard:?}-{rate}/{mapping} read phase");
        }
    }
}

#[test]
fn engines_agree_across_controller_ablations() {
    let ablations = [
        ControllerConfig {
            refresh_mode: Some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        },
        ControllerConfig {
            refresh_mode: Some(RefreshMode::AllBank),
            ..ControllerConfig::default()
        },
        ControllerConfig {
            refresh_mode: Some(RefreshMode::PerBank),
            ..ControllerConfig::default()
        },
        ControllerConfig {
            scheduling: SchedulingPolicy::Fcfs,
            ..ControllerConfig::default()
        },
        ControllerConfig {
            page_policy: PagePolicy::Closed,
            ..ControllerConfig::default()
        },
        ControllerConfig {
            queue_capacity: 4,
            ..ControllerConfig::default()
        },
    ];
    for base in ablations {
        for mapping in MappingKind::TABLE1 {
            let cycle_ctrl = ControllerConfig {
                engine: TimingEngine::Cycle,
                ..base
            };
            let event_ctrl = ControllerConfig {
                engine: TimingEngine::Event,
                ..base
            };
            let [cw, cr] = phase_stats(DramStandard::Lpddr5, 8533, mapping, cycle_ctrl);
            let [ew, er] = phase_stats(DramStandard::Lpddr5, 8533, mapping, event_ctrl);
            assert_eq!(cw, ew, "{base:?}/{mapping} write phase");
            assert_eq!(cr, er, "{base:?}/{mapping} read phase");
        }
    }
}
