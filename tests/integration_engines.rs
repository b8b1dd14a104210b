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
//! * identical stats under every refresh mode, FCFS scheduling and a small
//!   queue, where the scheduler takes its rarer code paths;
//! * recorded statistics for configurations that never reach the event
//!   engine's fast path (all-bank refresh drains, FCFS, more than 8
//!   rank-qualified bank groups).  There both engines run the same full
//!   scheduler scan, so equivalence alone cannot see a change to it:
//!   the full-scan goldens hash every `Stats` field of both phases and
//!   every channel.  The default run covers the Table I pair at 4,000
//!   bursts; the ignored run every mapping at 30,000 bursts.

use tbi::dram::controller::TimingEngine;
use tbi::dram::{ChannelTopology, CombinedStats, DramConfig, Stats};
use tbi::exp::SweepGrid;
use tbi::{
    ControllerConfig, DramStandard, InterleaverSpec, MappingKind, Record, RefreshMode, Scenario,
    SchedulingPolicy,
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

/// Interleaver size of the default full-scan golden run.
const GOLDEN_BURSTS: u64 = 4_000;
/// Interleaver size of the ignored full-scan golden run.
const FULL_GOLDEN_BURSTS: u64 = 30_000;

/// Configurations that never reach the event engine's fast path, plus
/// LPDDR4-4266 as a fast-path control: `(label, DRAM, controller)`.
///
/// All-bank refresh drains, FCFS and more than 8 rank-qualified bank
/// groups run the full scheduler scan on both engines, so no cycle ≡ event
/// comparison can see a change to that scan; only recorded statistics can.
fn full_scan_cases() -> Vec<(&'static str, DramConfig, ControllerConfig)> {
    let preset = |standard, rate| DramConfig::preset(standard, rate).expect("preset exists");
    let ddr4 = preset(DramStandard::Ddr4, 3200);
    let default = ControllerConfig::default();
    let fcfs = ControllerConfig {
        scheduling: SchedulingPolicy::Fcfs,
        ..default
    };
    let fcfs_per_bank = ControllerConfig {
        scheduling: SchedulingPolicy::Fcfs,
        refresh_mode: Some(RefreshMode::PerBank),
        ..default
    };
    vec![
        ("ddr4", ddr4.clone(), default),
        ("ddr4-fcfs", ddr4.clone(), fcfs),
        ("ddr4-fcfs-perbank", ddr4.clone(), fcfs_per_bank),
        (
            "ddr4-1x4",
            ddr4.with_topology(ChannelTopology::new(1, 4)),
            default,
        ),
        ("ddr5-3ds", preset(DramStandard::Ddr5Stacked, 6400), default),
        (
            "ddr3-800-2x1",
            preset(DramStandard::Ddr3, 800).with_topology(ChannelTopology::new(2, 1)),
            default,
        ),
        ("lpddr4", preset(DramStandard::Lpddr4, 4266), default),
    ]
}

/// FNV-1a over every counter of every channel, write phase first.
fn phase_hash(phases: &[CombinedStats; 2]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for stats in phases.iter().flat_map(CombinedStats::per_channel) {
        // Destructured so that a new `Stats` field cannot miss the hash.
        let Stats {
            elapsed_cycles,
            data_bus_busy_cycles,
            completed_requests,
            read_bursts,
            write_bursts,
            activates,
            precharges,
            refreshes_all_bank,
            refreshes_per_bank,
            row_hits,
            row_conflicts,
            row_empties,
            stall_cycles,
        } = *stats;
        for value in [
            elapsed_cycles,
            data_bus_busy_cycles,
            completed_requests,
            read_bursts,
            write_bursts,
            activates,
            precharges,
            refreshes_all_bank,
            refreshes_per_bank,
            row_hits,
            row_conflicts,
            row_empties,
            stall_cycles,
        ] {
            hash = (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Runs every full-scan case × `mappings` at `bursts` on both engines,
/// asserts cycle == event and that every all-bank refresh cell issued at
/// least two REFab, and compares each cell's hash with `golden`
/// (`(case, mapping, hash)` rows in case-major order).
fn check_full_scan_golden(mappings: &[MappingKind], bursts: u64, golden: &[(&str, &str, u64)]) {
    let spec = InterleaverSpec::from_burst_count(bursts);
    let mut actual = Vec::new();
    for (label, dram, base) in full_scan_cases() {
        let all_bank = base.refresh_mode.unwrap_or(dram.default_refresh) == RefreshMode::AllBank;
        for &mapping in mappings {
            let run = |engine| {
                Scenario::custom(dram.clone(), mapping, spec)
                    .with_controller(ControllerConfig { engine, ..base })
                    .phase_stats()
                    .expect("phases run")
            };
            let cycle = run(TimingEngine::Cycle);
            let event = run(TimingEngine::Event);
            assert_eq!(cycle, event, "{label}/{mapping}: engines diverge");
            if all_bank {
                let refab: u64 = event
                    .iter()
                    .map(|phase| phase.aggregate().refreshes_all_bank)
                    .sum();
                assert!(refab >= 2, "{label}/{mapping}: only {refab} REFab");
            }
            actual.push((label, mapping.to_string(), phase_hash(&event)));
        }
    }
    let differing: Vec<String> = actual
        .iter()
        .zip(golden)
        .filter(|((label, mapping, hash), row)| (*label, mapping.as_str(), *hash) != **row)
        .map(|((label, mapping, _), _)| format!("{label}/{mapping}"))
        .collect();
    let rows: Vec<String> = actual
        .iter()
        .map(|(label, mapping, hash)| format!("    (\"{label}\", \"{mapping}\", {hash:#018x}),"))
        .collect();
    assert!(
        differing.is_empty() && actual.len() == golden.len(),
        "full-scan golden differs at {differing:?}; recorded rows:\n{}",
        rows.join("\n")
    );
}

/// Recorded from the scheduler that kept separate issue and wait
/// accumulators, except the `ddr4-fcfs-perbank` rows, recorded from the
/// single-pick scheduler while it still had a closed-page policy; the
/// current scheduler must reproduce every row.
#[rustfmt::skip]
const FULL_SCAN_GOLDEN: [(&str, &str, u64); 14] = [
    ("ddr4", "row-major", 0x00c0f38d82b16b63),
    ("ddr4", "optimized", 0xc48f12431bd8a979),
    ("ddr4-fcfs", "row-major", 0xfb2c920e05a114fd),
    ("ddr4-fcfs", "optimized", 0x0fb80f2b90d5244d),
    ("ddr4-fcfs-perbank", "row-major", 0xa1f9001396cd034b),
    ("ddr4-fcfs-perbank", "optimized", 0x65b71bb6c4e655ef),
    ("ddr4-1x4", "row-major", 0xe298c4cfc359c305),
    ("ddr4-1x4", "optimized", 0xccede717ee8ef50d),
    ("ddr5-3ds", "row-major", 0x7cc3fc72eac9e309),
    ("ddr5-3ds", "optimized", 0x0e484c8a934b7828),
    ("ddr3-800-2x1", "row-major", 0x675b5b47e5bee3ff),
    ("ddr3-800-2x1", "optimized", 0x4bec0f5aeb9163a7),
    ("lpddr4", "row-major", 0x9ee6e9a672629eff),
    ("lpddr4", "optimized", 0x0d99c778c6bf7b83),
];

#[test]
fn full_scan_configurations_reproduce_their_golden_stats() {
    check_full_scan_golden(&MappingKind::TABLE1, GOLDEN_BURSTS, &FULL_SCAN_GOLDEN);
}

/// The ignored run's golden: every case × `MappingKind::ALL` at 30,000
/// bursts, recorded with `FULL_SCAN_GOLDEN`.
#[rustfmt::skip]
const FULL_SCAN_GOLDEN_ALL: [(&str, &str, u64); 35] = [
    ("ddr4", "row-major", 0x3c5f5267a7f999a3),
    ("ddr4", "bank-round-robin", 0x9d7ebd5abd16b9ed),
    ("ddr4", "tiled", 0x99e3b5b5c38018b7),
    ("ddr4", "optimized-no-stagger", 0x9e77f8e1a1709b35),
    ("ddr4", "optimized", 0xb8a2299cdcdca523),
    ("ddr4-fcfs", "row-major", 0x7d6d1e25fb3e692d),
    ("ddr4-fcfs", "bank-round-robin", 0x0820dfeacbff034d),
    ("ddr4-fcfs", "tiled", 0x50c378faf6bced3b),
    ("ddr4-fcfs", "optimized-no-stagger", 0xb2ce0ceb5a8b0a73),
    ("ddr4-fcfs", "optimized", 0xacc31f2b49467de9),
    ("ddr4-fcfs-perbank", "row-major", 0x4750b33e1b023397),
    ("ddr4-fcfs-perbank", "bank-round-robin", 0x38c9f372e7813a67),
    ("ddr4-fcfs-perbank", "tiled", 0x32194628cfaa86db),
    ("ddr4-fcfs-perbank", "optimized-no-stagger", 0x647b62de1ecb3ced),
    ("ddr4-fcfs-perbank", "optimized", 0x51af82743798ab6b),
    ("ddr4-1x4", "row-major", 0x97285fb2c0e2c7ef),
    ("ddr4-1x4", "bank-round-robin", 0xd1a4129729f87395),
    ("ddr4-1x4", "tiled", 0xd7d8696977543f2b),
    ("ddr4-1x4", "optimized-no-stagger", 0x8965a917e73c37ff),
    ("ddr4-1x4", "optimized", 0x3bd35933a878c0eb),
    ("ddr5-3ds", "row-major", 0x47d2004a2c94274e),
    ("ddr5-3ds", "bank-round-robin", 0x7ecad3acfd4e6f51),
    ("ddr5-3ds", "tiled", 0x68782d228a2cd488),
    ("ddr5-3ds", "optimized-no-stagger", 0x84de96889f081b19),
    ("ddr5-3ds", "optimized", 0xb9ef7bb7af240e1b),
    ("ddr3-800-2x1", "row-major", 0x8cf3967765a44631),
    ("ddr3-800-2x1", "bank-round-robin", 0x938918cf7568879f),
    ("ddr3-800-2x1", "tiled", 0xc7b1038bbf12df27),
    ("ddr3-800-2x1", "optimized-no-stagger", 0x06301dab44660eef),
    ("ddr3-800-2x1", "optimized", 0x06301dab44660eef),
    ("lpddr4", "row-major", 0xa18a253af00d7f9d),
    ("lpddr4", "bank-round-robin", 0x0555e9e8edcb46e5),
    ("lpddr4", "tiled", 0x5c36c68effc1cdbb),
    ("lpddr4", "optimized-no-stagger", 0x5c36c68effc1cdbb),
    ("lpddr4", "optimized", 0x5c36c68effc1cdbb),
];

#[test]
#[ignore = "every mapping at 30,000 bursts on both engines; CI runs it in release"]
fn full_scan_configurations_reproduce_their_golden_stats_for_every_mapping() {
    check_full_scan_golden(&MappingKind::ALL, FULL_GOLDEN_BURSTS, &FULL_SCAN_GOLDEN_ALL);
}
