//! Integration tests spanning the interleaver and DRAM crates: the full
//! trace-generation → controller → statistics pipeline.

use tbi::dram::controller::TimingEngine;
use tbi::interleaver::trace::{AccessPhase, TraceGenerator};
use tbi::{
    ControllerConfig, DramConfig, DramStandard, InterleaverSpec, MappingKind, MemorySystem,
    PagePolicy, RefreshMode, SchedulingPolicy, ThroughputEvaluator,
};

#[test]
fn every_mapping_completes_every_request_on_every_preset() {
    let spec = InterleaverSpec::from_burst_count(3_000);
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let dram = DramConfig::preset(*standard, *rate).unwrap();
        for kind in MappingKind::ALL {
            let evaluator = ThroughputEvaluator::new(dram.clone(), spec);
            let report = evaluator.evaluate(kind).unwrap();
            assert_eq!(
                report.write.stats.aggregate().completed_requests,
                spec.total_positions(),
                "{kind} write on {}",
                dram.label()
            );
            assert_eq!(
                report.read.stats.aggregate().completed_requests,
                spec.total_positions(),
                "{kind} read on {}",
                dram.label()
            );
            assert!(report.min_utilization() > 0.0, "{kind} on {}", dram.label());
        }
    }
}

#[test]
fn optimized_mapping_never_loses_to_row_major_on_the_limiting_phase() {
    let spec = InterleaverSpec::from_burst_count(30_000);
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let dram = DramConfig::preset(*standard, *rate).unwrap();
        let evaluator = ThroughputEvaluator::new(dram.clone(), spec);
        let (row_major, optimized) = evaluator.evaluate_table1_pair().unwrap();
        assert!(
            optimized.min_utilization() >= row_major.min_utilization() * 0.98,
            "{}: optimized {} vs row-major {}",
            dram.label(),
            optimized.min_utilization(),
            row_major.min_utilization()
        );
    }
}

/// The default controller followed by the six refresh, scheduling, page and
/// queue ablations of `integration_engines.rs`.
fn controller_ablations() -> [ControllerConfig; 7] {
    let default = ControllerConfig::default();
    [
        default,
        ControllerConfig {
            refresh_mode: Some(RefreshMode::Disabled),
            ..default
        },
        ControllerConfig {
            refresh_mode: Some(RefreshMode::AllBank),
            ..default
        },
        ControllerConfig {
            refresh_mode: Some(RefreshMode::PerBank),
            ..default
        },
        ControllerConfig {
            scheduling: SchedulingPolicy::Fcfs,
            ..default
        },
        ControllerConfig {
            page_policy: PagePolicy::Closed,
            ..default
        },
        ControllerConfig {
            queue_capacity: 4,
            ..default
        },
    ]
}

/// The scalar reference pipeline — the `TraceGenerator` iterator fed
/// through `MemorySystem::run_trace`, with no channel-routing code — must
/// give per-phase statistics bit-identical to `ThroughputEvaluator::evaluate`
/// for every mapping family, under the default controller and every
/// ablation, on both timing engines.
#[test]
fn trace_through_memory_system_matches_evaluator_counts() {
    let spec = InterleaverSpec::from_burst_count(3_000);
    let interleaver = spec.triangular();
    for (standard, rate) in [
        (DramStandard::Ddr3, 800),
        (DramStandard::Ddr4, 3200),
        (DramStandard::Lpddr4, 4266),
    ] {
        let dram = DramConfig::preset(standard, rate).unwrap();
        for kind in MappingKind::ALL {
            let mapping = kind.build(&dram, spec.dimension()).unwrap();
            let generator = TraceGenerator::new(interleaver, mapping.as_ref());
            for base in controller_ablations() {
                for engine in [TimingEngine::Cycle, TimingEngine::Event] {
                    let ctrl = ControllerConfig { engine, ..base };
                    let context = format!("{} {kind} {ctrl:?}", dram.label());
                    let mut system = MemorySystem::with_controller(dram.clone(), ctrl).unwrap();
                    let write_stats = system.run_trace(generator.requests(AccessPhase::Write));
                    system.reset_stats();
                    let read_stats = system.run_trace(generator.requests(AccessPhase::Read));
                    assert_eq!(write_stats.write_bursts, interleaver.len(), "{context}");
                    assert_eq!(read_stats.read_bursts, interleaver.len(), "{context}");
                    assert_eq!(write_stats.read_bursts, 0, "{context}");
                    assert_eq!(read_stats.write_bursts, 0, "{context}");

                    let report = ThroughputEvaluator::with_controller(dram.clone(), spec, ctrl)
                        .evaluate(kind)
                        .unwrap();
                    assert_eq!(
                        report.write.stats.per_channel(),
                        [write_stats],
                        "{context} write phase"
                    );
                    assert_eq!(
                        report.read.stats.per_channel(),
                        [read_stats],
                        "{context} read phase"
                    );
                }
            }
        }
    }
}

#[test]
fn fcfs_scheduling_is_never_faster_than_frfcfs_for_the_baseline() {
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let spec = InterleaverSpec::from_burst_count(10_000);
    let run = |policy: SchedulingPolicy| {
        let controller = ControllerConfig {
            scheduling: policy,
            refresh_mode: Some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        };
        ThroughputEvaluator::with_controller(dram.clone(), spec, controller)
            .evaluate(MappingKind::RowMajor)
            .unwrap()
            .min_utilization()
    };
    assert!(run(SchedulingPolicy::FrFcfs) >= run(SchedulingPolicy::Fcfs));
}

#[test]
fn disabling_refresh_lifts_optimized_mapping_above_99_percent() {
    // The paper's in-text claim: with refresh disabled the optimized mapping
    // exceeds 99 % utilization.  Checked here on one representative
    // configuration with a moderately sized interleaver.
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let controller = ControllerConfig {
        refresh_mode: Some(RefreshMode::Disabled),
        ..ControllerConfig::default()
    };
    let evaluator = ThroughputEvaluator::with_controller(
        dram,
        InterleaverSpec::from_burst_count(120_000),
        controller,
    );
    let report = evaluator.evaluate(MappingKind::Optimized).unwrap();
    assert!(
        report.min_utilization() > 0.97,
        "expected near-ideal utilization without refresh, got {}",
        report.min_utilization()
    );
}
