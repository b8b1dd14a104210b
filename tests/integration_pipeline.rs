//! Integration tests spanning the interleaver and DRAM crates: the full
//! trace-generation → controller → statistics pipeline.

use tbi::dram::controller::TimingEngine;
use tbi::dram::IteratorSource;
use tbi::interleaver::trace::{AccessPhase, TraceGenerator};
use tbi::{
    ChannelRouter, ControllerConfig, DramConfig, DramStandard, InterleaverSpec, MappingKind,
    RefreshMode, Scenario, SchedulingPolicy,
};

#[test]
fn every_mapping_completes_every_request_on_every_preset() {
    let spec = InterleaverSpec::from_burst_count(3_000);
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let dram = DramConfig::preset(*standard, *rate).unwrap();
        for kind in MappingKind::ALL {
            let [write, read] = Scenario::custom(dram.clone(), kind, spec)
                .phase_stats()
                .unwrap();
            assert_eq!(
                write.aggregate().completed_requests,
                spec.total_positions(),
                "{kind} write on {}",
                dram.label()
            );
            assert_eq!(
                read.aggregate().completed_requests,
                spec.total_positions(),
                "{kind} read on {}",
                dram.label()
            );
            assert!(
                write.utilization().min(read.utilization()) > 0.0,
                "{kind} on {}",
                dram.label()
            );
        }
    }
}

#[test]
fn optimized_mapping_never_loses_to_row_major_on_the_limiting_phase() {
    let spec = InterleaverSpec::from_burst_count(30_000);
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let dram = DramConfig::preset(*standard, *rate).unwrap();
        let min_utilization = |kind| {
            Scenario::custom(dram.clone(), kind, spec)
                .run()
                .unwrap()
                .min_utilization
        };
        let row_major = min_utilization(MappingKind::RowMajor);
        let optimized = min_utilization(MappingKind::Optimized);
        assert!(
            optimized >= row_major * 0.98,
            "{}: optimized {optimized} vs row-major {row_major}",
            dram.label()
        );
    }
}

/// The default controller followed by the five refresh, scheduling and queue
/// ablations of `integration_engines.rs`.
fn controller_ablations() -> [ControllerConfig; 6] {
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
            queue_capacity: 4,
            ..default
        },
    ]
}

/// The scalar reference pipeline — the `TraceGenerator` iterator fed through
/// an `IteratorSource` into a `1 × 1` `ChannelRouter`, with no channel
/// mapping, cursor or batched trace code — must give per-phase statistics
/// bit-identical to `Scenario::phase_stats` for every mapping family, under
/// the default controller and every ablation, on both timing engines.
#[test]
fn scalar_trace_through_a_1x1_router_matches_phase_stats() {
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
                    let source = |phase| vec![IteratorSource(generator.requests(phase))];
                    let mut router = ChannelRouter::new(dram.clone(), ctrl).unwrap();
                    let write_stats = router
                        .run_phase_sources(source(AccessPhase::Write))
                        .aggregate();
                    router.reset_stats();
                    let read_stats = router
                        .run_phase_sources(source(AccessPhase::Read))
                        .aggregate();
                    assert_eq!(write_stats.write_bursts, interleaver.len(), "{context}");
                    assert_eq!(read_stats.read_bursts, interleaver.len(), "{context}");
                    assert_eq!(write_stats.read_bursts, 0, "{context}");
                    assert_eq!(read_stats.write_bursts, 0, "{context}");

                    let [write, read] = Scenario::custom(dram.clone(), kind, spec)
                        .with_controller(ctrl)
                        .phase_stats()
                        .unwrap();
                    assert_eq!(write.per_channel(), [write_stats], "{context} write phase");
                    assert_eq!(read.per_channel(), [read_stats], "{context} read phase");
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
        Scenario::custom(dram.clone(), MappingKind::RowMajor, spec)
            .with_controller(controller)
            .run()
            .unwrap()
            .min_utilization
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
    let record = Scenario::custom(
        dram,
        MappingKind::Optimized,
        InterleaverSpec::from_burst_count(120_000),
    )
    .with_controller(controller)
    .run()
    .unwrap();
    assert!(
        record.min_utilization > 0.97,
        "expected near-ideal utilization without refresh, got {}",
        record.min_utilization
    );
}
