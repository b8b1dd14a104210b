//! Bit-identity and determinism guarantees of the stream scheduler.
//!
//! The scheduler's single-stream case must be indistinguishable from the
//! router's single-tenant phase drive: same enqueue sequence per
//! channel, therefore bit-identical [`CombinedStats`] — for every policy,
//! on both timing engines.  Multi-tenant runs must be deterministic and
//! complete all admitted work even at thousands-of-streams scale.

use tbi_dram::{
    ChannelRouter, ChannelTopology, CombinedStats, ControllerConfig, DramConfig, DramStandard,
    IteratorSource, TimingEngine,
};
use tbi_interleaver::mapping::{ChannelMapping, ChannelTraceGenerator};
use tbi_interleaver::{AccessPhase, InterleaverSpec, MappingKind};
use tbi_sched::{
    ArrivalModel, QosClass, SchedConfig, SchedPolicyKind, StreamScheduler, StreamSpec,
};

fn config(channels: u32, ranks: u32) -> DramConfig {
    DramConfig::preset(DramStandard::Ddr4, 3200)
        .unwrap()
        .with_topology(ChannelTopology::new(channels, ranks))
}

fn ctrl(engine: TimingEngine) -> ControllerConfig {
    ControllerConfig {
        engine,
        ..ControllerConfig::default()
    }
}

/// Reference statistics: the pre-existing single-tenant driver
/// (`run_phase_sources` over per-channel traces).
fn reference_stats(
    config: &DramConfig,
    ctrl: ControllerConfig,
    spec: &InterleaverSpec,
    kind: MappingKind,
    phase: AccessPhase,
) -> CombinedStats {
    let mapping = ChannelMapping::new(kind, config, spec.dimension()).unwrap();
    let generator = ChannelTraceGenerator::new(&mapping);
    let mut router = ChannelRouter::new(config.clone(), ctrl).unwrap();
    let traces: Vec<_> = (0..router.channels())
        .map(|channel| generator.channel_requests(phase, channel))
        .collect();
    router.run_phase_sources(traces)
}

#[test]
fn single_stream_is_bit_identical_to_run_phase_sources() {
    // Both channel routers (the optimized stripe tiles and the row-major
    // linear splice) on a 2-channel topology with one and with two ranks.
    let spec = InterleaverSpec::from_burst_count(3_000);
    for (channels, ranks) in [(2, 1), (2, 2)] {
        let config = config(channels, ranks);
        for kind in MappingKind::TABLE1 {
            for engine in [TimingEngine::Cycle, TimingEngine::Event] {
                for phase in AccessPhase::ALL {
                    let reference = reference_stats(&config, ctrl(engine), &spec, kind, phase);
                    for policy in SchedPolicyKind::ALL {
                        let pattern = match phase {
                            AccessPhase::Write => tbi_sched::PhasePattern::Write,
                            AccessPhase::Read => tbi_sched::PhasePattern::Read,
                        };
                        let stream = StreamSpec::new("solo", spec)
                            .with_mapping(kind)
                            .with_pattern(pattern);
                        let report = StreamScheduler::new(
                            config.clone(),
                            ctrl(engine),
                            vec![stream],
                            SchedConfig::new(policy),
                        )
                        .unwrap()
                        .run();
                        assert_eq!(
                            report.stats, reference,
                            "{kind} {channels}x{ranks}, engine {engine}, phase {phase:?}, \
                             policy {policy}"
                        );
                        assert_eq!(report.total_requests(), spec.total_positions());
                    }
                }
            }
        }
    }
}

#[test]
fn single_stream_blocks_follow_each_other_like_chained_traces() {
    // Two backlogged blocks are admitted together, so each channel's queue
    // holds the write block's trace followed by the read block's: the
    // scheduler's per-channel walks must hand over between blocks exactly
    // where the chained phase traces do.
    let spec = InterleaverSpec::from_burst_count(2_000);
    let config = config(2, 2);
    for kind in MappingKind::TABLE1 {
        let mapping = ChannelMapping::new(kind, &config, spec.dimension()).unwrap();
        let generator = ChannelTraceGenerator::new(&mapping);
        let mut router = ChannelRouter::new(config.clone(), ctrl(TimingEngine::Event)).unwrap();
        let chained: Vec<_> = (0..router.channels())
            .map(|channel| {
                IteratorSource(
                    generator
                        .channel_requests(AccessPhase::Write, channel)
                        .chain(generator.channel_requests(AccessPhase::Read, channel)),
                )
            })
            .collect();
        let reference = router.run_phase_sources(chained);
        let report = StreamScheduler::new(
            config.clone(),
            ctrl(TimingEngine::Event),
            vec![StreamSpec::new("solo", spec)
                .with_mapping(kind)
                .with_pattern(tbi_sched::PhasePattern::Alternating)
                .with_blocks(2)],
            SchedConfig::new(SchedPolicyKind::RoundRobin),
        )
        .unwrap()
        .run();
        assert_eq!(report.stats, reference, "{kind}");
        assert_eq!(report.total_requests(), 2 * spec.total_positions());
    }
}

#[test]
fn single_stream_identity_holds_with_ranks_and_row_major() {
    // A 4-channel, 2-rank topology exercises the rank-qualified bank
    // attribution; the row-major mapping exercises the linear-splice
    // router.
    let spec = InterleaverSpec::from_burst_count(2_000);
    let config = config(4, 2);
    let reference = reference_stats(
        &config,
        ctrl(TimingEngine::Event),
        &spec,
        MappingKind::RowMajor,
        AccessPhase::Write,
    );
    let report = StreamScheduler::new(
        config,
        ctrl(TimingEngine::Event),
        vec![StreamSpec::new("solo", spec).with_mapping(MappingKind::RowMajor)],
        SchedConfig::new(SchedPolicyKind::WeightedShare),
    )
    .unwrap()
    .run();
    assert_eq!(report.stats, reference);
}

#[test]
fn engines_agree_on_multi_tenant_runs() {
    let spec = InterleaverSpec::from_burst_count(1_200);
    let streams = || {
        vec![
            StreamSpec::new("a", spec)
                .with_qos(QosClass::Premium)
                .with_blocks(2),
            StreamSpec::new("b", spec).with_blocks(2),
            StreamSpec::new("c", spec)
                .with_qos(QosClass::BestEffort)
                .with_pattern(tbi_sched::PhasePattern::Alternating)
                .with_blocks(2),
        ]
    };
    // Blocks arriving long after the channels went idle: the channels
    // idle through refreshes until each arrival.
    let periodic = vec![
        StreamSpec::new("periodic", InterleaverSpec::from_burst_count(300))
            .with_blocks(3)
            .with_arrival(ArrivalModel::Periodic {
                interval_cycles: 200_000,
            }),
    ];
    for streams in [streams(), periodic] {
        for policy in SchedPolicyKind::ALL {
            let cycle = StreamScheduler::new(
                config(2, 1),
                ctrl(TimingEngine::Cycle),
                streams.clone(),
                SchedConfig::new(policy),
            )
            .unwrap()
            .run();
            let event = StreamScheduler::new(
                config(2, 1),
                ctrl(TimingEngine::Event),
                streams.clone(),
                SchedConfig::new(policy),
            )
            .unwrap()
            .run();
            assert_eq!(cycle, event, "{policy}");
        }
    }
}

#[test]
fn thousands_of_streams_complete_under_bounded_memory() {
    // 2048 tiny streams with a tight shared in-flight budget: admission
    // backpressure must cycle every block through without losing or
    // duplicating a request.
    let spec = InterleaverSpec::from_burst_count(45);
    let streams: Vec<StreamSpec> = (0..2048)
        .map(|index| {
            let qos = QosClass::ALL[index % 3];
            StreamSpec::new(format!("tenant-{index:04}"), spec).with_qos(qos)
        })
        .collect();
    let per_block = spec.total_positions();
    let report = StreamScheduler::new(
        config(2, 1),
        ctrl(TimingEngine::Event),
        streams,
        SchedConfig::new(SchedPolicyKind::WeightedShare).with_max_in_flight(64),
    )
    .unwrap()
    .run();
    assert_eq!(report.tenants.len(), 2048);
    assert_eq!(report.total_requests(), 2048 * per_block);
    assert!(report.tenants.iter().all(|t| t.blocks == 1));
    let fairness = report.fairness_index();
    assert!(fairness > 0.0 && fairness <= 1.0 + 1e-12, "{fairness}");
}

#[test]
fn threaded_drive_is_bit_identical_for_all_policies_and_engines() {
    // The scheduler's admission loop is inherently sequential (policy
    // decisions are cross-channel); `SchedConfig::with_threads` only
    // parallelizes the final per-channel drain.  The full report — stats,
    // per-tenant histograms, deadline accounting — must be bit-identical to
    // the sequential run for every policy × engine × thread count,
    // including an odd count and one exceeding the channel count.
    let spec = InterleaverSpec::from_burst_count(1_200);
    let streams = || {
        vec![
            StreamSpec::new("a", spec)
                .with_qos(QosClass::Premium)
                .with_blocks(2),
            StreamSpec::new("b", spec).with_blocks(2),
            StreamSpec::new("c", spec)
                .with_qos(QosClass::BestEffort)
                .with_pattern(tbi_sched::PhasePattern::Alternating)
                .with_blocks(2),
        ]
    };
    for engine in [TimingEngine::Cycle, TimingEngine::Event] {
        for policy in SchedPolicyKind::ALL {
            let sequential = StreamScheduler::new(
                config(2, 1),
                ctrl(engine),
                streams(),
                SchedConfig::new(policy),
            )
            .unwrap()
            .run();
            for threads in [2usize, 3, 4] {
                let threaded = StreamScheduler::new(
                    config(2, 1),
                    ctrl(engine),
                    streams(),
                    SchedConfig::new(policy).with_threads(threads),
                )
                .unwrap()
                .run();
                assert_eq!(sequential, threaded, "{engine} {policy} threads={threads}");
            }
        }
    }
}

#[test]
fn threaded_drive_preserves_per_channel_completion_log_order() {
    // The per-tenant latency accounting attributes completions by walking
    // each controller's private log in channel-index order, so the log's
    // per-channel request ordering is part of the determinism contract —
    // not just the aggregated statistics.
    let spec = InterleaverSpec::from_burst_count(2_000);
    let config = config(4, 1);
    let run_completions = |threads: usize| -> (CombinedStats, Vec<Vec<tbi_dram::Completion>>) {
        let mapping =
            ChannelMapping::new(MappingKind::Optimized, &config, spec.dimension()).unwrap();
        let generator = ChannelTraceGenerator::new(&mapping);
        let mut router = ChannelRouter::new(config.clone(), ctrl(TimingEngine::Event)).unwrap();
        for channel in 0..router.channels() {
            router.controller_mut(channel).set_completion_logging(true);
        }
        let traces: Vec<_> = (0..router.channels())
            .map(|channel| generator.channel_requests(AccessPhase::Write, channel))
            .collect();
        let stats = if threads == 0 {
            router.run_phase_sources(traces)
        } else {
            router.run_phase_sources_threaded(traces, threads)
        };
        let logs: Vec<Vec<tbi_dram::Completion>> = (0..router.channels())
            .map(|channel| router.controller_mut(channel).drain_completions().collect())
            .collect();
        (stats, logs)
    };
    let (sequential_stats, sequential_logs) = run_completions(0);
    assert!(sequential_logs.iter().any(|log| !log.is_empty()));
    for threads in [1usize, 2, 3, 4, 8] {
        let (stats, logs) = run_completions(threads);
        assert_eq!(
            sequential_stats, stats,
            "stats diverged at {threads} threads"
        );
        assert_eq!(
            sequential_logs, logs,
            "completion-log order diverged at {threads} threads"
        );
    }
}

#[test]
fn policies_differentiate_premium_p99_under_contention() {
    // One premium stream competes with seven best-effort streams on a
    // single channel.  Weighted share must hold the premium tenant's p99
    // below what plain round-robin gives it.
    let spec = InterleaverSpec::from_burst_count(2_000);
    let streams = || {
        let mut list = vec![StreamSpec::new("premium", spec)
            .with_qos(QosClass::Premium)
            .with_blocks(2)];
        for index in 0..7 {
            list.push(
                StreamSpec::new(format!("bg-{index}"), spec)
                    .with_qos(QosClass::BestEffort)
                    .with_blocks(2),
            );
        }
        list
    };
    let premium_p99 = |policy: SchedPolicyKind| {
        let report = StreamScheduler::new(
            config(1, 1),
            ctrl(TimingEngine::Event),
            streams(),
            SchedConfig::new(policy),
        )
        .unwrap()
        .run();
        report.tenants[0].latency.p99()
    };
    let round_robin = premium_p99(SchedPolicyKind::RoundRobin);
    let weighted = premium_p99(SchedPolicyKind::WeightedShare);
    assert!(
        weighted < round_robin,
        "weighted share should improve premium p99: weighted {weighted} vs rr {round_robin}"
    );
}
