//! Randomized differential testing of the router's per-channel drive: for
//! **random** small geometries, channel topologies, controller
//! configurations, request patterns and worker counts,
//! [`ChannelRouter::run_phase_sources_threaded`] must produce
//! [`CombinedStats`] bit-identical to the laggard-first global schedule —
//! every per-channel field, including diagnostics such as `stall_cycles`.
//!
//! The laggard-first schedule (fill every channel's free slots, advance the
//! channel whose clock is furthest behind until it can accept again, repeat,
//! drain) is kept here as the oracle, written against the router's
//! `laggard_channel`/`controller_mut` seam that the `tbi_sched` stream
//! scheduler drives through.  The router instead runs each channel's
//! projection of that schedule (fill, burst-until-accepting, fill, …, drain)
//! on its own, inline or on a worker; channels share no state, so neither
//! the schedule, the worker count nor the channel-to-worker distribution may
//! leak into the results.  This suite pins that invariant the same way
//! `engine_differential.rs` pins cycle/event equivalence.  The case count
//! follows proptest's default (64) and is raised in CI via
//! `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tbi_dram::{
    ChannelRouter, ChannelTopology, CombinedStats, ControllerConfig, DramConfig, IteratorSource,
    RefreshMode, Request, SchedulingPolicy, TimingEngine,
};

/// Builds a small, valid multi-channel DRAM configuration from sampled axis
/// indices (the `engine_differential.rs` generator plus a channel axis).
fn small_config(
    preset_idx: usize,
    bank_groups: u32,
    banks_per_group: u32,
    rows_log2: u32,
    cols_log2: u32,
    channels: u32,
    ranks: u32,
) -> DramConfig {
    let presets = tbi_dram::standards::ALL_CONFIGS;
    let (standard, rate) = presets[preset_idx % presets.len()];
    let mut config = DramConfig::preset(standard, rate).expect("preset exists");
    config.geometry.bank_groups = bank_groups;
    config.geometry.banks_per_group = banks_per_group;
    config.geometry.rows = 1 << rows_log2;
    config.geometry.columns_per_row = 1 << cols_log2;
    config.topology = ChannelTopology::new(channels, ranks);
    config.validate().expect("sampled configuration is valid");
    config
}

/// Generates one channel's request pattern mixing sequential runs (row
/// hits), strided jumps (conflicts, bank/rank switches) and direction
/// changes — addresses are channel-local, as the router expects.
fn pattern(config: &DramConfig, seed: u64, requests: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = config.geometry.total_bursts() * u64::from(config.topology.ranks);
    let decoder = config
        .linear_decoder()
        .expect("sampled configuration is valid");
    let mut out = Vec::with_capacity(requests);
    let mut cursor = rng.gen_range(0..capacity);
    while out.len() < requests {
        let run = rng.gen_range(1..16usize).min(requests - out.len());
        let writes = rng.gen_bool(0.5);
        for _ in 0..run {
            let address = decoder.decode(cursor % capacity).1;
            out.push(if writes {
                Request::write(address)
            } else {
                Request::read(address)
            });
            cursor += 1;
        }
        cursor = if rng.gen_bool(0.5) {
            cursor.wrapping_add(rng.gen_range(1..64))
        } else {
            rng.gen_range(0..capacity)
        };
    }
    out
}

/// Per-channel traces for `config`, sized unevenly (channel `c` gets
/// `base + 97 * c` requests) so the laggard-driven admission order is
/// exercised, not just the symmetric case.
fn traces(config: &DramConfig, seed: u64, base: usize) -> Vec<Vec<Request>> {
    (0..config.topology.channels)
        .map(|channel| {
            pattern(
                config,
                seed ^ (u64::from(channel) << 32),
                base + 97 * channel as usize,
            )
        })
        .collect()
}

/// The laggard-first global schedule over `traces`: fill every channel's
/// free queue slots from its own trace, advance the channel whose local
/// clock is furthest behind until it can accept again, repeat; finally
/// drain every channel.
fn laggard_first(router: &mut ChannelRouter, traces: &[Vec<Request>]) -> CombinedStats {
    let mut admitted = vec![0usize; traces.len()];
    loop {
        for ((channel, trace), next) in (0u32..).zip(traces).zip(&mut admitted) {
            let controller = router.controller_mut(channel);
            let end = (*next + controller.free_slots()).min(trace.len());
            for &request in &trace[*next..end] {
                assert!(controller.enqueue(request), "enqueue within free_slots");
            }
            *next = end;
        }
        let Some(channel) = router.laggard_channel() else {
            break;
        };
        let controller = router.controller_mut(channel);
        controller.step();
        while !controller.can_accept() && controller.pending_requests() > 0 {
            controller.step();
        }
    }
    router.drain_all(1);
    router.stats()
}

/// Runs one phase of `traces` on `router` with `threads` workers (0 selects
/// the laggard-first oracle) and returns the combined statistics.
fn drive(router: &mut ChannelRouter, traces: &[Vec<Request>], threads: usize) -> CombinedStats {
    if threads == 0 {
        laggard_first(router, traces)
    } else {
        let sources = traces
            .iter()
            .map(|t| IteratorSource(t.iter().copied()))
            .collect();
        router.run_phase_sources_threaded(sources, threads)
    }
}

/// Drives a fresh router over `traces` (see [`drive`]).
fn run(
    config: &DramConfig,
    ctrl: ControllerConfig,
    traces: &[Vec<Request>],
    threads: usize,
) -> CombinedStats {
    let mut router = ChannelRouter::new(config.clone(), ctrl).expect("router builds");
    drive(&mut router, traces, threads)
}

proptest! {
    /// The headline differential property: identical `CombinedStats` from
    /// the laggard-first oracle and the per-channel drive for random
    /// (geometry × channel topology × refresh × scheduling × queue × engine
    /// × pattern × thread-count) combinations, including thread counts that
    /// are odd or exceed the channel count.
    #[test]
    fn threaded_drive_matches_sequential_on_random_configurations(
        preset_idx in 0usize..10,
        bank_groups_log2 in 0u32..3,
        banks_per_group_log2 in 1u32..3,
        rows_log2 in 6u32..8,
        cols_log2 in 4u32..7,
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        refresh_idx in 0usize..4,
        scheduling_idx in 0usize..2,
        queue_idx in 0usize..3,
        engine_idx in 0usize..2,
        threads_idx in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = small_config(
            preset_idx,
            1 << bank_groups_log2,
            1 << banks_per_group_log2,
            rows_log2,
            cols_log2,
            1 << channels_log2,
            1 << ranks_log2,
        );
        let ctrl = ControllerConfig {
            refresh_mode: [
                None,
                Some(RefreshMode::AllBank),
                Some(RefreshMode::PerBank),
                Some(RefreshMode::Disabled),
            ][refresh_idx],
            scheduling: [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs][scheduling_idx],
            queue_capacity: [2, 8, 64][queue_idx],
            engine: [TimingEngine::Cycle, TimingEngine::Event][engine_idx],
        };
        // 1, 2, 4 workers plus an odd count that never divides the
        // power-of-two channel axis evenly.
        let threads = [1usize, 2, 4, 3][threads_idx];
        let traces = traces(&config, seed, 400);
        let sequential = run(&config, ctrl, &traces, 0);
        let threaded = run(&config, ctrl, &traces, threads);
        prop_assert_eq!(
            &sequential,
            &threaded,
            "threaded drive diverged: topology={:?} ctrl={:?} threads={} seed={}",
            config.topology,
            ctrl,
            threads,
            seed
        );
        let completed: u64 = sequential
            .per_channel()
            .iter()
            .map(|s| s.completed_requests)
            .sum();
        let expected: u64 = traces.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(completed, expected);
    }

    /// Consecutive measurement windows (write phase, statistics reset, read
    /// phase on the same router) must also agree for every thread count —
    /// any cross-phase clock or bank-state divergence desynchronizes the
    /// second window.
    #[test]
    fn threaded_drive_matches_sequential_across_stats_windows(
        preset_idx in 0usize..10,
        channels_log2 in 0u32..3,
        threads_idx in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = small_config(preset_idx, 2, 2, 7, 5, 1 << channels_log2, 1);
        let ctrl = ControllerConfig::default();
        let threads = [1usize, 2, 4, 3][threads_idx];
        let run_windows = |threads: usize| -> Vec<CombinedStats> {
            let mut router =
                ChannelRouter::new(config.clone(), ctrl).expect("router builds");
            let mut windows = Vec::new();
            for (phase, writes) in [(0u64, true), (1, false)] {
                let phase_traces: Vec<Vec<Request>> = traces(&config, seed ^ phase, 200)
                    .into_iter()
                    .map(|trace| {
                        trace
                            .into_iter()
                            .map(|r| {
                                if writes {
                                    Request::write(r.address)
                                } else {
                                    Request::read(r.address)
                                }
                            })
                            .collect()
                    })
                    .collect();
                windows.push(drive(&mut router, &phase_traces, threads));
                router.reset_stats();
            }
            windows
        };
        let sequential = run_windows(0);
        let threaded = run_windows(threads);
        prop_assert_eq!(
            sequential,
            threaded,
            "windows diverged for {} threads, seed {}",
            threads,
            seed
        );
    }
}
