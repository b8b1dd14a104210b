//! Randomized cross-engine differential testing: for **random** small
//! geometries, topologies, controller configurations and request patterns,
//! the cycle-accurate and event-driven timing engines must produce
//! bit-identical [`Stats`] — every field, including diagnostics such as
//! `stall_cycles`.
//!
//! PR 3 pinned the engine equivalence on the fixed Table I presets and a
//! fixed ablation list (`tests/integration_engines.rs` at the workspace
//! root); this suite turns that pinning into randomized coverage, including
//! the multi-rank bank spaces and rank-switch bus bubbles introduced with
//! the channel/rank scale-out.  Bank groups and ranks are sampled up to 8
//! each, so up to 64 rank-qualified groups: past the event engine's fast
//! path limit of 8.  Two fixed cases run the native 8 groups × 4 ranks of
//! DDR5-3DS and DDR4-3200 at 4 ranks.  The case count follows proptest's
//! default (64) and is raised in CI via `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tbi_dram::{
    ChannelRouter, ChannelTopology, Controller, ControllerConfig, DramConfig, DramStandard,
    IteratorSource, RefreshMode, Request, SchedulingPolicy, Stats, TimingEngine,
};

/// Builds a small, valid DRAM configuration from sampled axis indices: a
/// preset supplies the (internally consistent) timing set, the geometry is
/// shrunk so refresh deadlines and row conflicts occur within a few
/// thousand cycles.
fn small_config(
    preset_idx: usize,
    bank_groups: u32,
    banks_per_group: u32,
    rows_log2: u32,
    cols_log2: u32,
    ranks: u32,
) -> DramConfig {
    // One combined axis: the paper's Table I presets followed by the modern
    // scale-out presets (HBM2, GDDR6, DDR5-3DS), so their timing sets are
    // differentially tested too.  The baked multi-channel topologies are
    // replaced below — the engines are per-channel.
    let paper = tbi_dram::standards::ALL_CONFIGS;
    let modern = tbi_dram::standards::MODERN_CONFIGS;
    let index = preset_idx % (paper.len() + modern.len());
    let (standard, rate) = if index < paper.len() {
        paper[index]
    } else {
        modern[index - paper.len()]
    };
    let mut config = DramConfig::preset(standard, rate).expect("preset exists");
    config.geometry.bank_groups = bank_groups;
    config.geometry.banks_per_group = banks_per_group;
    config.geometry.rows = 1 << rows_log2;
    config.geometry.columns_per_row = 1 << cols_log2;
    config.topology = ChannelTopology::new(1, ranks);
    config.validate().expect("sampled configuration is valid");
    config
}

/// Generates a request pattern mixing sequential runs (row hits), strided
/// jumps (conflicts, bank/rank switches) and direction changes — the access
/// classes whose timing interactions differ most between scheduler paths.
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
        // Jump: nearby (same rows, different banks) or far (row conflicts).
        cursor = if rng.gen_bool(0.5) {
            cursor.wrapping_add(rng.gen_range(1..64))
        } else {
            rng.gen_range(0..capacity)
        };
    }
    out
}

/// Runs `requests` through a fresh single-channel [`ChannelRouter`] under
/// `engine` (the same saturating drive loop every harness uses) and returns
/// the final window statistics.
fn run(
    config: &DramConfig,
    base: ControllerConfig,
    engine: TimingEngine,
    requests: &[Request],
) -> Stats {
    let ctrl = ControllerConfig { engine, ..base };
    let mut router = ChannelRouter::new(config.clone(), ctrl).expect("router builds");
    router
        .run_phase_sources(vec![IteratorSource(requests.iter().copied())])
        .aggregate()
}

proptest! {
    /// The headline differential property: identical `Stats` from both
    /// engines for random (geometry × topology × refresh × scheduling ×
    /// queue × pattern) combinations.
    #[test]
    fn cycle_and_event_engines_agree_on_random_configurations(
        preset_idx in 0usize..16,
        bank_groups_log2 in 0u32..4,
        banks_per_group_log2 in 1u32..3,
        rows_log2 in 6u32..8,
        cols_log2 in 4u32..7,
        ranks_log2 in 0u32..4,
        refresh_idx in 0usize..4,
        scheduling_idx in 0usize..2,
        queue_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let config = small_config(
            preset_idx,
            1 << bank_groups_log2,
            1 << banks_per_group_log2,
            rows_log2,
            cols_log2,
            1 << ranks_log2,
        );
        let base = ControllerConfig {
            refresh_mode: [
                None,
                Some(RefreshMode::AllBank),
                Some(RefreshMode::PerBank),
                Some(RefreshMode::Disabled),
            ][refresh_idx],
            scheduling: [SchedulingPolicy::FrFcfs, SchedulingPolicy::Fcfs][scheduling_idx],
            queue_capacity: [2, 8, 64][queue_idx],
            ..ControllerConfig::default()
        };
        let requests = pattern(&config, seed, 1_500);
        let cycle = run(&config, base, TimingEngine::Cycle, &requests);
        let event = run(&config, base, TimingEngine::Event, &requests);
        prop_assert_eq!(
            &cycle,
            &event,
            "engines diverged: geometry={:?} topology={:?} ctrl={:?} seed={}",
            config.geometry,
            config.topology,
            base,
            seed
        );
        prop_assert_eq!(cycle.completed_requests, requests.len() as u64);
    }

    /// Two consecutive measurement windows (write burst then read-back of
    /// the same addresses, statistics reset in between) must also agree —
    /// any off-by-one clock drift desynchronizes the second window's
    /// refresh deadlines.
    #[test]
    fn engines_agree_across_stats_windows(
        preset_idx in 0usize..16,
        ranks_log2 in 0u32..4,
        seed in 0u64..u64::MAX,
    ) {
        let config = small_config(preset_idx, 2, 2, 7, 5, 1 << ranks_log2);
        let run_windows = |engine: TimingEngine| {
            let ctrl = ControllerConfig { engine, ..ControllerConfig::default() };
            let mut controller = Controller::new(config.clone(), ctrl).expect("controller builds");
            let mut windows = Vec::new();
            for (phase, writes) in [(0u64, true), (1, false)] {
                let requests: Vec<Request> = pattern(&config, seed ^ phase, 600)
                    .into_iter()
                    .map(|r| {
                        if writes {
                            Request::write(r.address)
                        } else {
                            Request::read(r.address)
                        }
                    })
                    .collect();
                for request in requests {
                    while !controller.can_accept() {
                        controller.step();
                    }
                    assert!(controller.enqueue(request));
                }
                controller.drain();
                windows.push(controller.stats().clone());
                controller.reset_stats();
            }
            windows
        };
        let cycle = run_windows(TimingEngine::Cycle);
        let event = run_windows(TimingEngine::Event);
        prop_assert_eq!(cycle, event, "windows diverged for seed {}", seed);
    }
}

/// Cycle ≡ event on a preset's full native geometry and `ranks` ranks,
/// under the preset's own, all-bank and per-bank refresh: configurations
/// with more than 8 rank-qualified bank groups, which run off the event
/// engine's fast path today.
fn assert_native_engines_agree(standard: DramStandard, rate: u32, ranks: u32) {
    let config = DramConfig::preset(standard, rate)
        .expect("preset exists")
        .with_topology(ChannelTopology::new(1, ranks));
    for refresh_mode in [None, Some(RefreshMode::AllBank), Some(RefreshMode::PerBank)] {
        let base = ControllerConfig {
            refresh_mode,
            ..ControllerConfig::default()
        };
        let requests = pattern(&config, 7, 3_000);
        let cycle = run(&config, base, TimingEngine::Cycle, &requests);
        let event = run(&config, base, TimingEngine::Event, &requests);
        assert_eq!(cycle, event, "{} {refresh_mode:?}", config.label());
        assert_eq!(cycle.completed_requests, requests.len() as u64);
    }
}

#[test]
fn engines_agree_on_ddr5_3ds_native_eight_groups_by_four_ranks() {
    assert_native_engines_agree(DramStandard::Ddr5Stacked, 6400, 4);
}

#[test]
fn engines_agree_on_ddr4_3200_at_four_ranks() {
    assert_native_engines_agree(DramStandard::Ddr4, 3200, 4);
}
