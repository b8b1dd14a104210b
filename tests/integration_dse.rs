//! End-to-end tests of the address-mapping design-space exploration:
//! seed-reproducibility at any worker count, and replay of discovered
//! mappings as ordinary scenarios on both timing engines.

use tbi::{
    BitPermutation, DramConfig, DramStandard, InterleaverSpec, MappingKind, MappingSearch,
    Scenario, SearchSettings, SweepGrid, TimingEngine,
};

fn settings(workers: usize) -> SearchSettings {
    SearchSettings {
        seed: 7,
        restarts: 3,
        budget: 10,
        neighbors: 4,
        workers,
    }
}

fn run_search(workers: usize) -> tbi::SearchRecord {
    let dram = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
    MappingSearch::new(
        dram,
        InterleaverSpec::from_burst_count(4_000),
        settings(workers),
    )
    .run()
    .unwrap()
}

/// The acceptance-criterion invariant: a fixed seed reproduces the search
/// bit-for-bit at any worker count (records compare on every deterministic
/// field).
#[test]
fn search_is_bit_reproducible_for_a_fixed_seed_at_any_worker_count() {
    let one = run_search(1);
    let four = run_search(4);
    let auto = run_search(0);
    assert_eq!(one, four);
    assert_eq!(one, auto);
    assert_eq!(one.permutation, four.permutation);
    assert_eq!(one.best.activates, four.best.activates);
}

/// A discovered mapping replays as an ordinary scenario: the search's own
/// record is reproduced exactly, on both timing engines.
#[test]
fn discovered_permutations_replay_as_ordinary_scenarios_on_both_engines() {
    let outcome = run_search(1);
    let kind = MappingKind::parse_label(&outcome.best.mapping).unwrap();
    let dram = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
    let scenario = Scenario::custom(dram, kind, InterleaverSpec::from_burst_count(4_000));
    let event = scenario.clone().run().unwrap();
    let cycle = scenario.with_engine(TimingEngine::Cycle).run().unwrap();
    assert_eq!(event, cycle, "both engines agree on the discovered mapping");
    assert_eq!(event, outcome.best, "replay reproduces the search record");
}

/// Permutation design points ride the regular sweep machinery: they expand
/// through `SweepGrid` with distinct stable IDs next to the named schemes.
#[test]
fn permutations_sweep_through_the_grid_next_to_named_schemes() {
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let permutation = BitPermutation::for_scheme(
        tbi::dram::DecodeScheme::default(),
        &dram.geometry,
        tbi::ChannelTopology::default(),
    )
    .unwrap();
    let records = SweepGrid::new()
        .dram(dram)
        .size(2_000)
        .mapping(MappingKind::Optimized)
        .mapping(MappingKind::Permutation(permutation))
        .into_experiment()
        .with_workers(2)
        .run()
        .unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].mapping, "optimized");
    let label = format!("permutation:{permutation}");
    assert_eq!(records[1].mapping, label);
    assert!(records[1].scenario_id.contains(&label));
    assert_ne!(records[0].scenario_id, records[1].scenario_id);
}
