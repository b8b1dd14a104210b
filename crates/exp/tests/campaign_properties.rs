//! Determinism and regression tests for the campaign subsystem, plus
//! modern-preset acceptance for the mapping search.
//!
//! The campaign's claims only mean something if its measurements are
//! reproducible: the same seed and pass profile must yield bit-identical
//! error statistics, the worker count must never leak into the records, and
//! the link summary must survive the multi-channel execution path
//! unchanged.

use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
use tbi_exp::{
    CampaignConfig, CampaignReport, Experiment, LinkStage, MappingSearch, Scenario, SearchSettings,
};
use tbi_interleaver::{InterleaverSpec, MappingKind};
use tbi_satcom::link::InterleaverChoice;
use tbi_satcom::{LinkConfig, LinkProfile, Weather};

/// A campaign small enough for the test suite but with both a paper and a
/// modern preset, two depths and two code rates.
fn small_campaign(seed: u64, workers: usize) -> CampaignReport {
    CampaignConfig::new(LinkProfile::leo_pass(45.0, Weather::Clear))
        .preset(DramStandard::Ddr4, 3200)
        .unwrap()
        .preset(DramStandard::Gddr6, 16000)
        .unwrap()
        .depths([4, 16])
        .code_rates([(239, 255), (223, 255)])
        .size(1_500)
        .trials(2)
        .seed(seed)
        .workers(workers)
        .build()
        .run()
        .unwrap()
}

/// Same seed + same profile ⇒ bit-identical records, including every link
/// error counter; a different campaign seed must actually change the
/// channel realisations.
#[test]
fn same_seed_and_profile_reproduce_bit_identical_error_statistics() {
    let a = small_campaign(7, 1);
    let b = small_campaign(7, 1);
    assert_eq!(a.records, b.records);
    assert_eq!(a.frontiers, b.frontiers);
    assert!(a.records.iter().all(|r| r.link.is_some()));

    let c = small_campaign(8, 1);
    let links_differ = a
        .records
        .iter()
        .zip(&c.records)
        .any(|(x, y)| x.link != y.link);
    assert!(
        links_differ,
        "a different campaign seed must reseed the link channels"
    );
}

/// The experiment worker pool must not leak into the results: a 1-worker
/// and an N-worker campaign are bit-identical, records and frontiers both.
#[test]
fn one_and_many_worker_campaigns_are_bit_identical() {
    let sequential = small_campaign(7, 1);
    for workers in [2, 5] {
        let parallel = small_campaign(7, workers);
        assert_eq!(
            sequential.records, parallel.records,
            "records diverged at {workers} workers"
        );
        assert_eq!(sequential.frontiers, parallel.frontiers);
    }
}

/// Regression for the multi-channel execution path: a 4-channel scenario
/// with the same link stage must carry the identical link summary as the
/// 1×1 run — the link is a transmission-side property and must not be
/// rescaled or dropped when the DRAM side fans out across channels.
#[test]
fn multi_channel_scenario_carries_the_same_link_summary_as_single_channel() {
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let spec = InterleaverSpec::from_burst_count(2_000);
    let stage = || {
        LinkStage::new(0.0)
            .with_config(LinkConfig {
                rs_code_len: 255,
                rs_data_len: 223,
                codewords: 8,
                interleaver: InterleaverChoice::Triangular,
            })
            .with_profile(LinkProfile::leo_pass(45.0, Weather::Clear))
            .with_seed(0xBEEF)
            .with_trials(2)
    };
    let records = Experiment::new(vec![
        Scenario::custom(dram.clone(), MappingKind::Optimized, spec).with_link(stage()),
        Scenario::custom(
            dram.with_topology(ChannelTopology::new(4, 1)),
            MappingKind::Optimized,
            spec,
        )
        .with_link(stage()),
    ])
    .run()
    .unwrap();

    assert_eq!(records[0].channels, 1);
    assert_eq!(records[1].channels, 4);
    let single = records[0].link.expect("1x1 run carries a link summary");
    let quad = records[1]
        .link
        .expect("4-channel run carries a link summary");
    assert_eq!(single, quad);
    assert!(
        single.channel_symbol_error_rate > 0.0,
        "the pass must corrupt symbols for the comparison to pin anything"
    );
    assert!((single.code_rate - 223.0 / 255.0).abs() < 1e-12);
    assert_eq!(single.interleaver_depth, 8);
}

/// Every modern preset must be accepted by the portfolio mapping search
/// end to end (baked topology included) without panicking, and produce a
/// well-formed record.
#[test]
fn portfolio_search_accepts_every_modern_preset() {
    let settings = SearchSettings {
        restarts: 2,
        budget: 6,
        neighbors: 2,
        workers: 1,
        ..SearchSettings::default()
    };
    for standard in DramStandard::MODERN {
        let rate = standard.paper_speed_grades()[1];
        let dram = DramConfig::preset(standard, rate).unwrap();
        let label = dram.label();
        let spec = InterleaverSpec::from_burst_count(4_000);
        let record = MappingSearch::new(dram, spec, settings).run().unwrap();
        assert_eq!(record.dram_label, label);
        assert!(
            record.row_hit_gain() > 0.0,
            "{label}: search must produce a comparable row-hit gain"
        );
    }
}
