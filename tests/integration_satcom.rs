//! Integration tests spanning the satcom and interleaver crates: the
//! end-to-end coding + interleaving pipeline and the bandwidth budget.

use rand::SeedableRng;
use tbi::satcom::channel::SymbolChannel;
use tbi::satcom::link::{interleaving_gain, InterleaverChoice, LinkConfig};
use tbi::{
    BandwidthBudget, CoherenceFading, DramConfig, DramStandard, GilbertElliott, InterleaverSpec,
    MappingKind, ReedSolomon, Scenario, TwoStageInterleaver,
};

#[test]
fn interleaving_gain_is_reproducible_across_seeds() {
    // RS(63,47) corrects 8 symbol errors; the bursts below average ~35
    // consecutive errors, so an uninterleaved code word dies while the
    // interleaved stream spreads each burst over dozens of code words.
    let channel = GilbertElliott::new(0.001, 0.02, 0.0, 0.7);
    let config = LinkConfig {
        rs_code_len: 63,
        rs_data_len: 47,
        codewords: 300,
        interleaver: InterleaverChoice::Triangular,
    };
    let mut wins = 0;
    let runs = 5;
    for seed in 0..runs {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + seed);
        let (without, with) = interleaving_gain(config, &channel, &mut rng).unwrap();
        if with.frame_error_rate() <= without.frame_error_rate() {
            wins += 1;
        }
    }
    assert!(
        wins >= runs - 1,
        "interleaving should win on (almost) every seed, won {wins}/{runs}"
    );
}

#[test]
fn two_stage_interleaver_survives_a_full_burst_erasure() {
    // Build a small two-stage interleaver and verify that wiping out a whole
    // DRAM burst touches at most one symbol per code word - the property the
    // SRAM pre-interleaver exists for.
    let symbols_per_burst = 8u32;
    let codewords = 16u32;
    let il = TwoStageInterleaver::new(32, codewords, symbols_per_burst).unwrap();
    let block = il.sram_stage().len() as u32;
    // Tag each symbol with its code word id within its SRAM block.
    let data: Vec<u32> = (0..il.symbol_count() as u32)
        .map(|i| (i % block) / symbols_per_burst + (i / block) * codewords)
        .collect();
    let tx = il.interleave(&data).unwrap();
    for (burst_index, burst) in tx.chunks(symbols_per_burst as usize).enumerate() {
        let mut tags: Vec<u32> = burst.to_vec();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(
            tags.len(),
            symbols_per_burst as usize,
            "burst {burst_index} contains repeated code words"
        );
    }
}

#[test]
fn coherence_fading_bursts_are_broken_up_by_the_interleaver() {
    // A fade lasting thousands of symbols overwhelms RS(63,47) directly, but
    // after triangular interleaving the residual frame error rate drops.
    let channel = CoherenceFading::from_link(0.5, 1.0, 0.05, 0.9);
    assert!(channel.average_symbol_error_rate() < 0.06);
    let config = LinkConfig {
        rs_code_len: 63,
        rs_data_len: 47,
        codewords: 400,
        interleaver: InterleaverChoice::Triangular,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let (without, with) = interleaving_gain(config, &channel, &mut rng).unwrap();
    assert!(
        with.frame_error_rate() <= without.frame_error_rate(),
        "interleaver should help: {} vs {}",
        with.frame_error_rate(),
        without.frame_error_rate()
    );
}

#[test]
fn reed_solomon_handles_interleaved_round_trip() {
    let rs = ReedSolomon::new(63, 47).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let channel = GilbertElliott::new(0.0, 1.0, 0.0, 0.0);
    let data: Vec<u8> = (0..47).collect();
    let codeword = rs.encode(&data).unwrap();
    let received = channel.corrupt(&codeword, &mut rng);
    assert_eq!(rs.decode(&received).unwrap(), data);
}

#[test]
fn dram_utilization_feeds_the_link_budget() {
    // Close the loop between the two halves of the reproduction: measure the
    // utilization of both mappings on LPDDR5-8533 and check what line rate
    // they can sustain.
    let dram = DramConfig::preset(DramStandard::Lpddr5, 8533).unwrap();
    let spec = InterleaverSpec::from_burst_count(30_000);
    let max_line_rate = |kind| {
        let record = Scenario::custom(dram.clone(), kind, spec).run().unwrap();
        BandwidthBudget::max_line_rate_gbps(&dram, record.min_utilization)
    };
    let max_rate_row_major = max_line_rate(MappingKind::RowMajor);
    let max_rate_optimized = max_line_rate(MappingKind::Optimized);
    assert!(
        max_rate_optimized > max_rate_row_major,
        "optimized mapping must sustain a higher line rate"
    );
    // The optimized mapping must make the 100 Gbit/s-class target reachable
    // on this single channel.
    assert!(
        max_rate_optimized > 100.0,
        "optimized mapping should sustain >100 Gbit/s, got {max_rate_optimized:.1}"
    );
}
