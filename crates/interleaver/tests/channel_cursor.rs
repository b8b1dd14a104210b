//! Oracle for the per-channel trace cursor.
//!
//! A [`ChannelTrace`] visits only its own channel's positions.  Whatever
//! shortcut a router takes to find them, the channel's request sequence must
//! equal the brute-force filter this file keeps as the reference: walk the
//! whole phase order, route every position with [`ChannelMapping::route`]
//! and keep the ones on the channel.  The check covers every channel and
//! both phases, every router (row-major, stripe tile, permutations and
//! folds with channel bits), and index spaces that are not a multiple of
//! the stripe tile — including sizes where the tile shrinks — drained
//! through `fill_batch` in slices of 1, 7 and 4096, through the iterator,
//! and both mixed.
//!
//! The property test runs 12 cases by default; `PROPTEST_CASES` raises
//! the count (CI runs 256 in release).

use proptest::prelude::*;
use tbi_dram::standards::{ALL_CONFIGS, MODERN_CONFIGS};
use tbi_dram::{
    AddressField, BitPermutation, ChannelTopology, DramConfig, FoldOp, FoldStep, Request, XorFold,
};
use tbi_interleaver::mapping::{ChannelMapping, ChannelTrace, ChannelTraceGenerator};
use tbi_interleaver::{AccessPhase, MappingKind};

/// Channel/rank topologies under test.
const TOPOLOGIES: [(u32, u32); 4] = [(1, 1), (2, 1), (2, 2), (8, 1)];

/// `fill_batch` slice sizes: one request, an odd slice, a whole drain.
const FILL_MAX: [usize; 3] = [1, 7, 4096];

/// The walk-and-filter reference: every position of the phase order routed
/// with `route`, kept when it lands on `channel`.
fn walk_and_filter(mapping: &ChannelMapping, phase: AccessPhase, channel: u32) -> Vec<Request> {
    let n = mapping.dimension();
    let mut requests = Vec::new();
    for outer in 0..n {
        for inner in 0..n - outer {
            let (i, j) = match phase {
                AccessPhase::Write => (outer, inner),
                AccessPhase::Read => (inner, outer),
            };
            let (routed, address) = mapping.route(i, j);
            if routed == channel {
                requests.push(match phase {
                    AccessPhase::Write => Request::write(address),
                    AccessPhase::Read => Request::read(address),
                });
            }
        }
    }
    requests
}

/// Drains `trace` through `fill_batch(max)`, checking the slice contract on
/// the way: each call appends at least `max` requests unless the trace
/// ends, returns what it appended, and `0` only once exhausted.
fn drain(mut trace: ChannelTrace<'_>, max: usize, total: usize) -> Vec<Request> {
    let mut out = Vec::new();
    loop {
        let before = out.len();
        let appended = trace.fill_batch(&mut out, max);
        assert_eq!(appended, out.len() - before, "fill_batch miscounted");
        if appended == 0 {
            break;
        }
        assert!(
            appended >= max || out.len() == total,
            "short slice of {appended} < {max} before the end"
        );
    }
    assert_eq!(
        trace.fill_batch(&mut out, max),
        0,
        "an exhausted trace stays empty"
    );
    assert_eq!(trace.next(), None, "an exhausted trace stays empty");
    out
}

/// The kinds a topology can route: the named schemes, plus a permutation
/// and an xorfold that carry the topology's channel bits.  The fold
/// rewrites the channel field itself when the topology has one, so the lane
/// depends on row bits too.
fn kinds_for(dram: &DramConfig) -> Vec<MappingKind> {
    let topology = dram.topology;
    let permutation =
        BitPermutation::for_scheme(dram.decode_scheme, &dram.geometry, topology).unwrap();
    let target = if topology.channels > 1 {
        AddressField::Channel
    } else {
        AddressField::Bank
    };
    let fold = XorFold::new(&[FoldStep {
        target,
        source: AddressField::Row,
        shift: 0,
        op: FoldOp::Xor,
    }])
    .unwrap();
    let mut kinds = MappingKind::ALL.to_vec();
    kinds.push(MappingKind::Permutation(permutation));
    kinds.push(MappingKind::XorFolded(permutation, fold));
    kinds
}

fn preset(index: usize) -> DramConfig {
    let (standard, rate) = ALL_CONFIGS
        .iter()
        .chain(MODERN_CONFIGS)
        .copied()
        .nth(index)
        .unwrap();
    DramConfig::preset(standard, rate).unwrap()
}

/// Checks every channel and phase of `mapping` against the reference,
/// drained every way; the channels together must cover the triangle.
fn assert_traces_match_the_filter(mapping: &ChannelMapping) {
    let generator = ChannelTraceGenerator::new(mapping);
    let channels = mapping.topology().channels;
    for phase in AccessPhase::ALL {
        let mut covered = 0u64;
        // One channel past the topology owns nothing, like the filter says.
        for channel in 0..=channels {
            let expected = walk_and_filter(mapping, phase, channel);
            let context = format!(
                "{} n={} {}x{} {phase} channel {channel}",
                mapping.name(),
                mapping.dimension(),
                channels,
                mapping.topology().ranks
            );
            let iterated: Vec<Request> = generator.channel_requests(phase, channel).collect();
            assert!(iterated == expected, "iterator diverges: {context}");
            for max in FILL_MAX {
                let filled = drain(
                    generator.channel_requests(phase, channel),
                    max,
                    expected.len(),
                );
                assert!(filled == expected, "fill_batch({max}) diverges: {context}");
            }
            let mut trace = generator.channel_requests(phase, channel);
            let mut mixed = Vec::new();
            while let Some(request) = trace.next() {
                mixed.push(request);
                trace.fill_batch(&mut mixed, 7);
            }
            assert!(
                mixed == expected,
                "mixed next/fill_batch diverges: {context}"
            );
            covered += expected.len() as u64;
        }
        assert_eq!(covered, generator.requests_per_phase());
    }
}

/// Cases of the property test: `PROPTEST_CASES` when set, else 12.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|value| value.parse().ok())
        .filter(|&cases| cases > 0)
        .unwrap_or(12)
}

#[test]
fn every_router_matches_the_filter_on_a_ragged_size() {
    // n = 203 is no multiple of any stripe tile and shrinks the tile to 16
    // on the 8-channel topology.
    let n = 203;
    for (channels, ranks) in TOPOLOGIES {
        let dram = preset(0).with_topology(ChannelTopology::new(channels, ranks));
        for kind in kinds_for(&dram) {
            let mapping = ChannelMapping::new(kind, &dram, n).unwrap();
            assert_traces_match_the_filter(&mapping);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    #[test]
    fn channel_traces_equal_the_walk_and_filter_reference(
        preset_idx in 0usize..ALL_CONFIGS.len() + MODERN_CONFIGS.len(),
        topology_idx in 0usize..TOPOLOGIES.len(),
        kind_idx in 0usize..MappingKind::ALL.len() + 2,
        n in 20u32..600,
    ) {
        let (channels, ranks) = TOPOLOGIES[topology_idx];
        let dram = preset(preset_idx).with_topology(ChannelTopology::new(channels, ranks));
        let kinds = kinds_for(&dram);
        let kind = kinds[kind_idx % kinds.len()];
        let mapping = ChannelMapping::new(kind, &dram, n).unwrap();
        assert_traces_match_the_filter(&mapping);
    }
}
