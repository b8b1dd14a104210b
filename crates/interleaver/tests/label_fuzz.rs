//! Arbitrary text never panics the mapping-label path: whatever string
//! reaches [`MappingKind::parse_label`], parsing returns a kind or an error,
//! and every kind that parses builds a [`ChannelMapping`] (or returns an
//! error) on a 1 × 1 and a 2 × 2 preset and routes one position.
//!
//! The generator is biased toward the real label alphabet — the
//! `permutation:`, `xorfold:` and `tiled:` prefixes, the field codes, fold
//! steps, tile shapes, digits and whole valid permutations of the presets —
//! so a share of the strings parse and reach the constructors.

use proptest::prelude::*;
use tbi_dram::{BitPermutation, ChannelTopology, DecodeScheme, DramConfig, DramStandard};
use tbi_interleaver::mapping::ChannelMapping;
use tbi_interleaver::MappingKind;

/// Label prefixes: the three parameterized forms, and none.
const PREFIXES: [&str; 4] = ["permutation:", "xorfold:", "tiled:", ""];

/// Pieces of a label body; [`label`] adds the presets' valid permutations.
const PIECES: &[&str] = &[
    "H",
    "K",
    "G",
    "B",
    "R",
    "C",
    "r",
    "c",
    "|",
    "|B^R0",
    "|B+R2,H^R1",
    "^",
    "+",
    ",",
    "x",
    "8x8",
    "7x16",
    "0x4",
    "0",
    "1",
    "7",
    "16",
    "256",
    "4294967296",
    "-",
    " ",
    "optimized",
    "row-major",
    "tiled",
];

/// The two presets every parsed kind is built on: DDR4-3200 at 1 × 1 and
/// at 2 × 2.
fn presets() -> [DramConfig; 2] {
    let ddr4 = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    [ddr4.clone(), ddr4.with_topology(ChannelTopology::new(2, 2))]
}

/// Builds a label: `prefix` picks one of [`PREFIXES`], then each pick adds
/// a body piece — three in four an alphabet piece or one of the presets'
/// valid permutations, the rest an arbitrary character (surrogate codes
/// become U+FFFD).
fn label(prefix: usize, picks: &[u32], permutations: &[String]) -> String {
    let mut text = PREFIXES[prefix].to_string();
    for &pick in picks {
        let piece = (pick / 4) as usize % (PIECES.len() + permutations.len());
        if pick % 4 == 0 {
            text.push(char::from_u32(pick / 4).unwrap_or('\u{fffd}'));
        } else if piece < PIECES.len() {
            text.push_str(PIECES[piece]);
        } else {
            text.push_str(&permutations[piece - PIECES.len()]);
        }
    }
    text
}

/// The scheme permutations of both presets and a non-contiguous variant of
/// each, as label text.
fn valid_permutations() -> Vec<String> {
    presets()
        .iter()
        .flat_map(|config| {
            DecodeScheme::ALL.map(|scheme| {
                BitPermutation::for_scheme(scheme, &config.geometry, config.topology).unwrap()
            })
        })
        .flat_map(|permutation| {
            let top = permutation.fields().len() - 1;
            [permutation, permutation.with_swap(0, top)]
        })
        .map(|permutation| permutation.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]
    #[test]
    fn arbitrary_labels_parse_build_and_route_without_panicking(
        prefix in 0usize..PREFIXES.len(),
        picks in proptest::collection::vec(0u32..4 * 0x11_0000, 0..6),
        n in 1u32..400,
        i in 0u32..400,
        j in 0u32..400,
    ) {
        let text = label(prefix, &picks, &valid_permutations());
        let Ok(kind) = MappingKind::parse_label(&text) else {
            return Ok(());
        };
        prop_assert_eq!(MappingKind::parse_label(&kind.label()).ok(), Some(kind));
        for config in presets() {
            let Ok(mapping) = ChannelMapping::new(kind, &config, n) else {
                continue;
            };
            let i = i % n;
            let j = j % (n - i);
            let (channel, address) = mapping.route(i, j);
            prop_assert!(channel < config.topology.channels, "{} channel {}", text, channel);
            prop_assert!(
                address.is_valid_for_ranks(&config.geometry, config.topology.ranks),
                "{} routed ({}, {}) out of bounds: {}",
                text, i, j, address
            );
        }
    }
}
