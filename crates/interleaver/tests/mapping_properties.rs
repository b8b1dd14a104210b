//! Property tests for the DRAM address mappings: every [`MappingKind`] must
//! be a bijection from the whole triangular index space onto *distinct*
//! (bank, row, column) addresses that lie within the device bounds, for
//! randomized interleaver sizes and every DRAM preset of the paper.
//!
//! This is the exhaustive counterpart to the sampled in-crate property test:
//! instead of probing random positions it walks the complete index space, so
//! an off-by-one at the triangle edge or a collision between tile boundaries
//! cannot hide.

use proptest::prelude::*;
use std::collections::HashSet;
use tbi_dram::standards::{ALL_CONFIGS, MODERN_CONFIGS};
use tbi_dram::{
    AddressField, BitPermutation, ChannelTopology, DecodeScheme, DramConfig, DramStandard, FoldOp,
    FoldStep, PermutationMapping, XorFold,
};
use tbi_interleaver::mapping::{ChannelMapping, PermutedMapping};
use tbi_interleaver::{InterleaverSpec, MappingKind};

/// One combined preset axis: the paper's Table I configurations followed by
/// the modern scale-out presets (HBM2 pseudo-channel, GDDR6, DDR5-3DS), so
/// every property below covers the campaign devices alongside the paper's.
fn preset_at(index: usize) -> (DramStandard, u32) {
    if index < ALL_CONFIGS.len() {
        ALL_CONFIGS[index]
    } else {
        MODERN_CONFIGS[index - ALL_CONFIGS.len()]
    }
}

/// Length of the combined preset axis for strategy ranges.
fn preset_count() -> usize {
    ALL_CONFIGS.len() + MODERN_CONFIGS.len()
}

/// Every campaign device must hold the paper's full-size interleaver under
/// both Table I mappings, baked topology included.  This is a construction
/// (capacity) check, not a simulation: the optimized mapping's padded
/// square footprint is roughly twice the triangular burst count, and the
/// channel stripe router interleaves accesses — not capacity — so each
/// channel must address the whole padded frame.
#[test]
fn modern_presets_hold_the_full_size_interleaver_under_both_mappings() {
    let n = InterleaverSpec::from_burst_count(12_500_000).dimension();
    for &(standard, rate) in MODERN_CONFIGS {
        let dram = DramConfig::preset(standard, rate).unwrap();
        for kind in MappingKind::TABLE1 {
            ChannelMapping::new(kind, &dram, n).unwrap_or_else(|e| {
                panic!(
                    "{} / {kind} rejects the full-size interleaver: {e}",
                    dram.label()
                )
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_mapping_is_a_bijection_within_device_bounds(
        preset_idx in 0usize..preset_count(),
        kind_idx in 0usize..MappingKind::ALL.len(),
        bursts in 64u64..20_000,
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let dram = DramConfig::preset(standard, rate).unwrap();
        let spec = InterleaverSpec::from_burst_count(bursts);
        let n = spec.dimension();
        let kind = MappingKind::ALL[kind_idx];
        let mapping = kind.build(&dram, n).unwrap();

        let mut addresses = HashSet::with_capacity(spec.total_positions() as usize);
        for i in 0..n {
            for j in 0..n - i {
                let addr = mapping.map(i, j);
                prop_assert!(
                    addr.is_valid_for(&dram.geometry),
                    "{kind} on {}: ({i},{j}) mapped out of bounds to {addr:?}",
                    dram.label()
                );
                prop_assert!(
                    addresses.insert(addr),
                    "{kind} on {}: address collision at ({i},{j})",
                    dram.label()
                );
            }
        }
        prop_assert_eq!(addresses.len() as u64, spec.total_positions());
    }

    #[test]
    fn mappings_agree_with_spec_capacity_check(
        kind_idx in 0usize..MappingKind::ALL.len(),
        bursts in 64u64..50_000,
    ) {
        // If the spec says the interleaver fits the device, the mapping must
        // build; the smallest paper preset (DDR3-800) is the tightest case.
        let dram = DramConfig::preset(tbi_dram::DramStandard::Ddr3, 800).unwrap();
        let spec = InterleaverSpec::from_burst_count(bursts);
        let fits = spec.check_capacity(dram.geometry.total_bursts()).is_ok();
        let built = MappingKind::ALL[kind_idx].build(&dram, spec.dimension()).is_ok();
        prop_assert!(
            !fits || built,
            "spec fits ({} bursts) but mapping failed to build",
            spec.total_positions()
        );
    }

    /// Channel splice of the scheme permutations: for every preset geometry,
    /// decode scheme and channel/rank topology, the scheme's permutation
    /// ([`BitPermutation::for_scheme`]) puts the channel bits at the bottom
    /// of the linear index and decodes the rest exactly like the same
    /// scheme's one-channel permutation over the same ranks.
    #[test]
    fn scheme_permutations_decode_bit_identically_across_geometries_and_topologies(
        preset_idx in 0usize..preset_count(),
        scheme_idx in 0usize..DecodeScheme::ALL.len(),
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..3,
        start in 0u64..(1u64 << 24),
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let geometry = DramConfig::preset(standard, rate).unwrap().geometry;
        let scheme = DecodeScheme::ALL[scheme_idx];
        let channels = 1u32 << channels_log2;
        let ranks = 1u32 << ranks_log2;
        let topology = ChannelTopology::new(channels, ranks);
        let permutation = BitPermutation::for_scheme(scheme, &geometry, topology).unwrap();
        let mapping = PermutationMapping::new(geometry, topology, permutation).unwrap();
        let per_channel =
            PermutationMapping::for_scheme(scheme, geometry, ChannelTopology::new(1, ranks))
                .unwrap();
        for linear in start..start + 512 {
            let (channel, address) = mapping.decode(linear);
            prop_assert_eq!(channel, (linear % u64::from(channels)) as u32);
            let expected = per_channel.decode(linear / u64::from(channels));
            prop_assert_eq!(
                (0, address),
                expected,
                "{:?}-{} {:?} c{}r{} linear={}",
                standard, rate, scheme, channels, ranks, linear
            );
            prop_assert_eq!(mapping.encode(channel, address), linear);
        }
    }

    /// The row-major baseline's permutation form, driven through the
    /// interleaver layer: a padded [`PermutedMapping`] of the default
    /// scheme's permutation agrees with the packed row-major one wherever
    /// the two linearizations coincide (the full first index row, where the
    /// compact triangular rank equals the padded linear index).
    #[test]
    fn row_major_permutation_form_matches_on_the_first_row(
        preset_idx in 0usize..preset_count(),
        n in 64u32..2000,
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let geometry = DramConfig::preset(standard, rate).unwrap().geometry;
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::default(),
            &geometry,
            ChannelTopology::default(),
        )
        .unwrap();
        let permuted =
            PermutedMapping::new(geometry, ChannelTopology::default(), permutation, n).unwrap();
        let row_major = PermutedMapping::row_major(
            geometry,
            ChannelTopology::default(),
            DecodeScheme::default(),
            n,
        )
        .unwrap();
        use tbi_interleaver::DramMapping;
        for j in 0..n.min(512) {
            prop_assert_eq!(permuted.map(0, j), row_major.map(0, j), "j={}", j);
        }
    }

    /// Batched address generation: `map_batch` must fill lanes bit-identical
    /// to per-element `map()` for every preset, every decode scheme (the
    /// row-major baseline honours it), every named kind, and both
    /// permutation decode plans — including the non-contiguous "gather"
    /// permutation that exercises the scatter-table slow path.
    #[test]
    fn map_batch_lanes_equal_scalar_map_for_all_presets_schemes_and_kinds(
        preset_idx in 0usize..preset_count(),
        scheme_idx in 0usize..DecodeScheme::ALL.len(),
        kind_idx in 0usize..MappingKind::ALL.len() + 2,
        n in 64u32..300,
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let mut dram = DramConfig::preset(standard, rate).unwrap();
        dram.decode_scheme = DecodeScheme::ALL[scheme_idx];
        let kind = if kind_idx < MappingKind::ALL.len() {
            MappingKind::ALL[kind_idx]
        } else {
            let contiguous = BitPermutation::for_scheme(
                dram.decode_scheme,
                &dram.geometry,
                ChannelTopology::default(),
            )
            .unwrap();
            if kind_idx == MappingKind::ALL.len() {
                MappingKind::Permutation(contiguous)
            } else {
                // Swapping low against high bits breaks every field's
                // contiguity: the scalar decode takes the per-bit gather
                // loop, the batch kernel its multi-segment scatter plan.
                let top = contiguous.fields().len() - 1;
                MappingKind::Permutation(contiguous.with_swap(0, top).with_swap(1, top / 2))
            }
        };
        let mapping = kind.build(&dram, n).unwrap();

        let coords: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..n - i).map(move |j| (i, j)))
            .collect();
        let mut batch = tbi_dram::AddressBatch::new();
        mapping.map_batch(&coords, &mut batch);
        prop_assert_eq!(batch.len(), coords.len());
        for (index, &(i, j)) in coords.iter().enumerate() {
            let (channel, address) = batch.get(index);
            prop_assert_eq!(channel, 0, "single-channel batch at ({},{})", i, j);
            prop_assert_eq!(
                address,
                mapping.map(i, j),
                "{} on {}: batch diverges at ({},{})",
                kind, dram.label(), i, j
            );
        }
    }

    /// Batched channel routing: `route_batch` must agree with per-element
    /// `route()` for every preset, decode scheme, channel/rank topology and
    /// router (linear-splice, stripe-tile, permutation — contiguous and
    /// gather forms).
    #[test]
    fn route_batch_equals_scalar_route_across_topologies_and_schemes(
        preset_idx in 0usize..preset_count(),
        scheme_idx in 0usize..DecodeScheme::ALL.len(),
        kind_idx in 0usize..MappingKind::ALL.len() + 2,
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        n in 64u32..250,
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let mut dram = DramConfig::preset(standard, rate).unwrap();
        dram.decode_scheme = DecodeScheme::ALL[scheme_idx];
        let topology = ChannelTopology::new(1 << channels_log2, 1 << ranks_log2);
        let dram = dram.with_topology(topology);
        let kind = if kind_idx < MappingKind::ALL.len() {
            MappingKind::ALL[kind_idx]
        } else {
            let contiguous =
                BitPermutation::for_scheme(dram.decode_scheme, &dram.geometry, topology)
                    .unwrap();
            if kind_idx == MappingKind::ALL.len() {
                MappingKind::Permutation(contiguous)
            } else {
                let top = contiguous.fields().len() - 1;
                MappingKind::Permutation(contiguous.with_swap(0, top).with_swap(1, top / 2))
            }
        };
        let mapping = ChannelMapping::new(kind, &dram, n).unwrap();

        let coords: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..n - i).map(move |j| (i, j)))
            .collect();
        let mut batch = tbi_dram::AddressBatch::new();
        mapping.route_batch(&coords, &mut batch);
        prop_assert_eq!(batch.len(), coords.len());
        for (index, &(i, j)) in coords.iter().enumerate() {
            prop_assert_eq!(
                batch.get(index),
                mapping.route(i, j),
                "{} on {} {}x{}: batch route diverges at ({},{})",
                kind, dram.label(), topology.channels, topology.ranks, i, j
            );
        }
    }

    /// Scaled-out topologies: the permutation variant of a scenario routes
    /// through [`ChannelMapping`] injectively, covers every channel, and
    /// respects the rank bounds — for random (channels, ranks) and sizes.
    #[test]
    fn permutation_channel_routing_is_injective_across_topologies(
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        n in 64u32..400,
    ) {
        let channels = 1u32 << channels_log2;
        let ranks = 1u32 << ranks_log2;
        let config = DramConfig::preset(tbi_dram::DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(channels, ranks));
        let permutation = BitPermutation::for_scheme(
            DecodeScheme::default(),
            &config.geometry,
            config.topology,
        )
        .unwrap();
        let mapping =
            ChannelMapping::new(MappingKind::Permutation(permutation), &config, n).unwrap();
        let mut seen = HashSet::new();
        let mut used_channels = HashSet::new();
        for i in 0..n {
            for j in 0..n - i {
                let (channel, address) = mapping.route(i, j);
                prop_assert!(channel < channels);
                prop_assert!(address.is_valid_for_ranks(&config.geometry, ranks));
                prop_assert!(seen.insert((channel, address)), "collision at ({},{})", i, j);
                used_channels.insert(channel);
            }
        }
        prop_assert_eq!(used_channels.len() as u32, channels);
    }

    /// XOR/ADD-folded mappings: for every Table I preset, decode scheme,
    /// channel/rank topology and fold op, the hybrid
    /// [`MappingKind::XorFolded`] routes the whole triangle injectively to
    /// in-bounds addresses, and its batched kernel stays bit-identical to
    /// per-element `route()`.  Each fold step masks its target to the
    /// field's width and targets a field distinct from its source, so the
    /// composite must stay a bijection — this test walks the complete
    /// index space so a collision at a tile or triangle boundary cannot
    /// hide.
    #[test]
    fn folded_mappings_are_injective_and_batch_consistent_everywhere(
        preset_idx in 0usize..preset_count(),
        scheme_idx in 0usize..DecodeScheme::ALL.len(),
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        op_idx in 0usize..2,
        shift in 0u8..2,
        n in 64u32..250,
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let mut dram = DramConfig::preset(standard, rate).unwrap();
        dram.decode_scheme = DecodeScheme::ALL[scheme_idx];
        let topology = ChannelTopology::new(1 << channels_log2, 1 << ranks_log2);
        let dram = dram.with_topology(topology);
        let permutation =
            BitPermutation::for_scheme(dram.decode_scheme, &dram.geometry, topology).unwrap();
        let op = if op_idx == 0 { FoldOp::Xor } else { FoldOp::Add };
        // A two-step fold: the diagonal bank term plus a column scramble,
        // exercising both the fold chain and both operators.
        let fold = XorFold::new(&[
            FoldStep { target: AddressField::Bank, source: AddressField::Row, shift, op },
            FoldStep {
                target: AddressField::Column,
                source: AddressField::Bank,
                shift: 0,
                op: FoldOp::Xor,
            },
        ])
        .unwrap();
        // Both steps are always valid here (bank and row bits exist with
        // width > shift on every preset) — assert rather than assume.
        prop_assert!(fold.validate_for(&permutation).is_ok());
        let kind = MappingKind::XorFolded(permutation, fold);
        let mapping = ChannelMapping::new(kind, &dram, n).unwrap();

        let mut seen = HashSet::new();
        for i in 0..n {
            for j in 0..n - i {
                let (channel, address) = mapping.route(i, j);
                prop_assert!(channel < topology.channels);
                prop_assert!(address.is_valid_for_ranks(&dram.geometry, topology.ranks));
                prop_assert!(
                    seen.insert((channel, address)),
                    "{} on {} {}x{} {:?} shift {}: collision at ({},{})",
                    kind, dram.label(), topology.channels, topology.ranks, op, shift, i, j
                );
            }
        }

        let coords: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..n - i).map(move |j| (i, j)))
            .collect();
        let mut batch = tbi_dram::AddressBatch::new();
        mapping.route_batch(&coords, &mut batch);
        prop_assert_eq!(batch.len(), coords.len());
        for (index, &(i, j)) in coords.iter().enumerate() {
            prop_assert_eq!(
                batch.get(index),
                mapping.route(i, j),
                "{} on {}: folded batch diverges at ({},{})",
                kind, dram.label(), i, j
            );
        }
    }

    /// Free-shape tilings: for every Table I preset, tile height (width
    /// derived as `page / tile_h`, so the tile always fits one page) and
    /// channel/rank topology, [`MappingKind::GeneralTiled`] routes the
    /// whole triangle injectively to in-bounds addresses and its batched
    /// kernel matches per-element `route()`.  Non-power-of-two edges (the
    /// 11 × 11 page-prefix tile and ragged splits like 3 × 42) leave page
    /// columns unused, so a collision can only come from the tile/row
    /// packing arithmetic — which this walks completely.
    #[test]
    fn general_tiled_routes_injectively_for_every_preset_shape_and_topology(
        preset_idx in 0usize..preset_count(),
        tile_h in 2u32..33,
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        n in 64u32..250,
    ) {
        let (standard, rate) = preset_at(preset_idx);
        let topology = ChannelTopology::new(1 << channels_log2, 1 << ranks_log2);
        let dram = DramConfig::preset(standard, rate)
            .unwrap()
            .with_topology(topology);
        // The smallest page (64 columns) over the largest tile_h (32)
        // still yields a two-column tile, so every draw is constructible.
        let tile_w = dram.geometry.columns_per_row / tile_h;
        prop_assert!(tile_w >= 2);
        let kind = MappingKind::GeneralTiled { tile_h, tile_w };
        let mapping = ChannelMapping::new(kind, &dram, n).unwrap();

        let mut seen = HashSet::new();
        for i in 0..n {
            for j in 0..n - i {
                let (channel, address) = mapping.route(i, j);
                prop_assert!(channel < topology.channels);
                prop_assert!(address.is_valid_for_ranks(&dram.geometry, topology.ranks));
                prop_assert!(
                    seen.insert((channel, address)),
                    "{} on {} {}x{}: collision at ({},{})",
                    kind, dram.label(), topology.channels, topology.ranks, i, j
                );
            }
        }

        let coords: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..n - i).map(move |j| (i, j)))
            .collect();
        let mut batch = tbi_dram::AddressBatch::new();
        mapping.route_batch(&coords, &mut batch);
        prop_assert_eq!(batch.len(), coords.len());
        for (index, &(i, j)) in coords.iter().enumerate() {
            prop_assert_eq!(
                batch.get(index),
                mapping.route(i, j),
                "{} on {}: tiled batch diverges at ({},{})",
                kind, dram.label(), i, j
            );
        }
    }

    /// Stripe-tile routing: for every preset, tile-routed mapping kind and
    /// channel/rank topology, the stripe-tile router (the diagonal lane
    /// with its per-channel column compaction) stays injective over the
    /// whole triangle and its batched kernel matches per-element `route()`.
    #[test]
    fn stripe_tiles_route_injectively_for_every_kind_preset_and_topology(
        preset_idx in 0usize..preset_count(),
        kind_idx in 0usize..4,
        channels_log2 in 0u32..3,
        ranks_log2 in 0u32..2,
        n in 64u32..250,
    ) {
        // Every kind on the stripe-tile router (all but the row-major
        // linear splice and the full-permutation forms).
        let tile_kinds = [
            MappingKind::BankRoundRobin,
            MappingKind::Tiled,
            MappingKind::OptimizedNoStagger,
            MappingKind::Optimized,
        ];
        let kind = tile_kinds[kind_idx];
        let (standard, rate) = preset_at(preset_idx);
        let topology = ChannelTopology::new(1 << channels_log2, 1 << ranks_log2);
        let dram = DramConfig::preset(standard, rate)
            .unwrap()
            .with_topology(topology);
        let mapping = ChannelMapping::new(kind, &dram, n).unwrap();

        let mut seen = HashSet::new();
        for i in 0..n {
            for j in 0..n - i {
                let (channel, address) = mapping.route(i, j);
                prop_assert!(channel < topology.channels);
                prop_assert!(address.is_valid_for_ranks(&dram.geometry, topology.ranks));
                prop_assert!(
                    seen.insert((channel, address)),
                    "{} on {} {}x{}: collision at ({},{})",
                    kind, dram.label(), topology.channels, topology.ranks, i, j
                );
            }
        }

        let coords: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..n - i).map(move |j| (i, j)))
            .collect();
        let mut batch = tbi_dram::AddressBatch::new();
        mapping.route_batch(&coords, &mut batch);
        prop_assert_eq!(batch.len(), coords.len());
        for (index, &(i, j)) in coords.iter().enumerate() {
            prop_assert_eq!(
                batch.get(index),
                mapping.route(i, j),
                "{} on {}: stripe-tile batch diverges at ({},{})",
                kind, dram.label(), i, j
            );
        }
    }
}
