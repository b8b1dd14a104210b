//! Cross-validation between the row-buffer counter with no timing code
//! (`tbi_interleaver::analysis`) and the cycle-accurate simulator: the
//! cheap counts must predict what the detailed model measures, and equal
//! it exactly where the scheduler keeps the mapped order.

use tbi::dram::standards::{ALL_CONFIGS, MODERN_CONFIGS};
use tbi::dram::{FoldOp, FoldStep, XorFold};
use tbi::interleaver::analysis::{row_buffer_counts, RowBufferCounts};
use tbi::interleaver::InterleaverError;
use tbi::{
    AccessPhase, AddressField, BitPermutation, ChannelMapping, ChannelTopology, ControllerConfig,
    DramConfig, DramStandard, InterleaverSpec, MappingKind, PhysicalAddress, RefreshMode, Scenario,
    SchedulingPolicy, TraceGenerator, TriangularInterleaver,
};

const DIMENSION: u32 = 300;

fn spec() -> InterleaverSpec {
    // Matches DIMENSION: 300*301/2 positions.
    InterleaverSpec::from_burst_count(45_000)
}

/// The `[write, read]` counts of `kind` on the one channel of `dram`.
fn counts(dram: &DramConfig, kind: MappingKind, n: u32) -> [RowBufferCounts; 2] {
    let mapping = ChannelMapping::new(kind, dram, n).unwrap();
    row_buffer_counts(&mapping).map(|channels| channels[0])
}

/// Accesses served per activation in the worse phase.
fn min_reuse(dram: &DramConfig, kind: MappingKind, n: u32) -> f64 {
    let reuse = |c: RowBufferCounts| c.accesses() as f64 / c.activates().max(1) as f64;
    let [write, read] = counts(dram, kind, n);
    reuse(write).min(reuse(read))
}

#[test]
fn analytic_activation_counts_match_the_simulator_without_refresh() {
    // With refresh disabled and an open-page policy the default FR-FCFS
    // controller reorders within its queue, so its activates stay within a
    // bank count of the in-order counts.
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let controller = ControllerConfig {
        refresh_mode: Some(RefreshMode::Disabled),
        ..ControllerConfig::default()
    };
    for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
        let [predicted_write, predicted_read] =
            counts(&dram, kind, DIMENSION).map(|c| c.activates());

        let [write, read] = Scenario::custom(dram.clone(), kind, spec())
            .with_controller(controller)
            .phase_stats()
            .unwrap();
        let measured_write = write.aggregate().activates;
        let measured_read = read.aggregate().activates;
        let close = |measured: u64, predicted: u64| {
            measured >= predicted.saturating_sub(dram.geometry.total_banks() as u64)
                && measured <= predicted + dram.geometry.total_banks() as u64
        };
        assert!(
            close(measured_write, predicted_write),
            "{kind}: write activates measured {measured_write} vs predicted {predicted_write}"
        );
        assert!(
            close(measured_read, predicted_read),
            "{kind}: read activates measured {measured_read} vs predicted {predicted_read}"
        );
    }
}

#[test]
fn higher_predicted_activation_reuse_means_higher_measured_utilization() {
    let dram = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
    let controller = ControllerConfig {
        refresh_mode: Some(RefreshMode::Disabled),
        ..ControllerConfig::default()
    };
    let mut predicted_reuse = Vec::new();
    let mut measured_min_util = Vec::new();
    for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
        predicted_reuse.push(min_reuse(&dram, kind, DIMENSION));
        let record = Scenario::custom(dram.clone(), kind, spec())
            .with_controller(controller)
            .run()
            .unwrap();
        measured_min_util.push(record.min_utilization);
    }
    assert!(predicted_reuse[1] > predicted_reuse[0]);
    assert!(measured_min_util[1] > measured_min_util[0]);
}

#[test]
fn comparison_ranks_optimized_best_on_every_preset() {
    for &(standard, rate) in ALL_CONFIGS {
        let dram = DramConfig::preset(standard, rate).unwrap();
        let optimized = min_reuse(&dram, MappingKind::Optimized, 256);
        for kind in [MappingKind::RowMajor, MappingKind::BankRoundRobin] {
            let other = min_reuse(&dram, kind, 256);
            assert!(
                optimized > other,
                "{standard:?}-{rate}: optimized {optimized} vs {kind} {other}"
            );
        }
    }
}

#[test]
fn bank_group_switch_rate_is_ideal_for_the_optimized_mapping() {
    for &(standard, rate) in ALL_CONFIGS {
        let dram = DramConfig::preset(standard, rate).unwrap();
        if dram.geometry.bank_groups == 1 {
            continue;
        }
        let mapping = MappingKind::Optimized.build(&dram, 256).unwrap();
        let generator = TraceGenerator::new(TriangularInterleaver::new(256).unwrap(), &*mapping);
        for phase in AccessPhase::ALL {
            let addresses: Vec<PhysicalAddress> =
                generator.requests(phase).map(|r| r.address).collect();
            let pairs = addresses.windows(2);
            let switches = pairs.filter(|p| p[0].bank_group != p[1].bank_group);
            let switch_rate = switches.count() as f64 / (addresses.len() - 1) as f64;
            assert!(
                switch_rate > 0.95,
                "{standard:?}-{rate} {phase}: switch rate {switch_rate}"
            );
        }
    }
}

/// All 16 presets on their native topologies.
fn presets() -> impl Iterator<Item = DramConfig> {
    let configs = ALL_CONFIGS.iter().chain(MODERN_CONFIGS);
    configs.map(|&(standard, rate)| DramConfig::preset(standard, rate).unwrap())
}

/// The kinds the oracle covers on `dram`: `MappingKind::ALL`, the decode
/// scheme's bit permutation, a copy with its lowest and highest bits
/// swapped, an xorfold that rewrites the channel field from row bits (the
/// bank field on one channel), and two free-shape tilings.
fn kinds_for(dram: &DramConfig) -> Vec<MappingKind> {
    let permutation =
        BitPermutation::for_scheme(dram.decode_scheme, &dram.geometry, dram.topology).unwrap();
    let top = permutation.fields().len() - 1;
    let target = if dram.topology.channels > 1 {
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
    kinds.extend([
        MappingKind::Permutation(permutation),
        MappingKind::Permutation(permutation.with_swap(0, top)),
        MappingKind::XorFolded(permutation, fold),
        MappingKind::GeneralTiled {
            tile_h: 8,
            tile_w: 8,
        },
        MappingKind::GeneralTiled {
            tile_h: 11,
            tile_w: 11,
        },
    ]);
    kinds
}

/// Checks the oracle for `kind` on `dram` at 20,000 bursts and returns the
/// (phase, channel) cells it checked.
///
/// Under FCFS, open page and no refresh, each request's row-buffer class is
/// a pure function of its channel's mapped address order, so per channel
/// and phase the oracle must equal the simulator's counts exactly (and
/// every activate opens an empty or a conflicting bank).  FR-FCFS may
/// reorder to gain hits but never loses one.  Refresh closes rows, so
/// neither claim holds with it.  A `tiled:11x11` tile cannot fit a page of
/// fewer than 121 columns; that construction must fail with
/// `InvalidDimension`, and checks no cell.
fn check_oracle(dram: &DramConfig, kind: MappingKind) -> usize {
    let spec = InterleaverSpec::from_burst_count(20_000);
    let topology = dram.topology;
    let context = format!(
        "{} {}x{} {kind}",
        dram.label(),
        topology.channels,
        topology.ranks
    );
    let mapping = match ChannelMapping::new(kind, dram, spec.dimension()) {
        Ok(mapping) => mapping,
        Err(error) => {
            let eleven = MappingKind::GeneralTiled {
                tile_h: 11,
                tile_w: 11,
            };
            assert!(
                kind == eleven
                    && dram.geometry.columns_per_row < 121
                    && matches!(error, InterleaverError::InvalidDimension { .. }),
                "{context}: {error}"
            );
            return 0;
        }
    };
    let oracle = row_buffer_counts(&mapping);
    let phase_stats = |scheduling| {
        let controller = ControllerConfig {
            scheduling,
            refresh_mode: Some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        };
        Scenario::custom(dram.clone(), kind, spec)
            .with_controller(controller)
            .phase_stats()
            .unwrap()
    };
    let fcfs = phase_stats(SchedulingPolicy::Fcfs);
    let frfcfs = phase_stats(SchedulingPolicy::FrFcfs);
    let mut cells = 0;
    for (p, phase) in AccessPhase::ALL.into_iter().enumerate() {
        assert_eq!(fcfs[p].channels(), oracle[p].len(), "{context}");
        for (channel, counts) in oracle[p].iter().enumerate() {
            let context = format!("{context} {phase} channel {channel}");
            let stats = &fcfs[p].per_channel()[channel];
            assert_eq!(
                (stats.row_hits, stats.row_empties, stats.row_conflicts),
                (counts.hits, counts.empties, counts.conflicts),
                "{context}"
            );
            assert_eq!(
                stats.activates,
                stats.row_empties + stats.row_conflicts,
                "{context}"
            );
            let frfcfs_hits = frfcfs[p].per_channel()[channel].row_hits;
            assert!(
                frfcfs_hits >= counts.hits,
                "{context}: {frfcfs_hits} < {counts:?}"
            );
            cells += 1;
        }
    }
    cells
}

/// The default run's subset of the full check below: every preset with
/// `MappingKind::ALL` on its native topology (eight pseudo-channels on
/// HBM2, two channels on GDDR6; DDR5-3DS on one rank, because its four
/// ranks of eight bank groups cost ≈14 s under a debug build), then every
/// kind of [`kinds_for`] on DDR4-3200 with two channels of two ranks.
#[test]
fn row_buffer_oracle_matches_fcfs_counts_and_bounds_frfcfs_hits() {
    let mut cells = 0;
    for dram in presets() {
        let dram = match dram.standard {
            DramStandard::Ddr5Stacked => dram.with_topology(ChannelTopology::new(1, 1)),
            _ => dram,
        };
        for kind in MappingKind::ALL {
            cells += check_oracle(&dram, kind);
        }
    }
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200)
        .unwrap()
        .with_topology(ChannelTopology::new(2, 2));
    for kind in kinds_for(&dram) {
        cells += check_oracle(&dram, kind);
    }
    assert_eq!(cells, 360);
}

/// The full check: every preset on its native topology, on two channels of
/// two ranks and on four channels, each with every kind of [`kinds_for`] —
/// 444 mappings and 2,360 (phase, channel) cells, about 10 s in release on
/// a 2-vCPU host.
#[test]
#[ignore = "the whole cross product takes minutes under a debug build; CI runs it in release"]
fn row_buffer_oracle_is_exact_per_channel_on_every_topology() {
    let mut cells = 0;
    for dram in presets() {
        let native = dram.topology;
        for topology in [
            native,
            ChannelTopology::new(2, 2),
            ChannelTopology::new(4, 1),
        ] {
            let dram = dram.clone().with_topology(topology);
            for kind in kinds_for(&dram) {
                cells += check_oracle(&dram, kind);
            }
        }
    }
    assert_eq!(cells, 2_360);
}
