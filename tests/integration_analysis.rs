//! Cross-validation between the analytic access-pattern model
//! (`tbi_interleaver::analysis`), a row-buffer oracle with no timing code,
//! and the cycle-accurate simulator: the cheap architectural statistics must
//! predict what the detailed model measures.

use std::collections::HashMap;

use tbi::dram::standards::{ALL_CONFIGS, MODERN_CONFIGS};
use tbi::interleaver::analysis::{analyse_phase, MappingComparison};
use tbi::interleaver::trace::AccessPhase;
use tbi::{
    ChannelTopology, ControllerConfig, DramConfig, DramStandard, InterleaverSpec, MappingKind,
    PagePolicy, PhysicalAddress, RefreshMode, Scenario, SchedulingPolicy,
};

const DIMENSION: u32 = 300;

fn spec() -> InterleaverSpec {
    // Matches DIMENSION: 300*301/2 positions.
    InterleaverSpec::from_burst_count(45_000)
}

#[test]
fn analytic_activation_counts_match_the_simulator_without_refresh() {
    // With refresh disabled and an open-page policy the controller performs
    // exactly one activate per (bank, row) transition, which is what the
    // analytic model counts.
    let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
    let controller = ControllerConfig {
        refresh_mode: Some(RefreshMode::Disabled),
        ..ControllerConfig::default()
    };
    for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
        let mapping = kind.build(&dram, DIMENSION).unwrap();
        let predicted_write = analyse_phase(mapping.as_ref(), AccessPhase::Write).activations;
        let predicted_read = analyse_phase(mapping.as_ref(), AccessPhase::Read).activations;

        let [write, read] = Scenario::custom(dram.clone(), kind, spec())
            .with_controller(controller)
            .phase_stats()
            .unwrap();
        // The simulator may perform a handful of extra activates because the
        // read phase starts with rows left open by the write phase.
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
        let mapping = kind.build(&dram, DIMENSION).unwrap();
        let write = analyse_phase(mapping.as_ref(), AccessPhase::Write);
        let read = analyse_phase(mapping.as_ref(), AccessPhase::Read);
        predicted_reuse.push(
            write
                .accesses_per_activation()
                .min(read.accesses_per_activation()),
        );
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
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let dram = DramConfig::preset(*standard, *rate).unwrap();
        let mut comparison = MappingComparison::new();
        for kind in [
            MappingKind::RowMajor,
            MappingKind::BankRoundRobin,
            MappingKind::Optimized,
        ] {
            let mapping = kind.build(&dram, 256).unwrap();
            comparison.add(mapping.as_ref());
        }
        assert_eq!(
            comparison.best_by_activation_reuse(),
            Some("optimized"),
            "{standard:?}-{rate}"
        );
    }
}

#[test]
fn bank_group_switch_rate_is_ideal_for_the_optimized_mapping() {
    for (standard, rate) in tbi::dram::standards::ALL_CONFIGS {
        let dram = DramConfig::preset(*standard, *rate).unwrap();
        if dram.geometry.bank_groups == 1 {
            continue;
        }
        let mapping = MappingKind::Optimized.build(&dram, 256).unwrap();
        for phase in AccessPhase::ALL {
            let stats = analyse_phase(mapping.as_ref(), phase);
            assert!(
                stats.bank_group_switch_rate() > 0.95,
                "{standard:?}-{rate} {phase}: switch rate {}",
                stats.bank_group_switch_rate()
            );
        }
    }
}

/// Open rows, one per (rank, bank group, bank), with no timing code: each
/// request hits the open row of its bank, finds the bank empty, or conflicts
/// with another open row.  Rows stay open from one phase to the next.
#[derive(Default)]
struct OpenRows(HashMap<(u32, u32, u32), u32>);

impl OpenRows {
    /// `(row_hits, row_empties, row_conflicts)` of one phase's addresses.
    fn phase(&mut self, addresses: impl Iterator<Item = PhysicalAddress>) -> (u64, u64, u64) {
        let (mut hits, mut empties, mut conflicts) = (0, 0, 0);
        for address in addresses {
            let bank = (address.rank, address.bank_group, address.bank);
            match self.0.insert(bank, address.row) {
                Some(row) if row == address.row => hits += 1,
                Some(_) => conflicts += 1,
                None => empties += 1,
            }
        }
        (hits, empties, conflicts)
    }
}

/// Under FCFS, open page and no refresh, each request's row-buffer class is
/// a pure function of the mapped address order, so the oracle must equal the
/// simulator's counts exactly (and every activate opens an empty or a
/// conflicting bank).  FR-FCFS may reorder to gain hits but never loses one.
/// Refresh closes rows, so neither claim holds with it.
#[test]
fn row_buffer_oracle_matches_fcfs_counts_and_bounds_frfcfs_hits() {
    let spec = InterleaverSpec::from_burst_count(20_000);
    let interleaver = spec.triangular();
    for &(standard, rate) in ALL_CONFIGS.iter().chain(MODERN_CONFIGS) {
        let dram = DramConfig::preset(standard, rate)
            .unwrap()
            .with_topology(ChannelTopology::new(1, 1));
        for kind in MappingKind::ALL {
            let mapping = kind.build(&dram, spec.dimension()).unwrap();
            let mut open = OpenRows::default();
            let write = open.phase(interleaver.write_order().map(|(i, j)| mapping.map(i, j)));
            let read = open.phase(interleaver.read_order().map(|(i, j)| mapping.map(i, j)));
            let phase_stats = |scheduling| {
                let controller = ControllerConfig {
                    scheduling,
                    page_policy: PagePolicy::Open,
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
            for (i, (phase, oracle)) in AccessPhase::ALL.into_iter().zip([write, read]).enumerate()
            {
                let context = format!("{} {kind} {phase}", dram.label());
                let stats = fcfs[i].aggregate();
                assert_eq!(
                    (stats.row_hits, stats.row_empties, stats.row_conflicts),
                    oracle,
                    "{context}"
                );
                assert_eq!(
                    stats.activates,
                    stats.row_empties + stats.row_conflicts,
                    "{context}"
                );
                let frfcfs_hits = frfcfs[i].aggregate().row_hits;
                assert!(
                    frfcfs_hits >= oracle.0,
                    "{context}: {frfcfs_hits} < {oracle:?}"
                );
            }
        }
    }
}
