//! Cross-validation between the analytic access-pattern model
//! (`tbi_interleaver::analysis`) and the cycle-accurate simulator: the cheap
//! architectural statistics must predict what the detailed model measures.

use tbi::interleaver::analysis::{analyse_phase, MappingComparison};
use tbi::interleaver::trace::AccessPhase;
use tbi::{
    ControllerConfig, DramConfig, DramStandard, InterleaverSpec, MappingKind, RefreshMode,
    ThroughputEvaluator,
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

        let evaluator = ThroughputEvaluator::with_controller(dram.clone(), spec(), controller);
        let report = evaluator.evaluate(kind).unwrap();
        // The simulator may perform a handful of extra activates because the
        // read phase starts with rows left open by the write phase.
        let measured_write = report.write.stats.aggregate().activates;
        let measured_read = report.read.stats.aggregate().activates;
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
        let evaluator = ThroughputEvaluator::with_controller(dram.clone(), spec(), controller);
        measured_min_util.push(evaluator.evaluate(kind).unwrap().min_utilization());
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
