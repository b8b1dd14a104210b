//! Focused mapping-search probe for one preset — the iteration tool behind
//! `BENCH_dse.json` regenerations.
//!
//! `mapping_search` always sweeps all ten Table I presets; when tuning the
//! portfolio on one stubborn configuration (historically DDR3-800 and
//! LPDDR4-4266, the no-bank-group standards) that wastes nine presets of
//! wall clock per iteration.  This example runs a single preset:
//!
//! ```text
//! cargo run --release -p tbi_bench --example dse_probe -- \
//!     DDR3-800 [bursts] [budget] [restarts] [surrogate] [seed]
//! ```
//!
//! Focused sub-modes score one explicit design point instead of searching:
//! `eval <preset> <bursts> <perm> [fold]` for a bit-sliced candidate,
//! `tile <preset> <bursts> <h> <w>` for a free-shape tiling,
//! `sweep <preset> <bursts> <perm> <fold>` for all one-step fold
//! extensions, and `analyze <preset> <n>` for order-based (timing-free)
//! reference hit rates.

use tbi_bench::HarnessOptions;
use tbi_dram::standards::ALL_CONFIGS;
use tbi_dram::{BitPermutation, DramConfig, XorFold};
use tbi_exp::search::{MappingSearch, SearchSettings};
use tbi_interleaver::InterleaverSpec;

fn preset(label: &str) -> DramConfig {
    ALL_CONFIGS
        .iter()
        .map(|(standard, rate)| DramConfig::preset(*standard, *rate).expect("preset builds"))
        .find(|dram| dram.label() == label)
        .unwrap_or_else(|| panic!("unknown preset `{label}`"))
}

/// `eval <preset> <bursts> <perm> [fold]` — score one explicit candidate
/// against the references, with per-phase hit rates.
fn eval_candidate(args: &[String]) {
    let label = &args[0];
    let bursts: u64 = args[1].parse().expect("bursts");
    let permutation: BitPermutation = args[2].parse().expect("permutation");
    let fold: XorFold = args
        .get(3)
        .map_or("", String::as_str)
        .parse()
        .expect("fold");
    let dram = preset(label);
    let settings = SearchSettings {
        budget: 1,
        restarts: 1,
        ..SearchSettings::default()
    };
    let controller = HarnessOptions {
        no_refresh: true,
        ..HarnessOptions::new()
    }
    .controller();
    let spec = InterleaverSpec::from_burst_count(bursts);
    let search = MappingSearch::new(dram, spec, settings).with_controller(controller);
    let (record, row_major, optimized) = search
        .score_candidate(permutation, fold)
        .expect("candidate evaluates");
    for (name, r) in [
        ("candidate", &record),
        ("optimized", &optimized),
        ("row_major", &row_major),
    ] {
        println!(
            "{name:<10} write {:.9} read {:.9} round {:.9} activates {}",
            r.write_row_hit_rate,
            r.read_row_hit_rate,
            (r.write_row_hit_rate + r.read_row_hit_rate) / 2.0,
            r.activates,
        );
    }
}

/// `tile <preset> <bursts> <h> <w>` — score one free-shape tiling against
/// the references, with per-phase hit rates.
fn eval_tile(args: &[String]) {
    use tbi_interleaver::MappingKind;

    let label = &args[0];
    let bursts: u64 = args[1].parse().expect("bursts");
    let tile_h: u32 = args[2].parse().expect("tile height");
    let tile_w: u32 = args[3].parse().expect("tile width");
    let dram = preset(label);
    let settings = SearchSettings {
        budget: 1,
        restarts: 1,
        ..SearchSettings::default()
    };
    let controller = HarnessOptions {
        no_refresh: true,
        ..HarnessOptions::new()
    }
    .controller();
    let spec = InterleaverSpec::from_burst_count(bursts);
    let search = MappingSearch::new(dram, spec, settings).with_controller(controller);
    let (record, row_major, optimized) = search
        .score_kind(MappingKind::GeneralTiled { tile_h, tile_w })
        .expect("tiling evaluates");
    for (name, r) in [
        ("tiled", &record),
        ("optimized", &optimized),
        ("row_major", &row_major),
    ] {
        println!(
            "{name:<10} write {:.9} read {:.9} round {:.9} activates {}",
            r.write_row_hit_rate,
            r.read_row_hit_rate,
            (r.write_row_hit_rate + r.read_row_hit_rate) / 2.0,
            r.activates,
        );
    }
}

/// `analyze <preset> <n>` — order-based (timing-free) hit rates of the
/// reference mappings, to separate ordering losses from scheduling losses.
fn analyze(args: &[String]) {
    use tbi_interleaver::analysis::analyse_phase;
    use tbi_interleaver::trace::AccessPhase;
    use tbi_interleaver::MappingKind;

    let dram = preset(&args[0]);
    let n: u32 = args[1].parse().expect("dimension");
    for kind in [MappingKind::Optimized, MappingKind::RowMajor] {
        let mapping = kind.build(&dram, n).expect("mapping builds");
        let write = analyse_phase(mapping.as_ref(), AccessPhase::Write);
        let read = analyse_phase(mapping.as_ref(), AccessPhase::Read);
        println!(
            "{kind:<22} analytic write {:.9} read {:.9} round {:.9} activations {}",
            write.row_hit_rate(),
            read.row_hit_rate(),
            (write.row_hit_rate() + read.row_hit_rate()) / 2.0,
            write.activations + read.activations,
        );
    }
}

/// `sweep <preset> <bursts> <perm> <fold>` — evaluate every single-step
/// fold extension of a base candidate, printing those that beat optimized.
fn sweep_folds(args: &[String]) {
    use tbi_dram::{AddressField, FoldOp, FoldStep};

    let label = &args[0];
    let bursts: u64 = args[1].parse().expect("bursts");
    let permutation: BitPermutation = args[2].parse().expect("permutation");
    let base: XorFold = args
        .get(3)
        .map_or("", String::as_str)
        .parse()
        .expect("fold");
    let dram = preset(label);
    let settings = SearchSettings {
        budget: 1,
        restarts: 1,
        ..SearchSettings::default()
    };
    let controller = HarnessOptions {
        no_refresh: true,
        ..HarnessOptions::new()
    }
    .controller();
    let spec = InterleaverSpec::from_burst_count(bursts);
    let search = MappingSearch::new(dram, spec, settings).with_controller(controller);
    let (_, _, optimized) = search
        .score_candidate(permutation, base)
        .expect("base evaluates");
    let target_rate = (optimized.write_row_hit_rate + optimized.read_row_hit_rate) / 2.0;
    println!("optimized round {target_rate:.9}");
    let fields = [
        AddressField::Bank,
        AddressField::Row,
        AddressField::Column,
        AddressField::BankGroup,
    ];
    for target in fields {
        for source in fields {
            if target == source || permutation.width_of(target) == 0 {
                continue;
            }
            for shift in 0..permutation.width_of(source) {
                for op in [FoldOp::Add, FoldOp::Xor] {
                    let step = FoldStep {
                        target,
                        source,
                        shift: u8::try_from(shift).expect("shift fits"),
                        op,
                    };
                    let Ok(fold) = base.with_step(step) else {
                        continue;
                    };
                    if fold.validate_for(&permutation).is_err() {
                        continue;
                    }
                    let (record, _, _) = search
                        .score_candidate(permutation, fold)
                        .expect("candidate evaluates");
                    let round = (record.write_row_hit_rate + record.read_row_hit_rate) / 2.0;
                    let marker = if round > target_rate {
                        " <-- BEATS"
                    } else {
                        ""
                    };
                    println!(
                        "{fold:<14} round {round:.9} ({:+.3e}){marker}",
                        round - target_rate
                    );
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("eval") {
        eval_candidate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("sweep") {
        sweep_folds(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("tile") {
        eval_tile(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("analyze") {
        analyze(&args[1..]);
        return;
    }
    let label = args.first().map_or("DDR3-800", String::as_str);
    let arg = |index: usize, default: u64| -> u64 {
        args.get(index).map_or(default, |v| {
            v.parse().unwrap_or_else(|_| panic!("bad argument `{v}`"))
        })
    };
    let bursts = arg(1, 2_000_000);
    let budget = u32::try_from(arg(2, 60)).expect("budget fits u32");
    let restarts = u32::try_from(arg(3, 10)).expect("restarts fits u32");
    let surrogate = u32::try_from(arg(4, 16)).expect("surrogate fits u32");
    let seed = arg(5, 0);

    let dram = preset(label);
    let settings = SearchSettings {
        seed,
        restarts,
        budget,
        neighbors: 8,
        surrogate_divisor: surrogate,
        ..SearchSettings::default()
    };
    let controller = HarnessOptions {
        no_refresh: true,
        ..HarnessOptions::new()
    }
    .controller();
    let spec = InterleaverSpec::from_burst_count(bursts);
    let record = MappingSearch::new(dram, spec, settings)
        .with_controller(controller)
        .run()
        .expect("search runs");
    println!(
        "{label} @ {bursts} bursts: discovered {:.9} vs optimized {:.9} \
         (gain {:.7}x, strict beat: {}) in {} full + {} surrogate evals\n  \
         permutation {}\n  fold {}",
        record.discovered_row_hit_rate(),
        record.optimized_row_hit_rate(),
        record.row_hit_gain(),
        record.beats_optimized(),
        record.evaluations,
        record.surrogate_evaluations,
        record.permutation,
        if record.fold.is_empty() {
            "-"
        } else {
            &record.fold
        },
    );
}
