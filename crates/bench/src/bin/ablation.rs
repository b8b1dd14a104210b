//! Ablation study (not in the paper, but called out in DESIGN.md): how much
//! each of the three optimizations contributes, per DRAM configuration.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin ablation [-- --bursts <n> | --no-refresh | --full |
//!                                                    --channels <n> | --ranks <n> |
//!                                                    --workers <n> | --threads <n> | --json <p>]
//! ```
//!
//! Declared as one [`tbi_exp::SweepGrid`]: all presets × every mapping
//! scheme on the selected channel/rank topology, executed in parallel.

use tbi_exp::SweepGrid;
use tbi_interleaver::MappingKind;

use tbi_bench::{HarnessOptions, ALL_FLAGS};

fn main() {
    let options = HarnessOptions::from_env("ablation", &ALL_FLAGS);

    let grid = match SweepGrid::new().all_presets() {
        Ok(grid) => grid
            .channel_count(options.channels)
            .rank_count(options.ranks)
            .size(options.bursts)
            .mappings(MappingKind::ALL)
            .refresh(options.refresh_setting())
            .controller(options.controller()),
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    let records = match options.run_grid(grid) {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!("Ablation: minimum-phase bandwidth utilization per mapping scheme");
    println!("(interleaver of {} bursts)", options.bursts);
    println!();
    print!("{:<14}", "DRAM");
    for kind in MappingKind::ALL {
        print!(" {:>21}", kind.name());
    }
    println!();
    println!("{}", "-".repeat(14 + 22 * MappingKind::ALL.len()));

    for row in records.chunks(MappingKind::ALL.len()) {
        print!("{:<14}", row[0].dram_label);
        for record in row {
            print!(" {:>19.2} %", record.min_utilization * 100.0);
        }
        println!();
    }

    if let Err(error) = options.write_outputs(&records) {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
