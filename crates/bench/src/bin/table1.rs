//! Regenerates **Table I** of the paper: DRAM bandwidth utilization of the
//! row-major and the optimized mapping, write and read phase, for all ten
//! DRAM configurations.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin table1 [-- --full | --bursts <n> | --no-refresh |
//!                                                  --channels <n> | --ranks <n> |
//!                                                  --workers <n> | --threads <n> | --json <p>]
//! ```
//!
//! The sweep is declared as a [`tbi_exp::SweepGrid`] (all presets × the
//! Table I mapping pair) and executed in parallel; `--json` writes the
//! records as a machine-readable artifact.

use tbi_bench::{format_table1_row, run_table1, HarnessOptions, ALL_FLAGS};

fn main() {
    let options = HarnessOptions::from_env("table1", &ALL_FLAGS);

    let records = match run_table1(&options) {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!("Table I: DRAM bandwidth utilizations");
    println!(
        "(triangular block interleaver, {} bursts{})",
        options.bursts,
        if options.no_refresh {
            ", refresh disabled"
        } else {
            ""
        }
    );
    println!();
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>10}",
        "DRAM", "RowMaj Wr", "RowMaj Rd", "Optim Wr", "Optim Rd"
    );
    println!("{}", "-".repeat(62));

    for pair in records.chunks(2) {
        let [row_major, optimized] = pair else {
            unreachable!("run_table1 returns records in pairs");
        };
        println!(
            "{}",
            format_table1_row(&row_major.dram_label, row_major, optimized)
        );
    }

    println!();
    println!("Minimum (throughput-limiting) utilization per configuration:");
    println!(
        "{:<14} {:>10} {:>10} {:>8}",
        "DRAM", "Row-Major", "Optimized", "Speedup"
    );
    println!("{}", "-".repeat(48));
    for pair in records.chunks(2) {
        let [row_major, optimized] = pair else {
            unreachable!("run_table1 returns records in pairs");
        };
        println!(
            "{:<14} {:>8.2} % {:>8.2} % {:>7.2}x",
            row_major.dram_label,
            row_major.min_utilization * 100.0,
            optimized.min_utilization * 100.0,
            optimized.speedup_over(row_major)
        );
    }

    if let Err(error) = options.write_outputs(&records) {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
