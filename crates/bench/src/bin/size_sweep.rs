//! Reproduces the paper's in-text claim that results for other interleaver
//! dimensions "differ only slightly": sweeps the interleaver size and prints
//! the minimum-phase utilization of both Table I mappings.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin size_sweep [-- --no-refresh | --workers <n> |
//!                                                      --json <p>]
//! ```
//!
//! Declared as one three-axis [`tbi_exp::SweepGrid`]: the bandwidth-sensitive
//! presets × four interleaver sizes × the Table I mapping pair.

use tbi_dram::DramStandard;
use tbi_exp::SweepGrid;
use tbi_interleaver::MappingKind;

use tbi_bench::HarnessOptions;

const SIZES: [u64; 4] = [100_000, 400_000, 1_600_000, 6_400_000];

const FLAGS: &[&str] = &["--no-refresh", "--workers", "--json"];

fn main() {
    let options = HarnessOptions::from_env("size_sweep", FLAGS);

    // The sweep focuses on the most bandwidth-sensitive configurations.
    let configs = [
        (DramStandard::Ddr4, 3200),
        (DramStandard::Lpddr4, 4266),
        (DramStandard::Lpddr5, 8533),
    ];
    let mut grid = SweepGrid::new()
        .sizes(SIZES)
        .mappings(MappingKind::TABLE1)
        .refresh(options.refresh_setting());
    for (standard, rate) in configs {
        grid = match grid.preset(standard, rate) {
            Ok(grid) => grid,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        };
    }

    let records = match options.run_grid(grid) {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!("Interleaver-size sweep: minimum-phase utilization");
    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "DRAM", "bursts", "row-major", "optimized"
    );
    println!("{}", "-".repeat(54));
    // Grid nesting is DRAM → size → mapping, so the pair for one
    // (configuration, size) cell is adjacent.
    for pair in records.chunks(2) {
        let [row_major, optimized] = pair else {
            unreachable!("TABLE1 sweeps produce records in pairs");
        };
        println!(
            "{:<14} {:>12} {:>10.2} % {:>10.2} %",
            row_major.dram_label,
            row_major.bursts,
            row_major.min_utilization * 100.0,
            optimized.min_utilization * 100.0
        );
    }

    if let Err(error) = options.write_outputs(&records) {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
