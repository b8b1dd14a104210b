//! Regenerates a compact version of the paper's Table I through the public
//! `tbi` experiment API (the full harness with CLI flags lives in
//! `crates/bench/src/bin/table1.rs`).
//!
//! ```text
//! cargo run --release -p tbi --example bandwidth_table
//! ```

use tbi::{MappingKind, SweepGrid};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bursts = 200_000;

    // Declare the whole table as one sweep (all presets × the Table I
    // mapping pair) and run it across all cores; the records come back in
    // deterministic paper order regardless of the worker count.
    let records = SweepGrid::new()
        .all_presets()?
        .size(bursts)
        .mappings(MappingKind::TABLE1)
        .into_experiment()
        .with_workers(0)
        .run()?;

    println!("DRAM bandwidth utilization, triangular interleaver of {bursts} bursts");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12}",
        "Configuration", "RowMaj write", "RowMaj read", "Optim write", "Optim read"
    );
    for pair in records.chunks(2) {
        let [row_major, optimized] = pair else {
            unreachable!("TABLE1 sweeps produce records in pairs");
        };
        println!(
            "{:<14} {:>11.2}% {:>11.2}% {:>11.2}% {:>11.2}%",
            row_major.dram_label,
            row_major.write_utilization * 100.0,
            row_major.read_utilization * 100.0,
            optimized.write_utilization * 100.0,
            optimized.read_utilization * 100.0,
        );
    }
    Ok(())
}
