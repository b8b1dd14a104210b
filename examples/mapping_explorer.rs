//! Mapping explorer: prints how each mapping scheme lays out the top-left
//! corner of the interleaver index space on a chosen DRAM device, and how
//! many row activations its row-wise write and column-wise read sweeps need
//! (`tbi::interleaver::analysis`, rows left open by the write carried into
//! the read).
//!
//! ```text
//! cargo run --release -p tbi --example mapping_explorer [ddr3|ddr4|ddr5|lpddr4|lpddr5]
//! ```

use tbi::interleaver::analysis::row_buffer_counts;
use tbi::interleaver::mapping::render_grid;
use tbi::{ChannelMapping, DramConfig, DramStandard, MappingKind};

fn parse_standard(name: &str) -> Option<(DramStandard, u32)> {
    let standard = match name.to_ascii_lowercase().as_str() {
        "ddr3" => DramStandard::Ddr3,
        "ddr4" => DramStandard::Ddr4,
        "ddr5" => DramStandard::Ddr5,
        "lpddr4" => DramStandard::Lpddr4,
        "lpddr5" => DramStandard::Lpddr5,
        _ => return None,
    };
    Some((standard, standard.paper_speed_grades()[1]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ddr4".to_string());
    let (standard, rate) = parse_standard(&arg).ok_or("expected ddr3|ddr4|ddr5|lpddr4|lpddr5")?;
    let dram = DramConfig::preset(standard, rate)?;
    let n = 512u32;
    println!(
        "{}: {} bank groups x {} banks, {}-burst pages\n",
        dram.label(),
        dram.geometry.bank_groups,
        dram.geometry.banks_per_group,
        dram.geometry.columns_per_row
    );

    for kind in MappingKind::ALL {
        let mapping = kind.build(&dram, n)?;
        println!("--- {} ---", kind.name());
        println!("{}", render_grid(mapping.as_ref(), 6, 6));

        let [write, read] = row_buffer_counts(&ChannelMapping::new(kind, &dram, n)?);
        println!(
            "write sweep: {} activations, read sweep: {} activations, over {} accesses each\n",
            write[0].activates(),
            read[0].activates(),
            write[0].accesses()
        );
    }
    Ok(())
}
