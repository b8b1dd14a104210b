//! Custom-device exploration: the paper's mapping applies to *any*
//! JEDEC-compliant DRAM, so this example builds a hypothetical device (a
//! wider-page, higher-clocked DDR4-class part) by rescaling a preset with
//! `DramConfig::scaled_to` and setting its geometry fields, then checks that
//! the optimized mapping still keeps both phases fast enough for a 100 Gbit/s
//! downlink.
//!
//! ```text
//! cargo run --release -p tbi --example custom_device
//! ```

use tbi::{BandwidthBudget, DramConfig, DramStandard, InterleaverSpec, MappingKind, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hypothetical next-generation part: DDR4 core timings scaled to
    // 4266 MT/s with 256-burst pages.
    let mut custom = DramConfig::preset(DramStandard::Ddr4, 3200)?.scaled_to(4266);
    custom.geometry.columns_per_row = 256;
    custom.geometry.rows = 1 << 15;
    custom.validate()?;
    println!(
        "custom device: {} MT/s, {} banks, {} KiB pages, {:.1} Gbit/s peak",
        custom.data_rate_mtps,
        custom.geometry.total_banks(),
        custom.geometry.page_bytes() / 1024,
        custom.peak_bandwidth_gbps()
    );

    let spec = InterleaverSpec::from_burst_count(150_000);
    for kind in MappingKind::TABLE1 {
        let record = Scenario::custom(custom.clone(), kind, spec).run()?;
        let budget = BandwidthBudget::new(100.0, record.min_utilization);
        println!(
            "  {:<10} write {:6.2} %  read {:6.2} %  -> 100 Gbit/s needs {:5.0} Gbit/s provisioned ({}ok)",
            record.mapping,
            record.write_utilization * 100.0,
            record.read_utilization * 100.0,
            budget.required_peak_bandwidth_gbps(),
            if budget.is_satisfied_by(&custom) { "" } else { "not " }
        );
    }

    Ok(())
}
