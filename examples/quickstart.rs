//! Quickstart: evaluate the paper's optimized mapping against the row-major
//! baseline on one DRAM configuration.
//!
//! ```text
//! cargo run --release -p tbi --example quickstart
//! ```

use tbi::{BandwidthBudget, DramConfig, DramStandard, InterleaverSpec, MappingKind, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An LPDDR4-4266 channel: 136.5 Gbit/s of peak bandwidth.
    let dram = DramConfig::preset(DramStandard::Lpddr4, 4266)?;
    println!(
        "DRAM configuration: {} ({:.1} Gbit/s peak)",
        dram.label(),
        dram.peak_bandwidth_gbps()
    );

    // A triangular block interleaver, sized down from the paper's 12.5 M
    // bursts so the example finishes in about a second.
    let spec = InterleaverSpec::from_burst_count(200_000);
    println!(
        "Interleaver: {} bursts (dimension {}), {:.1} MB of DRAM",
        spec.burst_count(),
        spec.dimension(),
        spec.storage_bytes() as f64 / 1e6
    );

    for kind in MappingKind::TABLE1 {
        let record = Scenario::custom(dram.clone(), kind, spec).run()?;
        println!(
            "  {:<10}  write {:6.2} %   read {:6.2} %   min {:6.2} %   sustained {:6.1} Gbit/s",
            record.mapping,
            record.write_utilization * 100.0,
            record.read_utilization * 100.0,
            record.min_utilization * 100.0,
            record.aggregate_gbps
        );
        let budget = BandwidthBudget::new(100.0, record.min_utilization);
        println!(
            "              -> a 100 Gbit/s downlink needs {:.0} Gbit/s of provisioned DRAM bandwidth ({}satisfied by this device)",
            budget.required_peak_bandwidth_gbps(),
            if budget.is_satisfied_by(&dram) { "" } else { "NOT " }
        );
    }
    Ok(())
}
