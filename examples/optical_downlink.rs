//! End-to-end optical LEO downlink scenario: demonstrates the interleaving
//! gain that motivates the paper and the DRAM bandwidth budget of the
//! interleaver.
//!
//! The downlink transmits Reed–Solomon RS(255,223) code words over a bursty
//! optical channel (coherence-time fading).  Without interleaving, a single
//! fade destroys whole code words; with the triangular block interleaver the
//! same fade is spread over many code words and corrected.
//!
//! ```text
//! cargo run --release -p tbi --example optical_downlink
//! ```

use rand::SeedableRng;
use tbi::satcom::channel::SymbolChannel;
use tbi::satcom::link::{interleaving_gain, InterleaverChoice, LinkConfig};
use tbi::{
    BandwidthBudget, DramConfig, DramStandard, GilbertElliott, InterleaverSpec, MappingKind,
    Scenario,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Optical LEO downlink, 100 Gbit/s class ==\n");

    // 1. The FEC view: interleaving gain on a bursty channel.
    let channel = GilbertElliott::new(0.001, 0.02, 0.0, 0.6);
    println!(
        "Channel: Gilbert-Elliott, mean burst length {:.0} symbols, average symbol error rate {:.4}",
        channel.mean_burst_length(),
        channel.average_symbol_error_rate()
    );
    let config = LinkConfig {
        rs_code_len: 255,
        rs_data_len: 223,
        codewords: 60,
        interleaver: InterleaverChoice::Triangular,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let (without, with) = interleaving_gain(config, &channel, &mut rng)?;
    println!(
        "  without interleaver: frame error rate {:6.3} ({} of {} code words lost)",
        without.frame_error_rate(),
        without.codeword_failures,
        without.codewords
    );
    println!(
        "  with triangular interleaver: frame error rate {:6.3} ({} of {} code words lost)\n",
        with.frame_error_rate(),
        with.codeword_failures,
        with.codewords
    );

    // 2. The memory view: what the interleaver demands from DRAM.
    let spec = InterleaverSpec::paper_table1();
    println!(
        "Full-scale interleaver: {} bursts = {:.0} MB, fill time {:.0} ms at 100 Gbit/s",
        spec.burst_count(),
        spec.storage_bytes() as f64 / 1e6,
        spec.fill_time_ms(100.0)
    );
    let dram = DramConfig::preset(DramStandard::Lpddr5, 8533)?;
    let simulated = InterleaverSpec::from_burst_count(200_000);
    for kind in MappingKind::TABLE1 {
        let record = Scenario::custom(dram.clone(), kind, simulated).run()?;
        let budget = BandwidthBudget::new(100.0, record.min_utilization);
        println!(
            "  {} on {}: min utilization {:5.1} % -> needs {:5.0} Gbit/s provisioned ({}satisfied, peak {:.0} Gbit/s)",
            record.mapping,
            dram.label(),
            record.min_utilization * 100.0,
            budget.required_peak_bandwidth_gbps(),
            if budget.is_satisfied_by(&dram) { "" } else { "NOT " },
            dram.peak_bandwidth_gbps()
        );
    }
    Ok(())
}
