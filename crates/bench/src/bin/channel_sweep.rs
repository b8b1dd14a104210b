//! Sweeps the channel axis (1 → 2 → 4 channels) for the Table I mapping
//! pair on two representative presets and reports how the aggregate
//! bandwidth scales, emitting a script-friendly `BENCH_channels.json`.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin channel_sweep [-- --full | --bursts <n> |
//!                                                         --ranks <n> | --workers <n> |
//!                                                         --json <p>]
//! ```
//!
//! The committed `BENCH_channels.json` pins the headline claim of the
//! multi-channel scale-out: the optimized mapping's aggregate bandwidth
//! scales ≥ 1.8× from one to two channels (channels are independent, so the
//! channel-interleaved stripe keeps per-channel utilization flat while the
//! peak doubles).

use tbi_bench::HarnessOptions;
use tbi_dram::DramStandard;
use tbi_exp::serialize::{json_number, json_string, records_to_json};
use tbi_exp::{Record, SweepGrid};
use tbi_interleaver::MappingKind;

const CHANNEL_AXIS: [u32; 3] = [1, 2, 4];
const PRESETS: [(DramStandard, u32); 2] =
    [(DramStandard::Ddr4, 3200), (DramStandard::Lpddr4, 4266)];

const FLAGS: &[&str] = &["--full", "--bursts", "--ranks", "--workers", "--json"];

/// One 1 → N scaling observation for the optimized mapping.
struct Scaling {
    dram: String,
    to_channels: u32,
    factor: f64,
}

fn find<'a>(records: &'a [Record], dram: &str, mapping: &str, channels: u32) -> &'a Record {
    records
        .iter()
        .find(|r| r.dram_label == dram && r.mapping == mapping && r.channels == channels)
        .expect("sweep covers every (dram, mapping, channels) cell")
}

fn main() {
    let options = HarnessOptions::from_env("channel_sweep", FLAGS);
    let mut grid = SweepGrid::new()
        .channels(CHANNEL_AXIS)
        .rank_count(options.ranks)
        .size(options.bursts)
        .mappings(MappingKind::TABLE1)
        .controller(options.controller());
    for (standard, rate) in PRESETS {
        grid = match grid.preset(standard, rate) {
            Ok(grid) => grid,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        };
    }
    eprintln!(
        "channel_sweep: {} scenarios at {} bursts each (channels {CHANNEL_AXIS:?}, {} rank(s))",
        grid.len(),
        options.bursts,
        options.ranks,
    );
    let records = match options.run_grid(grid) {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!(
        "{:<14} {:>4} {:>12} {:>14} {:>12} {:>8}",
        "config", "ch", "mapping", "aggregate", "min util", "spread"
    );
    for record in &records {
        println!(
            "{:<14} {:>4} {:>12} {:>9.2} Gb/s {:>11.2} % {:>8.4}",
            record.dram_label,
            record.channels,
            record.mapping,
            record.aggregate_gbps,
            record.min_utilization * 100.0,
            record.channel_utilization_spread,
        );
    }

    let mut scalings: Vec<Scaling> = Vec::new();
    let mut min_scaling_1_to_2 = f64::INFINITY;
    for (standard, rate) in PRESETS {
        let dram = format!("{}-{rate}", standard.name());
        let base = find(&records, &dram, "optimized", 1);
        for &to in &CHANNEL_AXIS[1..] {
            let scaled = find(&records, &dram, "optimized", to);
            let factor = scaled.aggregate_gbps / base.aggregate_gbps;
            if to == 2 {
                min_scaling_1_to_2 = min_scaling_1_to_2.min(factor);
            }
            println!("{dram}: optimized aggregate bandwidth x{factor:.3} at {to} channels");
            scalings.push(Scaling {
                dram: dram.clone(),
                to_channels: to,
                factor,
            });
        }
    }
    println!("minimum 1->2 channel scaling (optimized): {min_scaling_1_to_2:.3}x");

    let scaling_json: Vec<String> = scalings
        .iter()
        .map(|s| {
            format!(
                "{{\"dram\":{},\"mapping\":\"optimized\",\"from_channels\":1,\
                 \"to_channels\":{},\"bandwidth_scaling\":{}}}",
                json_string(&s.dram),
                s.to_channels,
                json_number(s.factor),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"ranks\": {},\n  \"scenarios\": {},\n  \
         \"channel_axis\": [1,2,4],\n  \"min_scaling_1_to_2_optimized\": {},\n  \
         \"scaling\": [\n    {}\n  ],\n  \"records\": {}}}\n",
        json_string("channel_sweep"),
        options.bursts,
        options.ranks,
        records.len(),
        json_number(min_scaling_1_to_2),
        scaling_json.join(",\n    "),
        records_to_json(&records),
    );
    if let Some(output) = &options.json {
        if let Err(error) = std::fs::write(output, json) {
            eprintln!("error: cannot write {}: {error}", output.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", output.display());
    }
}
