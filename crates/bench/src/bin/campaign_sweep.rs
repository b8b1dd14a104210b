//! End-to-end optical downlink campaign: interleaver depth × code rate ×
//! mapping × device preset under a time-varying clear-sky LEO pass, reduced
//! to one post-FEC BER vs aggregate-bandwidth frontier per preset
//! (`BENCH_campaign.json`).
//!
//! ```text
//! cargo run --release -p tbi_bench --bin campaign_sweep [-- --full | --bursts <n> |
//!                                                          --workers <n> | --json <p>]
//! ```
//!
//! The committed `BENCH_campaign.json` pins the campaign's two headline
//! claims: at every code rate, increasing the interleaver depth strictly
//! reduces the post-FEC BER (the interleaving-gain waterfall), and the
//! mapping choice shifts the achievable aggregate bandwidth on every
//! preset.  The link simulations are independent of the DRAM burst count,
//! so the committed error rates reproduce exactly at any `--bursts`.

use tbi_bench::{
    build_campaign, HarnessOptions, CAMPAIGN_PEAK_ELEVATION_DEG, CAMPAIGN_PRESETS, CAMPAIGN_TRIALS,
    CAMPAIGN_WEATHER,
};
use tbi_exp::campaign::{DEFAULT_CAMPAIGN_SEED, DEFAULT_CODE_RATES, DEFAULT_DEPTHS};
use tbi_exp::serialize::{json_number, json_string, records_to_json};

const FLAGS: &[&str] = &["--full", "--bursts", "--workers", "--json"];

fn main() {
    let options = HarnessOptions::from_env("campaign_sweep", FLAGS);
    let campaign = match build_campaign(options.bursts, options.workers) {
        Ok(campaign) => campaign,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "campaign_sweep: {} cells at {} bursts each ({} presets, depths {DEFAULT_DEPTHS:?}, \
         pass peak {CAMPAIGN_PEAK_ELEVATION_DEG} deg in {CAMPAIGN_WEATHER})",
        campaign.scenarios().len(),
        options.bursts,
        CAMPAIGN_PRESETS.len(),
    );
    let report = match campaign.run() {
        Ok(report) => report,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!(
        "{:<16} {:>12} {:>6} {:>7} {:>12} {:>14}",
        "config", "mapping", "depth", "rate", "post-FEC BER", "goodput"
    );
    for frontier in &report.frontiers {
        for point in &frontier.points {
            println!(
                "{:<16} {:>12} {:>6} {:>7.3} {:>12.3e} {:>9.2} Gb/s",
                frontier.dram_label,
                point.mapping,
                point.interleaver_depth,
                point.code_rate,
                point.post_fec_ber,
                point.goodput_gbps,
            );
        }
    }
    let monotone = report.ber_strictly_decreases_with_depth(&DEFAULT_CODE_RATES);
    let mut min_shift = f64::INFINITY;
    let mut max_aggregate: f64 = 0.0;
    for frontier in &report.frontiers {
        min_shift = min_shift.min(report.mapping_bandwidth_shift(&frontier.dram_label));
        for record in report
            .records
            .iter()
            .filter(|r| r.dram_label == frontier.dram_label)
        {
            max_aggregate = max_aggregate.max(record.aggregate_gbps);
        }
    }
    let all_frontiers_nonempty = report.frontiers.iter().all(|f| !f.points.is_empty());
    println!("BER strictly decreases with depth at every rate: {monotone}");
    println!(
        "minimum mapping bandwidth shift across presets: {:.3}x",
        1.0 + min_shift
    );
    for (k, n) in DEFAULT_CODE_RATES {
        let curve: Vec<String> = report
            .ber_by_depth(k, n)
            .iter()
            .map(|(depth, ber)| format!("d{depth}={ber:.3e}"))
            .collect();
        println!("rate {k}/{n}: {}", curve.join(" -> "));
    }

    let curve_json: Vec<String> = DEFAULT_CODE_RATES
        .iter()
        .map(|&(k, n)| {
            let points: Vec<String> = report
                .ber_by_depth(k, n)
                .iter()
                .map(|&(depth, ber)| format!("[{depth},{}]", json_number(ber)))
                .collect();
            format!("{{\"k\":{k},\"n\":{n},\"curve\":[{}]}}", points.join(","))
        })
        .collect();
    let frontier_json: Vec<String> = report
        .frontiers
        .iter()
        .map(|frontier| {
            let dominant = report
                .dominant_mapping(&frontier.dram_label)
                .expect("every campaign preset has cells");
            let points: Vec<String> = frontier
                .points
                .iter()
                .map(|point| {
                    format!(
                        "{{\"mapping\":{},\"interleaver_depth\":{},\"code_rate\":{},\
                         \"post_fec_ber\":{},\"frame_error_rate\":{},\"aggregate_gbps\":{},\
                         \"goodput_gbps\":{}}}",
                        json_string(&point.mapping),
                        point.interleaver_depth,
                        json_number(point.code_rate),
                        json_number(point.post_fec_ber),
                        json_number(point.frame_error_rate),
                        json_number(point.aggregate_gbps),
                        json_number(point.goodput_gbps),
                    )
                })
                .collect();
            format!(
                "{{\"dram\":{},\"dominant_mapping\":{},\"points\":[\n      {}\n    ]}}",
                json_string(&frontier.dram_label),
                json_string(&dominant),
                points.join(",\n      "),
            )
        })
        .collect();
    let rates_json: Vec<String> = DEFAULT_CODE_RATES
        .iter()
        .map(|(k, n)| format!("[{k},{n}]"))
        .collect();
    let depths_json: Vec<String> = DEFAULT_DEPTHS.iter().map(|d| format!("{d}")).collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"trials\": {},\n  \"seed\": {},\n  \
         \"peak_elevation_deg\": {},\n  \"weather\": {},\n  \"depths\": [{}],\n  \
         \"code_rates\": [{}],\n  \"scenarios\": {},\n  \
         \"ber_strictly_decreases_with_depth\": {},\n  \"all_frontiers_nonempty\": {},\n  \
         \"min_mapping_bandwidth_shift\": {},\n  \"max_aggregate_gbps\": {},\n  \
         \"ber_curves\": [\n    {}\n  ],\n  \"frontiers\": [\n    {}\n  ],\n  \"records\": {}}}\n",
        json_string("campaign_sweep"),
        options.bursts,
        CAMPAIGN_TRIALS,
        DEFAULT_CAMPAIGN_SEED,
        json_number(CAMPAIGN_PEAK_ELEVATION_DEG),
        json_string(CAMPAIGN_WEATHER.name()),
        depths_json.join(","),
        rates_json.join(","),
        report.records.len(),
        monotone,
        all_frontiers_nonempty,
        json_number(min_shift),
        json_number(max_aggregate),
        curve_json.join(",\n    "),
        frontier_json.join(",\n    "),
        records_to_json(&report.records),
    );
    if let Some(output) = &options.json {
        if let Err(error) = std::fs::write(output, json) {
            eprintln!("error: cannot write {}: {error}", output.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", output.display());
    }
}
