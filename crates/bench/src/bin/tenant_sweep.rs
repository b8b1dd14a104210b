//! Sweeps the multi-tenant scheduler axes — concurrent streams × scheduling
//! policy × channels — on two representative presets and reports per-tenant
//! tail latency, emitting a script-friendly `BENCH_tenants.json`.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin tenant_sweep [-- --bursts <n> |
//!                                                        --workers <n> |
//!                                                        --json <p>]
//! ```
//!
//! Every cell runs the same aggregate traffic: `--bursts` is divided across
//! the streams of the cell (floor 64 bursts per stream), each stream pushing
//! two triangular blocks through the optimized mapping with the default
//! 1:2:1 premium/standard/best-effort QoS mix of [`TenantStage`].  The
//! committed
//! `BENCH_tenants.json` pins the headline claim of the scheduler subsystem:
//! under heavy mixed traffic (the most-contended cell — maximum streams on
//! one channel), the premium-tenant p99 latency differs measurably between
//! scheduling policies (weight-aware policies protect premium tenants,
//! round-robin does not).

use tbi_bench::HarnessOptions;
use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
use tbi_exp::serialize::{json_number, json_string, records_to_json};
use tbi_exp::{Experiment, Record, Scenario, TenantStage};
use tbi_interleaver::{InterleaverSpec, MappingKind};
use tbi_sched::SchedPolicyKind;

const STREAM_AXIS: [u32; 2] = [8, 64];
const CHANNEL_AXIS: [u32; 2] = [1, 2];
const PRESETS: [(DramStandard, u32); 2] =
    [(DramStandard::Ddr4, 3200), (DramStandard::Lpddr4, 4266)];
/// Minimum per-stream interleaver size so every stream runs a non-trivial
/// triangular block even when `--bursts` is small.
const MIN_STREAM_BURSTS: u64 = 64;

const FLAGS: &[&str] = &["--bursts", "--workers", "--json"];

/// Per-policy tail-latency observation of one contended sweep cell.
struct PolicyCell {
    policy: String,
    premium_p99: u64,
    worst_p99: u64,
    fairness: f64,
}

/// Worst p99 over the premium-class tenants of a record.
fn premium_p99(record: &Record) -> u64 {
    record
        .tenants
        .as_ref()
        .expect("tenant sweep records carry a summary")
        .per_tenant
        .iter()
        .filter(|t| t.qos == "premium")
        .map(|t| t.p99_latency_cycles)
        .max()
        .unwrap_or(0)
}

fn find<'a>(
    records: &'a [Record],
    dram: &str,
    streams: u32,
    channels: u32,
    policy: &str,
) -> &'a Record {
    records
        .iter()
        .find(|r| {
            r.dram_label == dram
                && r.channels == channels
                && r.tenants
                    .as_ref()
                    .is_some_and(|t| t.streams == streams && t.policy == policy)
        })
        .expect("sweep covers every (dram, streams, channels, policy) cell")
}

fn main() {
    let options = HarnessOptions::from_env("tenant_sweep", FLAGS);
    let mut scenarios = Vec::new();
    for (standard, rate) in PRESETS {
        let preset = match DramConfig::preset(standard, rate) {
            Ok(config) => config,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        };
        for &channels in &CHANNEL_AXIS {
            let dram = preset
                .clone()
                .with_topology(ChannelTopology::new(channels, 1));
            for &streams in &STREAM_AXIS {
                let per_stream = (options.bursts / u64::from(streams)).max(MIN_STREAM_BURSTS);
                let spec = InterleaverSpec::from_burst_count(per_stream);
                for policy in SchedPolicyKind::ALL {
                    scenarios.push(
                        Scenario::custom(dram.clone(), MappingKind::Optimized, spec)
                            .with_tenants(TenantStage::new(streams, policy)),
                    );
                }
            }
        }
    }
    eprintln!(
        "tenant_sweep: {} scenarios, {} aggregate bursts per cell (streams {STREAM_AXIS:?}, \
         channels {CHANNEL_AXIS:?}, policies {:?})",
        scenarios.len(),
        options.bursts,
        SchedPolicyKind::ALL.map(|p| p.label()),
    );
    let experiment = Experiment::new(scenarios).with_workers(options.workers);
    let records = match experiment.run() {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!(
        "{:<14} {:>3} {:>8} {:>15} {:>13} {:>13} {:>9} {:>7}",
        "config", "ch", "streams", "policy", "premium p99", "worst p99", "fairness", "misses"
    );
    for record in &records {
        let tenants = record.tenants.as_ref().expect("tenant summary");
        println!(
            "{:<14} {:>3} {:>8} {:>15} {:>13} {:>13} {:>9.4} {:>7}",
            record.dram_label,
            record.channels,
            tenants.streams,
            tenants.policy,
            premium_p99(record),
            tenants.worst_p99_cycles,
            tenants.fairness_index,
            tenants.deadline_misses,
        );
    }

    // Headline: on each preset's most-contended cell (max streams, one
    // channel), the ratio between the worst and the best policy's premium
    // p99 — how much tail latency a premium tenant gains from the right
    // scheduling policy.
    let contended_streams = *STREAM_AXIS.iter().max().unwrap();
    let mut cell_json = Vec::new();
    let mut max_ratio: f64 = 0.0;
    for (standard, rate) in PRESETS {
        let dram = format!("{}-{rate}", standard.name());
        let cells: Vec<PolicyCell> = SchedPolicyKind::ALL
            .iter()
            .map(|policy| {
                let record = find(&records, &dram, contended_streams, 1, policy.label());
                let tenants = record.tenants.as_ref().unwrap();
                PolicyCell {
                    policy: policy.label().to_string(),
                    premium_p99: premium_p99(record),
                    worst_p99: tenants.worst_p99_cycles,
                    fairness: tenants.fairness_index,
                }
            })
            .collect();
        let best = cells.iter().map(|c| c.premium_p99).min().unwrap().max(1);
        let worst = cells.iter().map(|c| c.premium_p99).max().unwrap();
        let ratio = worst as f64 / best as f64;
        max_ratio = max_ratio.max(ratio);
        println!(
            "{dram}: premium p99 spread across policies at {contended_streams} streams / 1 \
             channel: x{ratio:.3}"
        );
        let per_policy: Vec<String> = cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"policy\":{},\"premium_p99_cycles\":{},\"worst_p99_cycles\":{},\
                     \"fairness_index\":{}}}",
                    json_string(&c.policy),
                    c.premium_p99,
                    c.worst_p99,
                    json_number(c.fairness),
                )
            })
            .collect();
        cell_json.push(format!(
            "{{\"dram\":{},\"streams\":{contended_streams},\"channels\":1,\
             \"premium_p99_ratio\":{},\"per_policy\":[{}]}}",
            json_string(&dram),
            json_number(ratio),
            per_policy.join(","),
        ));
    }
    println!("maximum premium-p99 policy spread: x{max_ratio:.3}");

    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"stream_axis\": [8,64],\n  \
         \"channel_axis\": [1,2],\n  \"policies\": [{}],\n  \"scenarios\": {},\n  \
         \"max_premium_p99_ratio\": {},\n  \"contended_cells\": [\n    {}\n  ],\n  \
         \"records\": {}}}\n",
        json_string("tenant_sweep"),
        options.bursts,
        SchedPolicyKind::ALL
            .map(|p| json_string(p.label()))
            .join(","),
        records.len(),
        json_number(max_ratio),
        cell_json.join(",\n    "),
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
