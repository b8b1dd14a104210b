//! Recorded pick order of the stream scheduler.
//!
//! Every multi-tenant run depends on which ready stream each pick serves,
//! so one hash per run pins the whole pick sequence: the per-channel DRAM
//! counters and each tenant's completions, deadline misses and latency
//! summary.  The rows were recorded from the scheduler that rebuilt a
//! candidate list of every ready stream on each pick; the policy-ordered
//! ready sets that replaced it must reproduce them exactly.
//!
//! The cases cross every policy, one and two channels, the automatic and a
//! tight in-flight budget, and backlogged against periodic arrivals.  The
//! periodic streams share one interval, so `(arrival, stream)` ties occur,
//! and the interval is short enough that every block arrives while earlier
//! work is still in flight.

use tbi_dram::{ChannelTopology, ControllerConfig, DramConfig, DramStandard, Stats};
use tbi_interleaver::InterleaverSpec;
use tbi_sched::{
    ArrivalModel, PhasePattern, QosClass, SchedConfig, SchedPolicyKind, SchedReport,
    StreamScheduler, StreamSpec,
};

const STREAMS: u32 = 12;
const BLOCKS: u64 = 3;
const STREAM_BURSTS: u64 = 600;
const INTERVAL_CYCLES: u64 = 10_000;

/// The 1:2:1 premium/standard/best-effort mix by stream index.
fn qos_for(index: u32) -> QosClass {
    match index % 4 {
        0 => QosClass::Premium,
        3 => QosClass::BestEffort,
        _ => QosClass::Standard,
    }
}

fn run(
    policy: SchedPolicyKind,
    channels: u32,
    max_in_flight: usize,
    arrival: ArrivalModel,
) -> SchedReport {
    let config = DramConfig::preset(DramStandard::Ddr4, 3200)
        .unwrap()
        .with_topology(ChannelTopology::new(channels, 1));
    let spec = InterleaverSpec::from_burst_count(STREAM_BURSTS);
    let streams = (0..STREAMS)
        .map(|index| {
            StreamSpec::new(format!("tenant-{index:02}"), spec)
                .with_qos(qos_for(index))
                .with_pattern(PhasePattern::Alternating)
                .with_blocks(BLOCKS)
                .with_arrival(arrival)
        })
        .collect();
    let sched = SchedConfig::new(policy).with_max_in_flight(max_in_flight);
    StreamScheduler::new(config, ControllerConfig::default(), streams, sched)
        .unwrap()
        .run()
}

fn fnv(hash: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(hash, |hash, value| {
        (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn stats_counters(stats: &Stats) -> [u64; 13] {
    [
        stats.elapsed_cycles,
        stats.data_bus_busy_cycles,
        stats.completed_requests,
        stats.read_bursts,
        stats.write_bursts,
        stats.activates,
        stats.precharges,
        stats.refreshes_all_bank,
        stats.refreshes_per_bank,
        stats.row_hits,
        stats.row_conflicts,
        stats.row_empties,
        stats.stall_cycles,
    ]
}

/// FNV-1a over every channel's counters, then every tenant's requests,
/// blocks, deadline misses and latency count/sum/min/max/p50/p99.
fn report_hash(report: &SchedReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for stats in report.stats.per_channel() {
        hash = fnv(hash, stats_counters(stats));
    }
    for tenant in &report.tenants {
        let latency = &tenant.latency;
        hash = fnv(
            hash,
            [
                tenant.requests,
                tenant.blocks,
                tenant.deadline_misses,
                latency.count(),
                latency.sum(),
                latency.min(),
                latency.max(),
                latency.p50(),
                latency.p99(),
            ],
        );
    }
    hash
}

/// `(policy, channels, in-flight budget, arrivals, hash)`; a budget of 0
/// is the automatic two blocks per stream.
#[rustfmt::skip]
const PICK_GOLDEN: [(&str, u32, usize, &str, u64); 24] = [
    ("round_robin", 1, 0, "backlogged", 0x36fe19d811dc8962),
    ("round_robin", 1, 0, "periodic", 0xb41758a33d248f55),
    ("round_robin", 1, 3, "backlogged", 0xf1c971435905309d),
    ("round_robin", 1, 3, "periodic", 0xd336439b2497b0a9),
    ("round_robin", 2, 0, "backlogged", 0x05b475b7aa2cec28),
    ("round_robin", 2, 0, "periodic", 0x576d56ad9bb3d4e1),
    ("round_robin", 2, 3, "backlogged", 0xd1f28c498df632c9),
    ("round_robin", 2, 3, "periodic", 0x6bfd4d2b909eae14),
    ("weighted_share", 1, 0, "backlogged", 0x08257c79e217e734),
    ("weighted_share", 1, 0, "periodic", 0x96393eea6a1ede78),
    ("weighted_share", 1, 3, "backlogged", 0x19f094922f494255),
    ("weighted_share", 1, 3, "periodic", 0xbe78b29acd738f89),
    ("weighted_share", 2, 0, "backlogged", 0x14b6190253bc8eaa),
    ("weighted_share", 2, 0, "periodic", 0x072e4515f47b6279),
    ("weighted_share", 2, 3, "backlogged", 0xbd0aa3264a94cd83),
    ("weighted_share", 2, 3, "periodic", 0xdce3a5dac03877e4),
    ("edf", 1, 0, "backlogged", 0x69ea750a05f3c608),
    ("edf", 1, 0, "periodic", 0xd64bda1750783f81),
    ("edf", 1, 3, "backlogged", 0x2ba172c10dd97019),
    ("edf", 1, 3, "periodic", 0x40cea500bc9608bd),
    ("edf", 2, 0, "backlogged", 0x6b9a637f1f1e02fc),
    ("edf", 2, 0, "periodic", 0xf2ad34c466c73c73),
    ("edf", 2, 3, "backlogged", 0x85bb9a6befb97c36),
    ("edf", 2, 3, "periodic", 0x15e013154077094f),
];

#[test]
fn multi_tenant_runs_reproduce_the_recorded_pick_order() {
    let requests = u64::from(STREAMS)
        * BLOCKS
        * InterleaverSpec::from_burst_count(STREAM_BURSTS).total_positions();
    let mut rows = PICK_GOLDEN.iter();
    for policy in SchedPolicyKind::ALL {
        for channels in [1, 2] {
            for max_in_flight in [0, 3] {
                for (label, arrival) in [
                    ("backlogged", ArrivalModel::Backlogged),
                    (
                        "periodic",
                        ArrivalModel::Periodic {
                            interval_cycles: INTERVAL_CYCLES,
                        },
                    ),
                ] {
                    let &(row_policy, row_channels, row_budget, row_arrival, expected) =
                        rows.next().expect("one row per case");
                    assert_eq!(
                        (row_policy, row_channels, row_budget, row_arrival),
                        (policy.label(), channels, max_in_flight, label)
                    );
                    let report = run(policy, channels, max_in_flight, arrival);
                    assert_eq!(report.total_requests(), requests);
                    assert_eq!(
                        report_hash(&report),
                        expected,
                        "{policy} {channels}x1 budget {max_in_flight} {label}"
                    );
                }
            }
        }
    }
}
