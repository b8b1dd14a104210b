//! Structured results collected by experiments.

/// Link-level error rates from a scenario's optional channel/FEC stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkRecord {
    /// Frame (code word) error rate after decoding.
    pub frame_error_rate: f64,
    /// Symbol error rate on the channel (before decoding).
    pub channel_symbol_error_rate: f64,
    /// Residual (post-decoding) symbol error rate.
    pub residual_symbol_error_rate: f64,
    /// Post-FEC bit error rate over the payload data bits.
    pub post_fec_ber: f64,
    /// Reed–Solomon code rate `k/n` of the link stage.
    pub code_rate: f64,
    /// Interleaver depth of the link stage, in code words per block.
    pub interleaver_depth: u64,
}

/// Per-tenant latency metrics of one stream in a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLatency {
    /// Tenant identity.
    pub tenant: String,
    /// QoS class label (`premium` / `standard` / `best_effort`).
    pub qos: String,
    /// Completed requests of this tenant.
    pub requests: u64,
    /// Mean request latency in device cycles.  A lower bound when
    /// `latency_saturated` is set.
    pub mean_latency_cycles: f64,
    /// Whether the latency sum overflowed `u64` during accumulation — the
    /// scheduler's sticky saturation flag
    /// (`TenantReport::latency_saturated`); when `true` the mean above
    /// understates the truth and must not be trusted.
    pub latency_saturated: bool,
    /// Median request latency (conservative log2-bucket bound), cycles.
    pub p50_latency_cycles: u64,
    /// 99th-percentile request latency (conservative bound), cycles.
    pub p99_latency_cycles: u64,
    /// Blocks that finished after their QoS deadline.
    pub deadline_misses: u64,
}

/// Multi-tenant scheduling results attached to a [`Record`] when the
/// scenario ran in tenant mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Scheduling policy label (`round_robin` / `weighted_share` / `edf`).
    pub policy: String,
    /// Number of concurrent tenant streams.
    pub streams: u32,
    /// Jain fairness index over the tenants' mean latencies, in
    /// `[1/streams, 1]`.
    pub fairness_index: f64,
    /// Worst per-tenant p50 latency in device cycles.
    pub worst_p50_cycles: u64,
    /// Worst per-tenant p99 latency in device cycles.
    pub worst_p99_cycles: u64,
    /// Deadline misses summed over all tenants.
    pub deadline_misses: u64,
    /// Per-tenant breakdown, in stream order.
    pub per_tenant: Vec<TenantLatency>,
}

/// The typed result of one scenario run.
///
/// Records compare bit-exactly ([`PartialEq`]): the DRAM simulation is
/// deterministic, so two runs of the same scenario — regardless of worker
/// count or [timing engine](tbi_dram::TimingEngine) — produce identical
/// records.  The two **wall-clock** fields ([`Record::wall_time_s`] and
/// [`Record::sim_cycles_per_second`]) are the only non-deterministic ones;
/// they are deliberately excluded from the manual [`PartialEq`]
/// implementation so that "bit-identical" remains a meaningful cross-run
/// property while speedups still get recorded.  Records serialize to JSON
/// via [`crate::serialize`].
#[derive(Debug, Clone)]
pub struct Record {
    /// Stable ID of the scenario that produced this record.
    pub scenario_id: String,
    /// DRAM configuration label, e.g. `DDR4-3200`.
    pub dram_label: String,
    /// Mapping scheme name, e.g. `optimized`.
    pub mapping: String,
    /// Requested interleaver size in bursts.
    pub bursts: u64,
    /// Dimension `n` of the triangular index space.
    pub dimension: u32,
    /// Whether DRAM refresh was disabled for the run.
    pub refresh_disabled: bool,
    /// Independent DRAM channels of the subsystem (1 for the paper's
    /// Table I device).
    pub channels: u32,
    /// Ranks per channel (1 for the paper's Table I device).
    pub ranks: u32,
    /// Write-phase (row-wise) data-bus utilization in `[0, 1]`.
    pub write_utilization: f64,
    /// Read-phase (column-wise) data-bus utilization in `[0, 1]`.
    pub read_utilization: f64,
    /// Minimum of both phases — the throughput-limiting utilization (the
    /// bold column of the paper's Table I).
    pub min_utilization: f64,
    /// Sustained interleaver throughput **per channel** in Gbit/s (for a
    /// single channel this is the whole subsystem's throughput, matching the
    /// paper).
    pub sustained_gbps: f64,
    /// Sustained aggregate interleaver throughput of the whole subsystem in
    /// Gbit/s (`sustained_gbps × channels`; equal to `sustained_gbps` on a
    /// single channel).
    pub aggregate_gbps: f64,
    /// Spread (max − min) of the per-channel bus utilizations, worst phase;
    /// 0 on a single channel.
    pub channel_utilization_spread: f64,
    /// Row-buffer hit rate during the write phase, in `[0, 1]`.
    pub write_row_hit_rate: f64,
    /// Row-buffer hit rate during the read phase, in `[0, 1]`.
    pub read_row_hit_rate: f64,
    /// Activate commands issued across both phases.
    pub activates: u64,
    /// Estimated total energy of both phases in millijoules.
    pub energy_total_mj: f64,
    /// Estimated energy per transferred byte in nanojoules.
    pub energy_nj_per_byte: f64,
    /// Simulated device clock cycles across both phases (deterministic).
    pub simulated_cycles: u64,
    /// Worker threads that drove the per-channel controllers.  A host
    /// execution knob like [`Record::wall_time_s`]: results are
    /// bit-identical for any value, so it is **excluded** from
    /// [`PartialEq`] (two runs differing only in thread count compare
    /// equal).
    pub threads: u32,
    /// Wall-clock seconds spent simulating the DRAM phases (host-dependent;
    /// **excluded** from [`PartialEq`]).
    pub wall_time_s: f64,
    /// Simulation speed in simulated cycles per wall-clock second
    /// (host-dependent; **excluded** from [`PartialEq`]).
    pub sim_cycles_per_second: f64,
    /// Error rates of the optional channel/FEC stage.
    pub link: Option<LinkRecord>,
    /// Per-tenant scheduling metrics of the optional multi-tenant mode.
    pub tenants: Option<TenantSummary>,
}

/// Equality over the *deterministic* fields only: everything except
/// [`Record::wall_time_s`], [`Record::sim_cycles_per_second`] and
/// [`Record::threads`], which describe how the host executed the run rather
/// than what the run computed.
impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.scenario_id == other.scenario_id
            && self.dram_label == other.dram_label
            && self.mapping == other.mapping
            && self.bursts == other.bursts
            && self.dimension == other.dimension
            && self.refresh_disabled == other.refresh_disabled
            && self.channels == other.channels
            && self.ranks == other.ranks
            && self.write_utilization == other.write_utilization
            && self.read_utilization == other.read_utilization
            && self.min_utilization == other.min_utilization
            && self.sustained_gbps == other.sustained_gbps
            && self.aggregate_gbps == other.aggregate_gbps
            && self.channel_utilization_spread == other.channel_utilization_spread
            && self.write_row_hit_rate == other.write_row_hit_rate
            && self.read_row_hit_rate == other.read_row_hit_rate
            && self.activates == other.activates
            && self.energy_total_mj == other.energy_total_mj
            && self.energy_nj_per_byte == other.energy_nj_per_byte
            && self.simulated_cycles == other.simulated_cycles
            && self.link == other.link
            && self.tenants == other.tenants
    }
}

impl Record {
    /// Speedup of this record's minimum utilization over a baseline record
    /// (e.g. optimized vs. row-major), guarding against division by zero.
    #[must_use]
    pub fn speedup_over(&self, baseline: &Record) -> f64 {
        self.min_utilization / baseline.min_utilization.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(id: &str, min: f64) -> Record {
        Record {
            scenario_id: id.to_string(),
            dram_label: "DDR4-3200".to_string(),
            mapping: "optimized".to_string(),
            bursts: 1000,
            dimension: 45,
            refresh_disabled: false,
            channels: 1,
            ranks: 1,
            write_utilization: 0.97,
            read_utilization: min,
            min_utilization: min,
            sustained_gbps: 100.0 * min,
            aggregate_gbps: 100.0 * min,
            channel_utilization_spread: 0.0,
            write_row_hit_rate: 0.9,
            read_row_hit_rate: 0.8,
            activates: 123,
            energy_total_mj: 1.5,
            energy_nj_per_byte: 2.5,
            simulated_cycles: 4_000,
            threads: 1,
            wall_time_s: 0.25,
            sim_cycles_per_second: 16_000.0,
            link: None,
            tenants: None,
        }
    }

    /// The contract of the manual `PartialEq`: the host-execution fields
    /// (wall time, simulation speed, thread count) — and **only** those —
    /// are excluded from record equality.
    #[test]
    fn equality_ignores_wall_clock_fields() {
        let a = sample("a", 0.5);
        let mut b = a.clone();
        b.wall_time_s = 99.0;
        b.sim_cycles_per_second = 1.0;
        b.threads = 16;
        assert_eq!(a, b, "host-execution fields must not affect equality");
        let mut c = a.clone();
        c.simulated_cycles += 1;
        assert_ne!(a, c, "simulated cycles are deterministic and compared");
    }

    /// Every deterministic field participates in equality — mutating any
    /// one of them must break it (guards against a field being forgotten
    /// when the manual `PartialEq` is extended).
    #[test]
    fn every_deterministic_field_participates_in_equality() {
        type Mutation = (&'static str, Box<dyn Fn(&mut Record)>);
        let base = sample("a", 0.5);
        let mutations: Vec<Mutation> = vec![
            ("scenario_id", Box::new(|r| r.scenario_id.push('x'))),
            ("dram_label", Box::new(|r| r.dram_label.push('x'))),
            ("mapping", Box::new(|r| r.mapping.push('x'))),
            ("bursts", Box::new(|r| r.bursts += 1)),
            ("dimension", Box::new(|r| r.dimension += 1)),
            ("refresh_disabled", Box::new(|r| r.refresh_disabled = true)),
            ("channels", Box::new(|r| r.channels += 1)),
            ("ranks", Box::new(|r| r.ranks += 1)),
            (
                "write_utilization",
                Box::new(|r| r.write_utilization += 0.01),
            ),
            ("read_utilization", Box::new(|r| r.read_utilization += 0.01)),
            ("min_utilization", Box::new(|r| r.min_utilization += 0.01)),
            ("sustained_gbps", Box::new(|r| r.sustained_gbps += 1.0)),
            ("aggregate_gbps", Box::new(|r| r.aggregate_gbps += 1.0)),
            (
                "channel_utilization_spread",
                Box::new(|r| r.channel_utilization_spread += 0.01),
            ),
            (
                "write_row_hit_rate",
                Box::new(|r| r.write_row_hit_rate += 0.01),
            ),
            (
                "read_row_hit_rate",
                Box::new(|r| r.read_row_hit_rate += 0.01),
            ),
            ("activates", Box::new(|r| r.activates += 1)),
            ("energy_total_mj", Box::new(|r| r.energy_total_mj += 1.0)),
            (
                "energy_nj_per_byte",
                Box::new(|r| r.energy_nj_per_byte += 1.0),
            ),
            ("simulated_cycles", Box::new(|r| r.simulated_cycles += 1)),
            ("link", Box::new(|r| r.link = Some(LinkRecord::default()))),
            (
                "tenants",
                Box::new(|r| {
                    r.tenants = Some(TenantSummary {
                        policy: "round_robin".to_string(),
                        streams: 2,
                        fairness_index: 1.0,
                        worst_p50_cycles: 10,
                        worst_p99_cycles: 20,
                        deadline_misses: 0,
                        per_tenant: Vec::new(),
                    });
                }),
            ),
        ];
        for (field, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            assert_ne!(
                base, changed,
                "mutating `{field}` must break record equality"
            );
        }
    }

    #[test]
    fn speedup_is_ratio_of_min_utilizations() {
        let base = sample("a", 0.4);
        let opt = sample("b", 0.96);
        assert!((opt.speedup_over(&base) - 2.4).abs() < 1e-12);
    }

    #[test]
    fn speedup_survives_zero_baseline() {
        let base = sample("a", 0.0);
        let opt = sample("b", 0.96);
        assert!(opt.speedup_over(&base).is_finite());
    }
}
