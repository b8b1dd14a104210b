//! Bandwidth and row-buffer statistics collected by the controller.

/// Statistics accumulated while the memory system executes requests.
///
/// The headline metric of the paper is
/// [`bus_utilization`](Stats::bus_utilization): the fraction of elapsed device
/// clock cycles during which the data bus carried a burst.  100 % means the
/// channel sustains its theoretical peak bandwidth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Device clock cycles elapsed between the statistics window start and the
    /// completion of the last request.
    pub elapsed_cycles: u64,
    /// Cycles during which the data bus transferred data.
    pub data_bus_busy_cycles: u64,
    /// Number of completed requests.
    pub completed_requests: u64,
    /// Number of read bursts performed.
    pub read_bursts: u64,
    /// Number of write bursts performed.
    pub write_bursts: u64,
    /// Activate commands issued.
    pub activates: u64,
    /// Precharge commands issued.
    pub precharges: u64,
    /// All-bank refresh commands issued.
    pub refreshes_all_bank: u64,
    /// Per-bank refresh commands issued.
    pub refreshes_per_bank: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Column accesses that required closing another row first (conflict).
    pub row_conflicts: u64,
    /// Column accesses to an idle (precharged) bank.
    pub row_empties: u64,
    /// Cycles during which the controller could not issue any command although
    /// work was pending (head-of-line stall time, diagnostic only).
    pub stall_cycles: u64,
}

impl Stats {
    /// Creates an empty statistics record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of elapsed cycles with data on the bus, in `[0, 1]`.
    ///
    /// Returns 0 when no cycles have elapsed.
    #[must_use]
    pub fn bus_utilization(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.data_bus_busy_cycles as f64 / self.elapsed_cycles as f64
        }
    }

    /// Row-buffer hit rate among all column accesses, in `[0, 1]`.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_conflicts + self.row_empties;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Merges another statistics record into this one (fields are summed).
    pub fn merge(&mut self, other: &Stats) {
        self.elapsed_cycles += other.elapsed_cycles;
        self.data_bus_busy_cycles += other.data_bus_busy_cycles;
        self.completed_requests += other.completed_requests;
        self.read_bursts += other.read_bursts;
        self.write_bursts += other.write_bursts;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes_all_bank += other.refreshes_all_bank;
        self.refreshes_per_bank += other.refreshes_per_bank;
        self.row_hits += other.row_hits;
        self.row_conflicts += other.row_conflicts;
        self.row_empties += other.row_empties;
        self.stall_cycles += other.stall_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_of_empty_stats_is_zero() {
        assert_eq!(Stats::new().bus_utilization(), 0.0);
        assert_eq!(Stats::new().row_hit_rate(), 0.0);
    }

    #[test]
    fn utilization_ratio() {
        let s = Stats {
            elapsed_cycles: 200,
            data_bus_busy_cycles: 150,
            ..Stats::default()
        };
        assert!((s.bus_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_scales_with_clock_and_width() {
        let s = Stats {
            elapsed_cycles: 100,
            data_bus_busy_cycles: 100,
            ..Stats::default()
        };
        // Full utilization on a 64-bit bus at 1600 MHz = 3200 MT/s * 64 bit = 204.8 Gbit/s.
        let bw = crate::CombinedStats::new(vec![s]).aggregate_bandwidth_gbps(1600.0, 64);
        assert!((bw - 204.8).abs() < 1e-9);
    }

    #[test]
    fn hit_rate() {
        let s = Stats {
            row_hits: 30,
            row_conflicts: 10,
            row_empties: 10,
            ..Stats::default()
        };
        assert!((s.row_hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = Stats {
            elapsed_cycles: 10,
            data_bus_busy_cycles: 5,
            completed_requests: 2,
            row_hits: 1,
            ..Stats::default()
        };
        let b = Stats {
            elapsed_cycles: 20,
            data_bus_busy_cycles: 10,
            completed_requests: 3,
            row_conflicts: 4,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.elapsed_cycles, 30);
        assert_eq!(a.data_bus_busy_cycles, 15);
        assert_eq!(a.completed_requests, 5);
        assert_eq!(a.row_hits, 1);
        assert_eq!(a.row_conflicts, 4);
    }
}
