//! Data-rate versus DRAM-bandwidth budgeting.
//!
//! The interleaver writes every burst to DRAM once and reads it back once, so
//! the DRAM channel must sustain **twice** the line rate — divided by the
//! bandwidth utilization its access pattern achieves.  This module quantifies
//! the over-provisioning argument from the paper's introduction: a mapping
//! with 45 % utilization needs a DRAM configuration more than twice as fast
//! (or twice as wide) as one achieving more than 90 %.

use tbi_dram::DramConfig;

/// Bandwidth budget of a DRAM-based interleaver at a given line rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthBudget {
    /// Link line rate in Gbit/s.
    pub line_rate_gbps: f64,
    /// Bandwidth utilization achieved by the mapping (minimum of both
    /// phases), in `[0, 1]`.
    pub utilization: f64,
}

impl BandwidthBudget {
    /// Creates a budget.
    ///
    /// # Panics
    ///
    /// Panics if `line_rate_gbps` is not positive or `utilization` is not in
    /// `(0, 1]`.
    #[must_use]
    pub fn new(line_rate_gbps: f64, utilization: f64) -> Self {
        assert!(line_rate_gbps > 0.0, "line rate must be positive");
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1], got {utilization}"
        );
        Self {
            line_rate_gbps,
            utilization,
        }
    }

    /// Raw DRAM traffic generated by the interleaver (write + read) in
    /// Gbit/s.
    #[must_use]
    pub fn dram_traffic_gbps(&self) -> f64 {
        2.0 * self.line_rate_gbps
    }

    /// Peak DRAM bandwidth that must be provisioned to sustain the line rate
    /// at the given utilization, in Gbit/s.
    #[must_use]
    pub fn required_peak_bandwidth_gbps(&self) -> f64 {
        self.dram_traffic_gbps() / self.utilization
    }

    /// Whether `config` can sustain the line rate.
    #[must_use]
    pub fn is_satisfied_by(&self, config: &DramConfig) -> bool {
        config.peak_bandwidth_gbps() >= self.required_peak_bandwidth_gbps()
    }

    /// The maximum line rate (Gbit/s) a configuration can sustain at the
    /// given utilization.
    #[must_use]
    pub fn max_line_rate_gbps(config: &DramConfig, utilization: f64) -> f64 {
        config.peak_bandwidth_gbps() * utilization / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_dram::DramStandard;

    #[test]
    fn required_bandwidth_scales_with_utilization() {
        let good = BandwidthBudget::new(100.0, 0.95);
        let bad = BandwidthBudget::new(100.0, 0.45);
        assert!((good.dram_traffic_gbps() - 200.0).abs() < 1e-12);
        assert!(good.required_peak_bandwidth_gbps() < bad.required_peak_bandwidth_gbps());
    }

    #[test]
    fn lpddr5_sustains_100g_only_with_good_utilization() {
        let config = DramConfig::preset(DramStandard::Lpddr5, 8533).unwrap();
        // Peak = 8533 MT/s * 32 bit = 273 Gbit/s.
        let optimized = BandwidthBudget::new(100.0, 0.95);
        let row_major = BandwidthBudget::new(100.0, 0.45);
        assert!(optimized.is_satisfied_by(&config));
        assert!(!row_major.is_satisfied_by(&config));
    }

    #[test]
    fn max_line_rate_matches_inverse_relation() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let utilization = 0.9;
        let rate = BandwidthBudget::max_line_rate_gbps(&config, utilization);
        let budget = BandwidthBudget::new(rate, utilization);
        assert!(budget.is_satisfied_by(&config));
        let slightly_more = BandwidthBudget::new(rate * 1.01, utilization);
        assert!(!slightly_more.is_satisfied_by(&config));
    }

    #[test]
    #[should_panic(expected = "utilization must be in (0, 1]")]
    fn zero_utilization_is_rejected() {
        let _ = BandwidthBudget::new(100.0, 0.0);
    }
}
