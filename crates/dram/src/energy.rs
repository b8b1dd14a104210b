//! A coarse DRAMPower-style energy model.
//!
//! The paper motivates the optimized mapping partly by energy: an oversized
//! (faster or wider) DRAM configuration costs more power.  This module
//! provides a simple command-counting energy estimate so that experiments can
//! report energy per transferred byte alongside bandwidth utilization.
//! The absolute numbers are indicative only.

use crate::standards::DramConfig;
use crate::stats::Stats;

/// Per-command and background energy parameters, in nanojoules and milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one ACT + PRE pair (row cycle), in nJ.
    pub act_pre_nj: f64,
    /// Energy of one read burst, in nJ.
    pub read_nj: f64,
    /// Energy of one write burst, in nJ.
    pub write_nj: f64,
    /// Energy of one all-bank refresh, in nJ.
    pub refresh_ab_nj: f64,
    /// Energy of one per-bank refresh, in nJ.
    pub refresh_pb_nj: f64,
    /// Background (standby) power, in mW.
    pub background_mw: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        // Ballpark DDR4-class values.
        Self {
            act_pre_nj: 2.0,
            read_nj: 1.5,
            write_nj: 1.5,
            refresh_ab_nj: 50.0,
            refresh_pb_nj: 5.0,
            background_mw: 200.0,
        }
    }
}

impl EnergyParams {
    /// Representative parameters for a DRAM configuration.
    ///
    /// Low-power standards get lower background power and command energies.
    #[must_use]
    pub fn for_config(config: &DramConfig) -> Self {
        use crate::standards::DramStandard;
        let base = Self::default();
        match config.standard {
            DramStandard::Lpddr4 | DramStandard::Lpddr5 => Self {
                act_pre_nj: base.act_pre_nj * 0.6,
                read_nj: base.read_nj * 0.5,
                write_nj: base.write_nj * 0.5,
                refresh_ab_nj: base.refresh_ab_nj * 0.7,
                refresh_pb_nj: base.refresh_pb_nj * 0.7,
                background_mw: 80.0,
            },
            DramStandard::Ddr5 => Self {
                background_mw: 250.0,
                ..base
            },
            // In-package stacked DRAM: short interconnect, cheap transfers,
            // but the stack's shared logic keeps background power up.
            DramStandard::Hbm2 => Self {
                act_pre_nj: base.act_pre_nj * 0.7,
                read_nj: base.read_nj * 0.4,
                write_nj: base.write_nj * 0.4,
                background_mw: 150.0,
                ..base
            },
            // High-speed graphics I/O costs more per transferred burst.
            DramStandard::Gddr6 => Self {
                read_nj: base.read_nj * 1.4,
                write_nj: base.write_nj * 1.4,
                background_mw: 300.0,
                ..base
            },
            // Four stacked dies refresh and idle behind one interface.
            DramStandard::Ddr5Stacked => Self {
                refresh_ab_nj: base.refresh_ab_nj * 1.5,
                refresh_pb_nj: base.refresh_pb_nj * 1.5,
                background_mw: 320.0,
                ..base
            },
            _ => base,
        }
    }
}

/// Energy estimate derived from controller statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Total estimated energy in millijoules.
    pub total_mj: f64,
    /// Energy spent on row activations/precharges in millijoules.
    pub act_pre_mj: f64,
    /// Energy spent on data transfer in millijoules.
    pub rd_wr_mj: f64,
    /// Energy spent on refresh in millijoules.
    pub refresh_mj: f64,
    /// Background energy in millijoules.
    pub background_mj: f64,
    /// Energy per transferred byte in nanojoules (0 if nothing transferred).
    pub nj_per_byte: f64,
}

impl EnergyReport {
    /// Computes the energy estimate for `stats` gathered on `config`.
    #[must_use]
    pub fn from_stats(stats: &Stats, config: &DramConfig, params: &EnergyParams) -> Self {
        let act_pre_mj = stats.activates as f64 * params.act_pre_nj * 1e-6;
        let rd_wr_mj = (stats.read_bursts as f64 * params.read_nj
            + stats.write_bursts as f64 * params.write_nj)
            * 1e-6;
        let refresh_mj = (stats.refreshes_all_bank as f64 * params.refresh_ab_nj
            + stats.refreshes_per_bank as f64 * params.refresh_pb_nj)
            * 1e-6;
        let seconds = stats.elapsed_cycles as f64 / (config.clock_mhz() * 1e6);
        let background_mj = params.background_mw * seconds;
        let total_mj = act_pre_mj + rd_wr_mj + refresh_mj + background_mj;
        let bytes = (stats.read_bursts + stats.write_bursts) as f64
            * f64::from(config.geometry.burst_bytes());
        let nj_per_byte = if bytes > 0.0 {
            total_mj * 1e6 / bytes
        } else {
            0.0
        };
        Self {
            total_mj,
            act_pre_mj,
            rd_wr_mj,
            refresh_mj,
            background_mj,
            nj_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standards::{DramConfig, DramStandard};

    fn stats() -> Stats {
        Stats {
            elapsed_cycles: 1_000_000,
            data_bus_busy_cycles: 900_000,
            completed_requests: 225_000,
            read_bursts: 100_000,
            write_bursts: 125_000,
            activates: 2_000,
            precharges: 2_000,
            refreshes_all_bank: 100,
            ..Stats::default()
        }
    }

    #[test]
    fn energy_components_sum_to_total() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let report = EnergyReport::from_stats(&stats(), &config, &EnergyParams::default());
        let sum = report.act_pre_mj + report.rd_wr_mj + report.refresh_mj + report.background_mj;
        assert!((report.total_mj - sum).abs() < 1e-9);
        assert!(report.total_mj > 0.0);
        assert!(report.nj_per_byte > 0.0);
    }

    #[test]
    fn lpddr_presets_use_lower_background_power() {
        let ddr4 = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let lp = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
        assert!(
            EnergyParams::for_config(&lp).background_mw
                < EnergyParams::for_config(&ddr4).background_mw
        );
    }

    #[test]
    fn zero_transfer_reports_zero_energy_per_byte() {
        let config = DramConfig::preset(DramStandard::Ddr3, 800).unwrap();
        let report = EnergyReport::from_stats(&Stats::default(), &config, &EnergyParams::default());
        assert_eq!(report.nj_per_byte, 0.0);
    }

    #[test]
    fn energy_report_is_positive_after_traffic() {
        use crate::channel::ChannelRouter;
        use crate::controller::ControllerConfig;
        use crate::request::{IteratorSource, Request};
        let config = DramConfig::preset(DramStandard::Ddr5, 6400).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let mut router = ChannelRouter::new(config.clone(), ControllerConfig::default()).unwrap();
        let trace = (0..2_000u64).map(|i| Request::write(decoder.decode(i).1));
        let stats = router
            .run_phase_sources(vec![IteratorSource(trace)])
            .aggregate();
        let report = EnergyReport::from_stats(&stats, &config, &EnergyParams::for_config(&config));
        assert!(report.total_mj > 0.0);
        assert!(report.nj_per_byte > 0.0);
    }

    #[test]
    fn more_activates_cost_more_energy() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let params = EnergyParams::default();
        let base = EnergyReport::from_stats(&stats(), &config, &params);
        let mut hot = stats();
        hot.activates *= 10;
        let hot_report = EnergyReport::from_stats(&hot, &config, &params);
        assert!(hot_report.total_mj > base.total_mj);
    }
}
