//! Preset configurations: the ten DRAM devices evaluated in the paper
//! ([`ALL_CONFIGS`]) and six modern devices ([`MODERN_CONFIGS`]).
//!
//! The paper simulates five JEDEC standards at two speed grades each:
//! DDR3-800/1600, DDR4-1600/3200, DDR5-3200/6400, LPDDR4-2133/4266 and
//! LPDDR5-4267/8533.  The presets below use representative datasheet values;
//! they are not copies of any particular vendor datasheet but preserve the
//! ratios (core timing in nanoseconds versus burst duration) that drive the
//! bandwidth-utilization behaviour studied in the paper.
//!
//! Geometry note: each preset models one *channel* as a single logical device
//! whose burst transfers 64 bytes (the 512-bit burst referenced in the
//! paper), i.e. a 64-bit DDR3/DDR4 channel with BL8, a 32-bit DDR5
//! sub-channel with BL16, and 32-bit LPDDR4/LPDDR5 channels with BL16.

use crate::address::DecodeScheme;
use crate::controller::RefreshMode;
use crate::error::ConfigError;
use crate::geometry::{ChannelTopology, DeviceGeometry};
use crate::permutation::PermutationMapping;
use crate::timing::{ns_to_cycles, TimingParams};

/// The five DRAM standards evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DramStandard {
    /// DDR3 SDRAM (no bank groups, BL8).
    Ddr3,
    /// DDR4 SDRAM (4 bank groups, BL8).
    Ddr4,
    /// DDR5 SDRAM (8 bank groups, BL16, 32-bit sub-channel).
    Ddr5,
    /// LPDDR4 (no bank groups, BL16).
    Lpddr4,
    /// LPDDR5 (4 bank groups, BL16).
    Lpddr5,
    /// HBM2 pseudo-channel (4 bank groups, BL8, 64-bit pseudo-channel; a
    /// stack exposes eight pseudo-channels via the preset's topology).
    Hbm2,
    /// GDDR6 (4 bank groups, BL16, 32-bit channel; two channels per die).
    Gddr6,
    /// DDR5 3DS multi-rank stack (DDR5 sub-channel geometry with four
    /// stacked logical ranks behind one channel).
    Ddr5Stacked,
}

impl DramStandard {
    /// All standards, in the order used by the paper's Table I.
    pub const ALL: [DramStandard; 5] = [
        DramStandard::Ddr3,
        DramStandard::Ddr4,
        DramStandard::Ddr5,
        DramStandard::Lpddr4,
        DramStandard::Lpddr5,
    ];

    /// The three modern scale-out standards beyond the paper's Table I:
    /// HBM2 pseudo-channels, GDDR6 and DDR5 3DS multi-rank stacks.
    pub const MODERN: [DramStandard; 3] = [
        DramStandard::Hbm2,
        DramStandard::Gddr6,
        DramStandard::Ddr5Stacked,
    ];

    /// Returns the two speed grades (data rates in MT/s) simulated for this
    /// standard — the paper's Table I grades for the five paper standards,
    /// representative datasheet grades for the modern presets.
    #[must_use]
    pub fn paper_speed_grades(self) -> [u32; 2] {
        match self {
            DramStandard::Ddr3 => [800, 1600],
            DramStandard::Ddr4 => [1600, 3200],
            DramStandard::Ddr5 => [3200, 6400],
            DramStandard::Lpddr4 => [2133, 4266],
            DramStandard::Lpddr5 => [4267, 8533],
            DramStandard::Hbm2 => [2000, 2400],
            DramStandard::Gddr6 => [14000, 16000],
            DramStandard::Ddr5Stacked => [4800, 6400],
        }
    }

    /// Display name matching the paper ("DDR4", "LPDDR5", ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DramStandard::Ddr3 => "DDR3",
            DramStandard::Ddr4 => "DDR4",
            DramStandard::Ddr5 => "DDR5",
            DramStandard::Lpddr4 => "LPDDR4",
            DramStandard::Lpddr5 => "LPDDR5",
            DramStandard::Hbm2 => "HBM2",
            DramStandard::Gddr6 => "GDDR6",
            DramStandard::Ddr5Stacked => "DDR5-3DS",
        }
    }
}

impl std::fmt::Display for DramStandard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// All ten (standard, data rate) pairs from Table I of the paper.
pub const ALL_CONFIGS: &[(DramStandard, u32)] = &[
    (DramStandard::Ddr3, 800),
    (DramStandard::Ddr3, 1600),
    (DramStandard::Ddr4, 1600),
    (DramStandard::Ddr4, 3200),
    (DramStandard::Ddr5, 3200),
    (DramStandard::Ddr5, 6400),
    (DramStandard::Lpddr4, 2133),
    (DramStandard::Lpddr4, 4266),
    (DramStandard::Lpddr5, 4267),
    (DramStandard::Lpddr5, 8533),
];

/// The six modern (standard, data rate) pairs beyond the paper's Table I:
/// HBM2 pseudo-channel stacks, GDDR6 and DDR5 3DS multi-rank devices.  These
/// presets bake a non-trivial [`ChannelTopology`] into the configuration
/// (eight pseudo-channels for HBM2, two channels for GDDR6, four stacked
/// ranks for DDR5-3DS) so topology-aware mappings are exercised end to end.
pub const MODERN_CONFIGS: &[(DramStandard, u32)] = &[
    (DramStandard::Hbm2, 2000),
    (DramStandard::Hbm2, 2400),
    (DramStandard::Gddr6, 14000),
    (DramStandard::Gddr6, 16000),
    (DramStandard::Ddr5Stacked, 4800),
    (DramStandard::Ddr5Stacked, 6400),
];

/// A complete single-channel DRAM configuration: standard, speed grade,
/// geometry and timing.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
///
/// # fn main() -> Result<(), tbi_dram::ConfigError> {
/// let cfg = DramConfig::preset(DramStandard::Lpddr4, 4266)?;
/// assert_eq!(cfg.geometry.total_banks(), 8);
/// assert_eq!(cfg.geometry.burst_bytes(), 64);
/// assert!(cfg.peak_bandwidth_gbps() > 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// The JEDEC standard family.
    pub standard: DramStandard,
    /// Data rate in MT/s (e.g. 3200 for DDR4-3200).
    pub data_rate_mtps: u32,
    /// Channel geometry.
    pub geometry: DeviceGeometry,
    /// Timing constraints in device clock cycles.
    pub timing: TimingParams,
    /// Default refresh mode for this standard (all-bank for DDR3/DDR4,
    /// per-bank for DDR5/LPDDR4/LPDDR5).
    pub default_refresh: RefreshMode,
    /// Default linear-address decode scheme used by
    /// [`DramConfig::linear_decoder`].
    pub decode_scheme: DecodeScheme,
    /// Channel/rank scale-out of the subsystem.  The paper's ten Table I
    /// presets default to a single-channel, single-rank device; the modern
    /// presets ([`MODERN_CONFIGS`]) bake their native scale-out (HBM2
    /// pseudo-channels, GDDR6 dual channels, DDR5-3DS stacked ranks).  Use
    /// [`DramConfig::with_topology`] to override.
    pub topology: ChannelTopology,
}

impl DramConfig {
    /// Returns the preset configuration for `standard` at `data_rate_mtps`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownPreset`] if the (standard, data rate)
    /// pair is not one of the 16 presets ([`ALL_CONFIGS`] and
    /// [`MODERN_CONFIGS`]).
    pub fn preset(standard: DramStandard, data_rate_mtps: u32) -> Result<Self, ConfigError> {
        let grades = standard.paper_speed_grades();
        if !grades.contains(&data_rate_mtps) {
            return Err(ConfigError::UnknownPreset {
                standard: standard.name().to_string(),
                data_rate: data_rate_mtps,
            });
        }
        let cfg = build_preset(standard, data_rate_mtps);
        cfg.validate()?;
        Ok(cfg)
    }

    /// Device clock frequency in MHz (half the data rate).
    #[must_use]
    pub fn clock_mhz(&self) -> f64 {
        f64::from(self.data_rate_mtps) / 2.0
    }

    /// Theoretical peak bandwidth of **one channel** in Gbit/s.
    #[must_use]
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        f64::from(self.data_rate_mtps) * 1.0e6 * f64::from(self.geometry.bus_width_bits) / 1.0e9
    }

    /// Returns a copy of this configuration scaled out to `topology`.
    ///
    /// The per-channel geometry and timing are unchanged; only the
    /// channel/rank counts differ.  `with_topology(ChannelTopology::default())`
    /// is the identity.
    #[must_use]
    pub fn with_topology(mut self, topology: ChannelTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns a copy of this configuration at `data_rate_mtps`, as a faster
    /// or slower speed grade of the same die: every timing parameter except
    /// the clock-constant ones (tCCD, tRTRS, the bus turnaround and the burst
    /// length) keeps its nanosecond value and is re-derived in cycles of the
    /// new clock.  The geometry, topology and refresh mode are unchanged.
    #[must_use]
    pub fn scaled_to(mut self, data_rate_mtps: u32) -> Self {
        let from_clock = self.clock_mhz();
        let to_clock = f64::from(data_rate_mtps) / 2.0;
        let rescale = |cycles: u64| -> u64 {
            let ns = cycles as f64 / from_clock * 1000.0;
            ns_to_cycles(ns, to_clock).max(1)
        };
        let t = &mut self.timing;
        t.cl = rescale(t.cl);
        t.cwl = rescale(t.cwl);
        t.t_rcd = rescale(t.t_rcd);
        t.t_rp = rescale(t.t_rp);
        t.t_ras = rescale(t.t_ras);
        // Independent ceil-rounding can leave t_rc one cycle short of
        // t_ras + t_rp; keep the invariant explicitly.
        t.t_rc = rescale(t.t_rc).max(t.t_ras + t.t_rp);
        t.t_rrd_s = rescale(t.t_rrd_s);
        t.t_rrd_l = rescale(t.t_rrd_l);
        t.t_faw = rescale(t.t_faw);
        t.t_wr = rescale(t.t_wr);
        t.t_wtr_s = rescale(t.t_wtr_s);
        t.t_wtr_l = rescale(t.t_wtr_l);
        t.t_rtp = rescale(t.t_rtp);
        t.t_rfc_ab = rescale(t.t_rfc_ab);
        t.t_rfc_pb = rescale(t.t_rfc_pb);
        t.t_refi = rescale(t.t_refi);
        self.data_rate_mtps = data_rate_mtps;
        self
    }

    /// Name of the configuration in the paper's style, e.g. `DDR4-3200`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}-{}", self.standard.name(), self.data_rate_mtps)
    }

    /// The controller's linear-address decoder for one channel: the
    /// configuration's [`DecodeScheme`] as a bit permutation over
    /// `topology.ranks` ranks of the geometry.
    ///
    /// This is the "row-major" baseline path: the interleaver treats DRAM as
    /// flat storage and the controller slices the linear address into
    /// bank/row/column bits (plus rank bits when the topology has more than
    /// one rank per channel).  Build it once and call
    /// [`PermutationMapping::decode`] per burst; channel 0 is the only
    /// channel it decodes to.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if the geometry fails
    /// [`DeviceGeometry::validate`] or the rank count fails
    /// [`ChannelTopology::validate`] (a dimension or count that is not a
    /// non-zero power of two, for one).
    pub fn linear_decoder(&self) -> Result<PermutationMapping, ConfigError> {
        let topology = ChannelTopology::new(1, self.topology.ranks);
        PermutationMapping::for_scheme(self.decode_scheme, self.geometry, topology)
    }

    /// Validates geometry and timing.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] from [`DeviceGeometry::validate`] and
    /// [`TimingParams::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.geometry.validate()?;
        self.timing.validate()?;
        self.topology.validate()?;
        Ok(())
    }
}

/// Builds one of the 16 presets.  Only called with validated pairs.
fn build_preset(standard: DramStandard, rate: u32) -> DramConfig {
    let clock = f64::from(rate) / 2.0;
    let c = |ns: f64| ns_to_cycles(ns, clock);
    let ck = |n: u64| n;

    let (geometry, timing, refresh) = match (standard, rate) {
        (DramStandard::Ddr3, _) => {
            let geometry = DeviceGeometry {
                bank_groups: 1,
                banks_per_group: 8,
                rows: 1 << 16,
                columns_per_row: 128,
                burst_length: 8,
                bus_width_bits: 64,
            };
            let (cl, cwl, t_faw_ns) = if rate == 800 {
                (ck(6), ck(5), 37.5)
            } else {
                (ck(11), ck(8), 30.0)
            };
            let timing = TimingParams {
                cl,
                cwl,
                t_rcd: c(13.75).max(5),
                t_rp: c(13.75).max(5),
                t_ras: c(35.0),
                t_rc: c(35.0) + c(13.75).max(5),
                t_rrd_s: c(7.5).max(4),
                t_rrd_l: c(7.5).max(4),
                t_faw: c(t_faw_ns),
                t_ccd_s: 4,
                t_ccd_l: 4,
                t_wr: c(15.0),
                t_wtr_s: c(7.5).max(4),
                t_wtr_l: c(7.5).max(4),
                t_rtp: c(7.5).max(4),
                t_rfc_ab: c(260.0),
                t_rfc_pb: 0,
                t_refi: c(7800.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::AllBank)
        }
        (DramStandard::Ddr4, _) => {
            let geometry = DeviceGeometry {
                bank_groups: 4,
                banks_per_group: 4,
                rows: 1 << 16,
                columns_per_row: 128,
                burst_length: 8,
                bus_width_bits: 64,
            };
            let (cl, cwl) = if rate == 1600 {
                (ck(11), ck(9))
            } else {
                (ck(22), ck(16))
            };
            let timing = TimingParams {
                cl,
                cwl,
                t_rcd: c(13.75),
                t_rp: c(13.75),
                t_ras: c(32.0),
                t_rc: c(32.0) + c(13.75),
                t_rrd_s: c(2.5).max(4),
                t_rrd_l: c(4.9).max(4),
                t_faw: if rate == 1600 { c(25.0) } else { c(21.25) },
                t_ccd_s: 4,
                t_ccd_l: c(5.0).max(4),
                t_wr: c(15.0),
                t_wtr_s: c(2.5).max(2),
                t_wtr_l: c(7.5).max(4),
                t_rtp: c(7.5).max(4),
                t_rfc_ab: c(350.0),
                t_rfc_pb: 0,
                t_refi: c(7800.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::AllBank)
        }
        (DramStandard::Ddr5, _) => {
            let geometry = DeviceGeometry {
                bank_groups: 8,
                banks_per_group: 4,
                rows: 1 << 16,
                columns_per_row: 64,
                burst_length: 16,
                bus_width_bits: 32,
            };
            let cl = c(15.0).max(22);
            let timing = TimingParams {
                cl,
                cwl: cl.saturating_sub(2).max(20),
                t_rcd: c(15.0).max(22),
                t_rp: c(15.0).max(22),
                t_ras: c(32.0),
                t_rc: c(32.0) + c(15.0).max(22),
                t_rrd_s: 8,
                t_rrd_l: c(5.0).max(8),
                t_faw: c(13.333).max(32),
                t_ccd_s: 8,
                t_ccd_l: c(5.0).max(8),
                t_wr: c(30.0),
                t_wtr_s: c(2.5).max(4),
                t_wtr_l: c(10.0).max(16),
                t_rtp: c(7.5).max(12),
                t_rfc_ab: c(295.0),
                t_rfc_pb: c(130.0),
                t_refi: c(3900.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::PerBank)
        }
        (DramStandard::Lpddr4, _) => {
            let geometry = DeviceGeometry {
                bank_groups: 1,
                banks_per_group: 8,
                rows: 1 << 17,
                columns_per_row: 64,
                burst_length: 16,
                bus_width_bits: 32,
            };
            let (cl, cwl) = if rate == 2133 {
                (ck(20), ck(10))
            } else {
                (ck(36), ck(18))
            };
            let timing = TimingParams {
                cl,
                cwl,
                t_rcd: c(18.0),
                t_rp: c(18.0),
                t_ras: c(42.0),
                t_rc: c(42.0) + c(18.0),
                t_rrd_s: c(10.0).max(4),
                t_rrd_l: c(10.0).max(4),
                t_faw: c(40.0),
                t_ccd_s: 8,
                t_ccd_l: 8,
                t_wr: c(18.0),
                t_wtr_s: c(10.0).max(4),
                t_wtr_l: c(10.0).max(4),
                t_rtp: c(7.5).max(4),
                t_rfc_ab: c(280.0),
                t_rfc_pb: c(140.0),
                t_refi: c(3904.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::PerBank)
        }
        (DramStandard::Lpddr5, _) => {
            let geometry = DeviceGeometry {
                bank_groups: 4,
                banks_per_group: 4,
                rows: 1 << 17,
                columns_per_row: 64,
                burst_length: 16,
                bus_width_bits: 32,
            };
            let (cl, cwl) = if rate == 4267 {
                (ck(36), ck(18))
            } else {
                (ck(72), ck(36))
            };
            let timing = TimingParams {
                cl,
                cwl,
                t_rcd: c(18.0),
                t_rp: c(18.0),
                t_ras: c(42.0),
                t_rc: c(42.0) + c(18.0),
                t_rrd_s: c(5.0).max(4),
                t_rrd_l: c(5.0).max(4),
                t_faw: c(20.0),
                t_ccd_s: 8,
                t_ccd_l: if rate == 8533 { 16 } else { 8 },
                t_wr: c(18.0),
                t_wtr_s: c(10.0).max(4),
                t_wtr_l: c(10.0).max(4),
                t_rtp: c(7.5).max(4),
                t_rfc_ab: c(280.0),
                t_rfc_pb: c(140.0),
                t_refi: c(3904.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::PerBank)
        }
        (DramStandard::Hbm2, _) => {
            // One 64-bit pseudo-channel with BL8 (a 64-byte burst); the
            // stack's eight pseudo-channels come from the baked topology.
            // 2^15 rows so a pseudo-channel holds the paper's full-size
            // interleaver under the optimized mapping's padded footprint
            // (each channel addresses the whole padded frame; the stripe
            // router interleaves accesses, not capacity).
            let geometry = DeviceGeometry {
                bank_groups: 4,
                banks_per_group: 4,
                rows: 1 << 15,
                columns_per_row: 64,
                burst_length: 8,
                bus_width_bits: 64,
            };
            let timing = TimingParams {
                cl: c(14.0),
                cwl: c(7.0),
                t_rcd: c(14.0),
                t_rp: c(14.0),
                t_ras: c(33.0),
                t_rc: c(33.0) + c(14.0),
                t_rrd_s: c(4.0).max(4),
                t_rrd_l: c(6.0).max(4),
                t_faw: c(30.0),
                t_ccd_s: 4,
                t_ccd_l: c(4.0).max(4),
                t_wr: c(15.0),
                t_wtr_s: c(2.5).max(2),
                t_wtr_l: c(7.5).max(4),
                t_rtp: c(7.5).max(4),
                t_rfc_ab: c(260.0),
                t_rfc_pb: c(160.0),
                t_refi: c(3900.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::PerBank)
        }
        (DramStandard::Gddr6, _) => {
            // One 32-bit channel with BL16 (a 64-byte burst); a die exposes
            // two such channels via the baked topology.  2^15 rows for the
            // same full-size capacity reason as HBM2 above.
            let geometry = DeviceGeometry {
                bank_groups: 4,
                banks_per_group: 4,
                rows: 1 << 15,
                columns_per_row: 64,
                burst_length: 16,
                bus_width_bits: 32,
            };
            let timing = TimingParams {
                cl: c(18.0),
                cwl: c(6.0),
                t_rcd: c(18.0),
                t_rp: c(18.0),
                t_ras: c(28.0),
                t_rc: c(28.0) + c(18.0),
                t_rrd_s: c(6.0).max(8),
                t_rrd_l: c(6.0).max(8),
                t_faw: c(24.0),
                t_ccd_s: 8,
                t_ccd_l: c(1.5).max(8),
                t_wr: c(15.0),
                t_wtr_s: c(2.5).max(4),
                t_wtr_l: c(5.0).max(8),
                t_rtp: c(2.0).max(8),
                t_rfc_ab: c(110.0),
                t_rfc_pb: c(60.0),
                t_refi: c(1900.0),
                t_bus_turn: 2,
                t_rank_to_rank: 2,
            };
            (geometry, timing, RefreshMode::PerBank)
        }
        (DramStandard::Ddr5Stacked, _) => {
            // DDR5 sub-channel geometry; the 3DS stack adds four logical
            // ranks behind the channel (baked topology), a longer refresh
            // (all dies refresh through one interface) and a slower
            // rank-to-rank bus turnaround through the TSV mux.
            let geometry = DeviceGeometry {
                bank_groups: 8,
                banks_per_group: 4,
                rows: 1 << 16,
                columns_per_row: 64,
                burst_length: 16,
                bus_width_bits: 32,
            };
            let cl = c(16.0).max(22);
            let timing = TimingParams {
                cl,
                cwl: cl.saturating_sub(2).max(20),
                t_rcd: c(16.0).max(22),
                t_rp: c(16.0).max(22),
                t_ras: c(32.0),
                t_rc: c(32.0) + c(16.0).max(22),
                t_rrd_s: 8,
                t_rrd_l: c(5.0).max(8),
                t_faw: c(13.333).max(32),
                t_ccd_s: 8,
                t_ccd_l: c(5.0).max(8),
                t_wr: c(30.0),
                t_wtr_s: c(2.5).max(4),
                t_wtr_l: c(10.0).max(16),
                t_rtp: c(7.5).max(12),
                t_rfc_ab: c(410.0),
                t_rfc_pb: c(190.0),
                t_refi: c(3900.0),
                t_bus_turn: 2,
                t_rank_to_rank: 4,
            };
            (geometry, timing, RefreshMode::PerBank)
        }
    };

    let topology = match standard {
        DramStandard::Hbm2 => ChannelTopology::new(8, 1),
        DramStandard::Gddr6 => ChannelTopology::new(2, 1),
        DramStandard::Ddr5Stacked => ChannelTopology::new(1, 4),
        _ => ChannelTopology::default(),
    };

    DramConfig {
        standard,
        data_rate_mtps: rate,
        geometry,
        timing,
        default_refresh: refresh,
        decode_scheme: DecodeScheme::RowColumnBankBankGroup,
        topology,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_presets_build_and_validate() {
        for (standard, rate) in ALL_CONFIGS {
            let cfg = DramConfig::preset(*standard, *rate).expect("preset must exist");
            assert_eq!(cfg.standard, *standard);
            assert_eq!(cfg.data_rate_mtps, *rate);
            assert!(cfg.validate().is_ok(), "{}", cfg.label());
            // All configurations use 64-byte bursts so that the interleaver's
            // burst-level index space is comparable across standards.
            assert_eq!(cfg.geometry.burst_bytes(), 64, "{}", cfg.label());
        }
    }

    #[test]
    fn all_six_modern_presets_build_and_validate() {
        for (standard, rate) in MODERN_CONFIGS {
            let cfg = DramConfig::preset(*standard, *rate).expect("preset must exist");
            assert_eq!(cfg.standard, *standard);
            assert_eq!(cfg.data_rate_mtps, *rate);
            assert!(cfg.validate().is_ok(), "{}", cfg.label());
            // The modern presets keep the 64-byte burst so the interleaver's
            // burst-level index space stays comparable with Table I.
            assert_eq!(cfg.geometry.burst_bytes(), 64, "{}", cfg.label());
            // Each modern preset bakes a non-trivial scale-out topology.
            assert!(!cfg.topology.is_single(), "{}", cfg.label());
        }
    }

    #[test]
    fn modern_presets_bake_their_native_topology() {
        let hbm = DramConfig::preset(DramStandard::Hbm2, 2400).unwrap();
        assert_eq!((hbm.topology.channels, hbm.topology.ranks), (8, 1));
        let gddr = DramConfig::preset(DramStandard::Gddr6, 16000).unwrap();
        assert_eq!((gddr.topology.channels, gddr.topology.ranks), (2, 1));
        let tds = DramConfig::preset(DramStandard::Ddr5Stacked, 6400).unwrap();
        assert_eq!((tds.topology.channels, tds.topology.ranks), (1, 4));
    }

    #[test]
    fn modern_labels_and_capacity() {
        let tds = DramConfig::preset(DramStandard::Ddr5Stacked, 6400).unwrap();
        // The 3DS label cannot collide with the plain DDR5 presets.
        assert_eq!(tds.label(), "DDR5-3DS-6400");
        for (standard, rate) in MODERN_CONFIGS {
            let cfg = DramConfig::preset(*standard, *rate).unwrap();
            // Even a single channel of each modern preset holds the paper's
            // full-size 12.5-million-burst interleaver *under the optimized
            // mapping's padded square footprint* (~25.4 M bursts at
            // n = 5000): the channel stripe router interleaves accesses, not
            // capacity, so every channel addresses the whole padded frame.
            assert!(
                cfg.geometry.total_bursts() >= 25_400_000,
                "{} too small: {} bursts",
                cfg.label(),
                cfg.geometry.total_bursts()
            );
        }
    }

    #[test]
    fn linear_decoder_spans_the_ranks_and_rejects_hand_built_invalid_configs() {
        let config = DramConfig::preset(DramStandard::Ddr5Stacked, 4800).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let capacity = config.geometry.total_bursts() * u64::from(config.topology.ranks);
        let (channel, last) = decoder.decode(capacity - 1);
        assert_eq!(channel, 0);
        assert_eq!(last.rank, config.topology.ranks - 1);
        let ddr4 = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let mut invalid = Vec::new();
        for (rows, ranks) in [(1000, 1), (0, 1), (1 << 15, 3), (1 << 15, 0), (1 << 15, 16)] {
            let mut config = ddr4.clone();
            config.geometry.rows = rows;
            config.topology.ranks = ranks;
            invalid.push(config);
        }
        for config in invalid {
            assert!(config.linear_decoder().is_err(), "{:?}", config.topology);
        }
    }

    #[test]
    fn scaling_core_timings_keeps_nanosecond_values() {
        let base = DramConfig::preset(DramStandard::Ddr4, 1600).unwrap();
        let scaled = base.clone().scaled_to(3200);
        scaled.validate().unwrap();
        assert_eq!(scaled.data_rate_mtps, 3200);
        // Doubling the clock roughly doubles the cycle counts of
        // nanosecond-constant parameters.
        assert!(scaled.timing.t_rcd >= base.timing.t_rcd * 2 - 1);
        assert!(scaled.timing.t_rcd <= base.timing.t_rcd * 2 + 1);
        assert!(scaled.timing.t_rfc_ab >= base.timing.t_rfc_ab * 2 - 2);
    }

    #[test]
    fn unknown_preset_is_rejected() {
        let err = DramConfig::preset(DramStandard::Ddr4, 2400).unwrap_err();
        assert!(matches!(err, ConfigError::UnknownPreset { .. }));
    }

    #[test]
    fn bank_group_standards_have_ccd_penalty_at_top_speed() {
        for standard in [DramStandard::Ddr4, DramStandard::Ddr5, DramStandard::Lpddr5] {
            let fast = standard.paper_speed_grades()[1];
            let cfg = DramConfig::preset(standard, fast).unwrap();
            assert!(
                cfg.timing.t_ccd_l > cfg.timing.t_ccd_s,
                "{} should have a bank-group penalty at {fast}",
                standard
            );
        }
    }

    #[test]
    fn non_bank_group_standards_have_single_ccd() {
        for standard in [DramStandard::Ddr3, DramStandard::Lpddr4] {
            for rate in standard.paper_speed_grades() {
                let cfg = DramConfig::preset(standard, rate).unwrap();
                assert_eq!(cfg.geometry.bank_groups, 1);
                assert_eq!(cfg.timing.t_ccd_l, cfg.timing.t_ccd_s);
            }
        }
    }

    #[test]
    fn faster_grade_has_higher_peak_bandwidth() {
        for standard in DramStandard::ALL {
            let [slow, fast] = standard.paper_speed_grades();
            let s = DramConfig::preset(standard, slow).unwrap();
            let f = DramConfig::preset(standard, fast).unwrap();
            assert!(f.peak_bandwidth_gbps() > s.peak_bandwidth_gbps());
        }
    }

    #[test]
    fn capacity_fits_a_12_5_million_burst_interleaver() {
        for (standard, rate) in ALL_CONFIGS {
            let cfg = DramConfig::preset(*standard, *rate).unwrap();
            assert!(
                cfg.geometry.total_bursts() >= 12_500_000,
                "{} too small: {} bursts",
                cfg.label(),
                cfg.geometry.total_bursts()
            );
        }
    }

    #[test]
    fn labels_match_paper_format() {
        let cfg = DramConfig::preset(DramStandard::Lpddr5, 8533).unwrap();
        assert_eq!(cfg.label(), "LPDDR5-8533");
    }

    #[test]
    fn ddr3_ddr4_use_all_bank_refresh_lp_and_ddr5_per_bank() {
        assert_eq!(
            DramConfig::preset(DramStandard::Ddr3, 800)
                .unwrap()
                .default_refresh,
            RefreshMode::AllBank
        );
        assert_eq!(
            DramConfig::preset(DramStandard::Ddr4, 3200)
                .unwrap()
                .default_refresh,
            RefreshMode::AllBank
        );
        for standard in [
            DramStandard::Ddr5,
            DramStandard::Lpddr4,
            DramStandard::Lpddr5,
        ] {
            let rate = standard.paper_speed_grades()[0];
            assert_eq!(
                DramConfig::preset(standard, rate).unwrap().default_refresh,
                RefreshMode::PerBank
            );
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(DramStandard::Lpddr4.to_string(), "LPDDR4");
        assert_eq!(DramStandard::Ddr5.to_string(), "DDR5");
    }
}
