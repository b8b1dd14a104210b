//! End-to-end downlink campaigns: interleaver depth × code rate ×
//! mapping × device preset under a time-varying optical channel.
//!
//! A [`Campaign`] is the experiment layer's answer to "which memory system
//! and which FEC configuration should fly": it sweeps the full cross
//! product of DRAM presets, mapping schemes, interleaver depths and
//! Reed–Solomon code rates through the deterministic [`Experiment`] worker
//! pool, attaches the same time-varying [`LinkProfile`] pass to every cell,
//! and reduces the records to one post-FEC BER vs sustained aggregate
//! bandwidth **frontier** per preset.
//!
//! Two design choices make the frontier comparable and reproducible:
//!
//! * The link-stage RNG seed is derived from the campaign seed and the
//!   *(depth, code-rate)* cell only — never from the preset or mapping — so
//!   every preset/mapping sees bit-identical channel noise for the same FEC
//!   configuration and BER differences are attributable to the FEC axes
//!   alone.
//! * The link simulation is independent of the DRAM burst count, so a
//!   scaled-down run (the CI smoke that `perf_gate` compares with the
//!   committed artifact) reproduces the committed error rates exactly; only
//!   the bandwidth side rescales.
//!
//! ## Quick start
//!
//! ```
//! use tbi_dram::DramStandard;
//! use tbi_exp::CampaignConfig;
//! use tbi_satcom::{LinkProfile, Weather};
//!
//! # fn main() -> Result<(), tbi_exp::ExpError> {
//! let report = CampaignConfig::new(LinkProfile::leo_pass(25.0, Weather::Rain))
//!     .preset(DramStandard::Ddr4, 3200)?
//!     .depths([4, 16])
//!     .code_rates([(223, 255)])
//!     .size(2_000)
//!     .build()
//!     .run()?;
//! assert_eq!(report.records.len(), 2 * 2);
//! assert!(!report.frontiers[0].points.is_empty());
//! # Ok(())
//! # }
//! ```

use tbi_dram::{DramConfig, DramStandard};
use tbi_interleaver::{InterleaverSpec, MappingKind};
use tbi_satcom::link::{InterleaverChoice, LinkConfig};
use tbi_satcom::LinkProfile;

use crate::record::Record;
use crate::runner::Experiment;
use crate::scenario::{LinkStage, Scenario};
use crate::ExpError;

/// Default interleaver-depth axis (code words per interleaver block).
pub const DEFAULT_DEPTHS: [usize; 3] = [8, 32, 128];

/// Default Reed–Solomon `(k, n)` code-rate axis, from light to heavy
/// protection (8, 12 and 16 correctable symbols per code word).
pub const DEFAULT_CODE_RATES: [(usize, usize); 3] = [(239, 255), (231, 255), (223, 255)];

/// Default campaign seed (the link stages derive their per-cell seeds from
/// it, see [`CampaignConfig::seed`]).  Kept below 2^53 so the value written
/// into JSON artifacts survives the double-precision number round-trip that
/// JSON consumers (including the regression gate) are entitled to assume.
pub const DEFAULT_CAMPAIGN_SEED: u64 = 0x000C_A3BA_157B_1D5E;

/// Declarative description of a campaign: the axes of the cross product,
/// the shared pass profile, and the runner knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    presets: Vec<DramConfig>,
    mappings: Vec<MappingKind>,
    depths: Vec<usize>,
    code_rates: Vec<(usize, usize)>,
    profile: LinkProfile,
    bursts: u64,
    seed: u64,
    trials: u32,
    workers: usize,
}

impl CampaignConfig {
    /// Creates a campaign over the given pass profile with the default
    /// axes: the Table I mapping pair, depths [`DEFAULT_DEPTHS`] and code
    /// rates [`DEFAULT_CODE_RATES`].  Presets start empty — add at least
    /// one before [`CampaignConfig::build`].
    #[must_use]
    pub fn new(profile: LinkProfile) -> Self {
        Self {
            presets: Vec::new(),
            mappings: MappingKind::TABLE1.to_vec(),
            depths: DEFAULT_DEPTHS.to_vec(),
            code_rates: DEFAULT_CODE_RATES.to_vec(),
            profile,
            bursts: 20_000,
            seed: DEFAULT_CAMPAIGN_SEED,
            trials: 4,
            workers: 1,
        }
    }

    /// Adds one of the paper's (or the modern) DRAM presets to the device
    /// axis.  Modern presets keep their baked native topology (HBM2
    /// pseudo-channels, GDDR6 dual channel, DDR5-3DS ranks).
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Dram`] if the (standard, data rate) pair is not
    /// a known preset.
    pub fn preset(mut self, standard: DramStandard, data_rate_mtps: u32) -> Result<Self, ExpError> {
        self.presets
            .push(DramConfig::preset(standard, data_rate_mtps)?);
        Ok(self)
    }

    /// Adds an arbitrary (e.g. hand-edited and validated) DRAM configuration
    /// to the device axis.
    #[must_use]
    pub fn config(mut self, dram: DramConfig) -> Self {
        self.presets.push(dram);
        self
    }

    /// Replaces the mapping axis.
    #[must_use]
    pub fn mappings(mut self, mappings: impl IntoIterator<Item = MappingKind>) -> Self {
        self.mappings = mappings.into_iter().collect();
        self
    }

    /// Replaces the interleaver-depth axis (code words per block).
    #[must_use]
    pub fn depths(mut self, depths: impl IntoIterator<Item = usize>) -> Self {
        self.depths = depths.into_iter().collect();
        self
    }

    /// Replaces the `(k, n)` code-rate axis.
    #[must_use]
    pub fn code_rates(mut self, rates: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.code_rates = rates.into_iter().collect();
        self
    }

    /// Sets the interleaver size (bursts) of the DRAM side of every cell.
    #[must_use]
    pub fn size(mut self, bursts: u64) -> Self {
        self.bursts = bursts;
        self
    }

    /// Sets the campaign seed.  Per-cell link seeds are mixed from this and
    /// the cell's `(depth, k, n)` coordinates only, so the channel noise is
    /// shared across presets and mappings.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of independent link trials at the *deepest* depth
    /// (clamped to at least 1).  Shallower cells run proportionally more
    /// blocks — `trials × max_depth / depth` — so every cell observes the
    /// same number of code words and the per-depth BER estimates carry
    /// comparable statistical weight.
    #[must_use]
    pub fn trials(mut self, trials: u32) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Sets the experiment worker count (0 = auto).  The records are
    /// bit-identical for any value.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Finalizes the configuration into a runnable [`Campaign`].
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty, a depth is zero, or a code-rate pair is
    /// not a valid Reed–Solomon configuration (`0 < k < n <= 255`) —
    /// campaign axes are programmer input, not measurement data.
    #[must_use]
    pub fn build(self) -> Campaign {
        assert!(
            !self.presets.is_empty(),
            "a campaign needs at least one preset"
        );
        assert!(
            !self.mappings.is_empty(),
            "a campaign needs at least one mapping"
        );
        assert!(
            !self.depths.is_empty(),
            "a campaign needs at least one depth"
        );
        assert!(
            !self.code_rates.is_empty(),
            "a campaign needs at least one code rate"
        );
        for &depth in &self.depths {
            assert!(depth > 0, "interleaver depth must be at least 1 code word");
        }
        for &(k, n) in &self.code_rates {
            assert!(
                k > 0 && k < n && n <= 255,
                "invalid RS code rate ({k}, {n}): need 0 < k < n <= 255"
            );
        }
        Campaign { config: self }
    }
}

/// SplitMix64 finalizer: decorrelates the per-cell link seeds derived from
/// the campaign seed.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A runnable campaign (see [`CampaignConfig`]).
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// The link-stage seed of the `(depth, k, n)` cell: a pure function of
    /// the campaign seed and the FEC coordinates, shared across presets and
    /// mappings.
    #[must_use]
    pub fn link_seed(&self, depth: usize, k: usize, n: usize) -> u64 {
        mix(self
            .config
            .seed
            .wrapping_add(mix((depth as u64) << 32 ^ (k as u64) << 16 ^ n as u64)))
    }

    /// Expands the cross product into scenarios with stable campaign IDs
    /// (`campaign/<label>/<mapping>/d<depth>/k<k>n<n>/b<bursts>`), in
    /// deterministic axis order: presets, then mappings, then depths, then
    /// code rates.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let spec = InterleaverSpec::from_burst_count(self.config.bursts);
        let max_depth = *self
            .config
            .depths
            .iter()
            .max()
            .expect("build() requires at least one depth");
        let mut scenarios = Vec::new();
        for dram in &self.config.presets {
            for &mapping in &self.config.mappings {
                for &depth in &self.config.depths {
                    // Equal code-word budget per cell: shallower blocks run
                    // proportionally more trials.
                    let trials = self
                        .config
                        .trials
                        .saturating_mul(u32::try_from(max_depth / depth).unwrap_or(u32::MAX))
                        .max(1);
                    for &(k, n) in &self.config.code_rates {
                        let link = LinkStage::new(0.0)
                            .with_config(LinkConfig {
                                rs_code_len: n,
                                rs_data_len: k,
                                codewords: depth,
                                interleaver: InterleaverChoice::Triangular,
                            })
                            .with_profile(self.config.profile.clone())
                            .with_seed(self.link_seed(depth, k, n))
                            .with_trials(trials);
                        let id = format!(
                            "campaign/{}/{}/d{depth}/k{k}n{n}/b{}",
                            dram.label(),
                            mapping.label(),
                            self.config.bursts
                        );
                        scenarios.push(
                            Scenario::custom(dram.clone(), mapping, spec)
                                .with_link(link)
                                .with_id(id),
                        );
                    }
                }
            }
        }
        scenarios
    }

    /// Runs every cell through the deterministic experiment worker pool and
    /// reduces the records to per-preset frontiers.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] if any cell fails (the error names the cell).
    pub fn run(&self) -> Result<CampaignReport, ExpError> {
        let experiment = Experiment::new(self.scenarios()).with_workers(self.config.workers);
        let records = experiment.run()?;
        let frontiers = self
            .config
            .presets
            .iter()
            .map(|dram| extract_frontier(&dram.label(), &records))
            .collect();
        Ok(CampaignReport { records, frontiers })
    }
}

/// One point of a preset's BER/bandwidth frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Mapping label of the dominant cell.
    pub mapping: String,
    /// Interleaver depth (code words per block).
    pub interleaver_depth: u64,
    /// Reed–Solomon code rate `k / n`.
    pub code_rate: f64,
    /// Post-FEC bit error rate of the cell.
    pub post_fec_ber: f64,
    /// Frame (code-word) error rate of the cell.
    pub frame_error_rate: f64,
    /// Sustained aggregate DRAM bandwidth of the cell.
    pub aggregate_gbps: f64,
    /// Payload goodput: aggregate bandwidth × code rate.
    pub goodput_gbps: f64,
}

/// The non-dominated BER/goodput points of one preset, highest goodput
/// first.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetFrontier {
    /// DRAM preset label (e.g. `HBM2-2400`).
    pub dram_label: String,
    /// Frontier points: goodput strictly decreasing, post-FEC BER strictly
    /// decreasing.
    pub points: Vec<FrontierPoint>,
}

/// Pareto reduction of one preset's cells: maximize payload goodput,
/// minimize post-FEC BER.
fn extract_frontier(dram_label: &str, records: &[Record]) -> PresetFrontier {
    let mut candidates: Vec<FrontierPoint> = records
        .iter()
        .filter(|r| r.dram_label == dram_label)
        .filter_map(|r| {
            let link = r.link.as_ref()?;
            Some(FrontierPoint {
                mapping: r.mapping.clone(),
                interleaver_depth: link.interleaver_depth,
                code_rate: link.code_rate,
                post_fec_ber: link.post_fec_ber,
                frame_error_rate: link.frame_error_rate,
                aggregate_gbps: r.aggregate_gbps,
                goodput_gbps: r.aggregate_gbps * link.code_rate,
            })
        })
        .collect();
    // Highest goodput first; ties resolved toward lower BER, then deeper
    // interleaving (more burst protection at equal measured rates).
    candidates.sort_by(|a, b| {
        b.goodput_gbps
            .total_cmp(&a.goodput_gbps)
            .then(a.post_fec_ber.total_cmp(&b.post_fec_ber))
            .then(b.interleaver_depth.cmp(&a.interleaver_depth))
    });
    let mut points: Vec<FrontierPoint> = Vec::new();
    for candidate in candidates {
        let dominated = points
            .last()
            .is_some_and(|kept| kept.post_fec_ber <= candidate.post_fec_ber);
        if !dominated {
            points.push(candidate);
        }
    }
    PresetFrontier {
        dram_label: dram_label.to_string(),
        points,
    }
}

/// The result of a campaign run: every cell record plus the per-preset
/// frontiers.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One record per cell, in deterministic axis order.
    pub records: Vec<Record>,
    /// One frontier per preset, in preset order.
    pub frontiers: Vec<PresetFrontier>,
}

impl CampaignReport {
    /// The per-depth post-FEC BER curve at one code rate, depths ascending.
    ///
    /// The link seeds are shared across presets and mappings, so the curve
    /// is taken from the first cell of each `(depth, rate)` pair; every
    /// other cell of the pair carries bit-identical link numbers.
    #[must_use]
    pub fn ber_by_depth(&self, k: usize, n: usize) -> Vec<(u64, f64)> {
        #[allow(clippy::cast_precision_loss)]
        let rate = k as f64 / n as f64;
        let mut curve: Vec<(u64, f64)> = Vec::new();
        for record in &self.records {
            let Some(link) = &record.link else { continue };
            if (link.code_rate - rate).abs() > 1e-12 {
                continue;
            }
            if !curve.iter().any(|&(d, _)| d == link.interleaver_depth) {
                curve.push((link.interleaver_depth, link.post_fec_ber));
            }
        }
        curve.sort_by_key(|&(depth, _)| depth);
        curve
    }

    /// Whether, at every code rate on the axis, increasing the interleaver
    /// depth strictly reduces the post-FEC BER until it reaches the zero
    /// floor (the campaign's headline waterfall claim).  Each curve must
    /// start with residual errors — a rate whose shallowest depth already
    /// decodes cleanly pins nothing — and every deepening step must either
    /// strictly lower the BER or stay on an exact-zero plateau.
    #[must_use]
    pub fn ber_strictly_decreases_with_depth(&self, code_rates: &[(usize, usize)]) -> bool {
        code_rates.iter().all(|&(k, n)| {
            let curve = self.ber_by_depth(k, n);
            curve.len() > 1
                && curve[0].1 > 0.0
                && curve
                    .windows(2)
                    .all(|pair| pair[1].1 < pair[0].1 || (pair[0].1 == 0.0 && pair[1].1 == 0.0))
        })
    }

    /// The relative aggregate-bandwidth spread across mappings of one
    /// preset: `(max − min) / min` (0.0 if the preset has fewer than two
    /// mapping cells).
    #[must_use]
    pub fn mapping_bandwidth_shift(&self, dram_label: &str) -> f64 {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for record in self.records.iter().filter(|r| r.dram_label == dram_label) {
            min = min.min(record.aggregate_gbps);
            max = max.max(record.aggregate_gbps);
        }
        if min.is_finite() && min > 0.0 && max > min {
            (max - min) / min
        } else {
            0.0
        }
    }

    /// The mapping label achieving the highest aggregate bandwidth on one
    /// preset (`None` if the preset has no cells).
    #[must_use]
    pub fn dominant_mapping(&self, dram_label: &str) -> Option<String> {
        self.records
            .iter()
            .filter(|r| r.dram_label == dram_label)
            .max_by(|a, b| a.aggregate_gbps.total_cmp(&b.aggregate_gbps))
            .map(|r| r.mapping.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_satcom::Weather;

    fn small_campaign() -> Campaign {
        CampaignConfig::new(LinkProfile::leo_pass(25.0, Weather::Rain))
            .preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .preset(DramStandard::Hbm2, 2400)
            .unwrap()
            .depths([4, 16])
            .code_rates([(223, 255)])
            .size(2_000)
            .trials(2)
            .build()
    }

    #[test]
    fn cross_product_expands_in_axis_order() {
        let campaign = small_campaign();
        let scenarios = campaign.scenarios();
        // 2 presets x 2 mappings x 2 depths x 1 code rate.
        assert_eq!(scenarios.len(), 8);
        assert_eq!(
            scenarios[0].id(),
            "campaign/DDR4-3200/row-major/d4/k223n255/b2000"
        );
        let ids: std::collections::BTreeSet<String> = scenarios.iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), scenarios.len(), "campaign IDs must be unique");
    }

    #[test]
    fn link_seed_ignores_preset_and_mapping_but_not_the_cell() {
        let campaign = small_campaign();
        assert_eq!(
            campaign.link_seed(4, 223, 255),
            campaign.link_seed(4, 223, 255)
        );
        assert_ne!(
            campaign.link_seed(4, 223, 255),
            campaign.link_seed(16, 223, 255)
        );
        assert_ne!(
            campaign.link_seed(4, 223, 255),
            campaign.link_seed(4, 191, 255)
        );
    }

    #[test]
    fn report_carries_frontiers_and_shared_link_cells() {
        let report = small_campaign().run().unwrap();
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.frontiers.len(), 2);
        for frontier in &report.frontiers {
            assert!(!frontier.points.is_empty());
            for pair in frontier.points.windows(2) {
                assert!(pair[1].goodput_gbps < pair[0].goodput_gbps);
                assert!(pair[1].post_fec_ber < pair[0].post_fec_ber);
            }
        }
        // Same (depth, rate) cell ⇒ bit-identical link numbers everywhere.
        let links: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.link.as_ref().unwrap().interleaver_depth == 4)
            .map(|r| r.link.unwrap())
            .collect();
        assert!(links.windows(2).all(|pair| pair[0] == pair[1]));
    }

    #[test]
    fn frontier_points_come_from_existing_cells() {
        let report = small_campaign().run().unwrap();
        for frontier in &report.frontiers {
            for point in &frontier.points {
                assert!(report.records.iter().any(|r| {
                    r.dram_label == frontier.dram_label
                        && r.mapping == point.mapping
                        && r.link.as_ref().is_some_and(|l| {
                            l.interleaver_depth == point.interleaver_depth
                                && l.post_fec_ber == point.post_fec_ber
                        })
                }));
            }
        }
    }

    #[test]
    fn ber_curve_is_indexed_by_depth() {
        let report = small_campaign().run().unwrap();
        let curve = report.ber_by_depth(223, 255);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].0, 4);
        assert_eq!(curve[1].0, 16);
        assert!(report.ber_by_depth(191, 255).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one preset")]
    fn empty_preset_axis_is_rejected() {
        let _ = CampaignConfig::new(LinkProfile::leo_pass(45.0, Weather::Clear)).build();
    }

    #[test]
    #[should_panic(expected = "invalid RS code rate")]
    fn invalid_code_rate_is_rejected() {
        let _ = CampaignConfig::new(LinkProfile::leo_pass(45.0, Weather::Clear))
            .config(DramConfig::preset(DramStandard::Ddr4, 3200).unwrap())
            .code_rates([(255, 255)])
            .build();
    }
}
