//! Cartesian sweep grids that expand into scenarios.

use std::collections::HashSet;

use tbi_dram::{
    ChannelTopology, ControllerConfig, DramConfig, DramStandard, RefreshMode, TimingEngine,
};
use tbi_interleaver::{InterleaverSpec, MappingKind};

use crate::runner::Experiment;
use crate::scenario::{LinkStage, Scenario};
use crate::ExpError;

/// One value of the refresh axis of a [`SweepGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefreshSetting {
    /// The standard's default refresh mode (all-bank for DDR3/DDR4, per-bank
    /// for DDR5/LPDDR4/LPDDR5).
    #[default]
    Standard,
    /// Refresh disabled (the paper's in-text experiment).
    Disabled,
}

impl RefreshSetting {
    /// The controller refresh-mode override selected by this setting.
    #[must_use]
    pub fn refresh_mode(self) -> Option<RefreshMode> {
        match self {
            RefreshSetting::Standard => None,
            RefreshSetting::Disabled => Some(RefreshMode::Disabled),
        }
    }
}

/// A declarative Cartesian product of evaluation axes.
///
/// The six axes are DRAM configurations, channel counts, rank counts,
/// interleaver sizes (bursts), mapping schemes and refresh settings.
/// [`SweepGrid::scenarios`] expands the product in a fixed nesting order
/// (DRAM → channels → ranks → size → mapping → refresh), so the resulting
/// scenario — and therefore record — order is stable.  Axis values are
/// deduplicated on insertion, which keeps the expansion count equal to the
/// product of the axis lengths and the derived scenario IDs unique.  The
/// channel and rank axes default to `[1]` (the paper's single-channel,
/// single-rank device) when left untouched.
///
/// # Examples
///
/// ```
/// use tbi_dram::DramStandard;
/// use tbi_interleaver::MappingKind;
/// use tbi_exp::SweepGrid;
///
/// # fn main() -> Result<(), tbi_exp::ExpError> {
/// let grid = SweepGrid::new()
///     .preset(DramStandard::Ddr3, 1600)?
///     .sizes([1_000, 4_000])
///     .mappings(MappingKind::TABLE1);
/// assert_eq!(grid.len(), 1 * 2 * 2);
/// let scenarios = grid.scenarios();
/// assert_eq!(scenarios.len(), 4);
/// // DRAM → size → mapping → refresh nesting:
/// assert_eq!(scenarios[0].id(), "DDR3-1600/b1000/row-major/refresh=default");
/// assert_eq!(scenarios[1].id(), "DDR3-1600/b1000/optimized/refresh=default");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    drams: Vec<DramConfig>,
    channels: Vec<u32>,
    ranks: Vec<u32>,
    sizes: Vec<u64>,
    mappings: Vec<MappingKind>,
    refresh: Vec<RefreshSetting>,
    controller: ControllerConfig,
    link: Option<LinkStage>,
    threads: usize,
}

impl SweepGrid {
    /// Creates an empty grid.
    ///
    /// The refresh axis defaults to the standard refresh mode when left
    /// untouched; the other three axes must be populated before the grid
    /// expands to anything.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one of the paper's preset DRAM configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Dram`] if the (standard, data rate) pair is not a
    /// known preset.
    pub fn preset(self, standard: DramStandard, data_rate_mtps: u32) -> Result<Self, ExpError> {
        Ok(self.dram(DramConfig::preset(standard, data_rate_mtps)?))
    }

    /// Adds all ten preset configurations in the paper's Table I order.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Dram`] if a preset fails to build (it cannot: all
    /// presets are validated).
    pub fn all_presets(mut self) -> Result<Self, ExpError> {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            self = self.preset(*standard, *rate)?;
        }
        Ok(self)
    }

    /// Adds an arbitrary DRAM configuration (duplicates are ignored).
    #[must_use]
    pub fn dram(mut self, config: DramConfig) -> Self {
        if !self.drams.contains(&config) {
            self.drams.push(config);
        }
        self
    }

    /// Adds one channel count to the channel axis (duplicates are ignored).
    /// Calling this at least once replaces the implicit default axis of
    /// `[1]`.
    #[must_use]
    pub fn channel_count(mut self, channels: u32) -> Self {
        if !self.channels.contains(&channels) {
            self.channels.push(channels);
        }
        self
    }

    /// Adds several channel counts.
    #[must_use]
    pub fn channels<I: IntoIterator<Item = u32>>(mut self, channels: I) -> Self {
        for c in channels {
            self = self.channel_count(c);
        }
        self
    }

    /// Adds one rank count to the rank axis (duplicates are ignored).
    /// Calling this at least once replaces the implicit default axis of
    /// `[1]`.
    #[must_use]
    pub fn rank_count(mut self, ranks: u32) -> Self {
        if !self.ranks.contains(&ranks) {
            self.ranks.push(ranks);
        }
        self
    }

    /// Adds several rank counts.
    #[must_use]
    pub fn ranks<I: IntoIterator<Item = u32>>(mut self, ranks: I) -> Self {
        for r in ranks {
            self = self.rank_count(r);
        }
        self
    }

    /// Adds one interleaver size in bursts (duplicates are ignored).
    #[must_use]
    pub fn size(mut self, bursts: u64) -> Self {
        if !self.sizes.contains(&bursts) {
            self.sizes.push(bursts);
        }
        self
    }

    /// Adds several interleaver sizes in bursts.
    #[must_use]
    pub fn sizes<I: IntoIterator<Item = u64>>(mut self, bursts: I) -> Self {
        for b in bursts {
            self = self.size(b);
        }
        self
    }

    /// Adds one mapping scheme (duplicates are ignored).
    #[must_use]
    pub fn mapping(mut self, kind: MappingKind) -> Self {
        if !self.mappings.contains(&kind) {
            self.mappings.push(kind);
        }
        self
    }

    /// Adds several mapping schemes.
    #[must_use]
    pub fn mappings<I: IntoIterator<Item = MappingKind>>(mut self, kinds: I) -> Self {
        for k in kinds {
            self = self.mapping(k);
        }
        self
    }

    /// Adds one refresh setting (duplicates are ignored).  Calling this at
    /// least once replaces the implicit default axis of
    /// [`RefreshSetting::Standard`].
    #[must_use]
    pub fn refresh(mut self, setting: RefreshSetting) -> Self {
        if !self.refresh.contains(&setting) {
            self.refresh.push(setting);
        }
        self
    }

    /// Adds both refresh settings, turning refresh into a swept axis.
    #[must_use]
    pub fn refresh_axis(self) -> Self {
        self.refresh(RefreshSetting::Standard)
            .refresh(RefreshSetting::Disabled)
    }

    /// Sets the base controller configuration applied to every scenario
    /// (the refresh axis overrides its refresh mode).
    #[must_use]
    pub fn controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = controller;
        self
    }

    /// Selects the timing engine for every scenario of the grid (the
    /// event-driven engine is the default).
    #[must_use]
    pub fn engine(mut self, engine: TimingEngine) -> Self {
        self.controller.engine = engine;
        self
    }

    /// Attaches a channel/FEC stage to every scenario of the grid.
    #[must_use]
    pub fn link(mut self, link: LinkStage) -> Self {
        self.link = Some(link);
        self
    }

    /// Sets the intra-scenario worker-thread count applied to every
    /// scenario ([`Scenario::with_threads`]; results are bit-identical for
    /// any value).  This is orthogonal to the experiment-level worker pool,
    /// which parallelizes *across* scenarios.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Effective lengths of the six axes in nesting order
    /// (DRAM, channels, ranks, size, mapping, refresh).
    #[must_use]
    pub fn axis_lengths(&self) -> [usize; 6] {
        [
            self.drams.len(),
            self.effective_channels().len(),
            self.effective_ranks().len(),
            self.sizes.len(),
            self.mappings.len(),
            self.effective_refresh().len(),
        ]
    }

    /// Number of scenarios the grid expands to — the product of the axis
    /// lengths.
    #[must_use]
    pub fn len(&self) -> usize {
        self.axis_lengths().iter().product()
    }

    /// Whether the grid expands to no scenarios.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn effective_refresh(&self) -> Vec<RefreshSetting> {
        if self.refresh.is_empty() {
            vec![RefreshSetting::Standard]
        } else {
            self.refresh.clone()
        }
    }

    fn effective_channels(&self) -> Vec<u32> {
        if self.channels.is_empty() {
            vec![1]
        } else {
            self.channels.clone()
        }
    }

    fn effective_ranks(&self) -> Vec<u32> {
        if self.ranks.is_empty() {
            vec![1]
        } else {
            self.ranks.clone()
        }
    }

    /// Expands the Cartesian product into scenarios with stable, unique IDs.
    ///
    /// The nesting order is DRAM (outermost) → channels → ranks → size →
    /// mapping → refresh (innermost).  Should two distinct DRAM
    /// configurations share a label (custom geometries of the same speed
    /// grade), colliding IDs are disambiguated with a `#<k>` suffix —
    /// deterministically, so the IDs remain stable.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        let refresh = self.effective_refresh();
        let channels = self.effective_channels();
        let ranks = self.effective_ranks();
        let mut out = Vec::with_capacity(self.len());
        let mut seen: HashSet<String> = HashSet::with_capacity(self.len());
        for dram in &self.drams {
            for &channel_count in &channels {
                for &rank_count in &ranks {
                    let dram = dram
                        .clone()
                        .with_topology(ChannelTopology::new(channel_count, rank_count));
                    for &bursts in &self.sizes {
                        for &mapping in &self.mappings {
                            for &setting in &refresh {
                                let mut controller = self.controller;
                                controller.refresh_mode = match setting {
                                    RefreshSetting::Standard => self.controller.refresh_mode,
                                    RefreshSetting::Disabled => Some(RefreshMode::Disabled),
                                };
                                let mut scenario = Scenario::custom(
                                    dram.clone(),
                                    mapping,
                                    InterleaverSpec::from_burst_count(bursts),
                                )
                                .with_controller(controller)
                                .with_threads(self.threads.max(1));
                                if let Some(link) = &self.link {
                                    scenario = scenario.with_link(link.clone());
                                }
                                let base = scenario.id();
                                if !seen.insert(base.clone()) {
                                    let mut k = 2;
                                    let unique = loop {
                                        let candidate = format!("{base}#{k}");
                                        if seen.insert(candidate.clone()) {
                                            break candidate;
                                        }
                                        k += 1;
                                    };
                                    scenario = scenario.with_id(unique);
                                }
                                out.push(scenario);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Expands the grid and wraps the scenarios into an [`Experiment`].
    #[must_use]
    pub fn into_experiment(self) -> Experiment {
        Experiment::new(self.scenarios())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_axes_expand_to_nothing() {
        let grid = SweepGrid::new();
        assert_eq!(grid.len(), 0);
        assert!(grid.is_empty());
        assert!(grid.scenarios().is_empty());
    }

    #[test]
    fn expansion_count_is_product_of_axes() {
        let grid = SweepGrid::new()
            .all_presets()
            .unwrap()
            .sizes([1_000, 2_000, 3_000])
            .mappings(MappingKind::TABLE1)
            .refresh_axis();
        assert_eq!(grid.axis_lengths(), [10, 1, 1, 3, 2, 2]);
        assert_eq!(grid.len(), 120);
        assert_eq!(grid.scenarios().len(), 120);
    }

    #[test]
    fn channel_and_rank_axes_multiply_the_expansion() {
        let grid = SweepGrid::new()
            .preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .channels([1, 2, 4])
            .ranks([1, 2])
            .size(1_000)
            .mapping(MappingKind::Optimized);
        assert_eq!(grid.axis_lengths(), [1, 3, 2, 1, 1, 1]);
        assert_eq!(grid.len(), 6);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 6);
        // Nesting: channels outermost of the two, ranks inner.
        assert_eq!(
            scenarios[0].id(),
            "DDR4-3200/b1000/optimized/refresh=default"
        );
        assert_eq!(
            scenarios[1].id(),
            "DDR4-3200/b1000/optimized/refresh=default/c1r2"
        );
        assert_eq!(
            scenarios[2].id(),
            "DDR4-3200/b1000/optimized/refresh=default/c2r1"
        );
        assert_eq!(scenarios[2].dram().topology.channels, 2);
        assert_eq!(
            scenarios[5].dram().topology,
            tbi_dram::ChannelTopology::new(4, 2)
        );
        // IDs stay unique across the topology axis.
        let ids: HashSet<String> = scenarios.iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    fn duplicates_are_ignored_on_every_axis() {
        let grid = SweepGrid::new()
            .preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .sizes([5_000, 5_000])
            .mapping(MappingKind::Optimized)
            .mapping(MappingKind::Optimized)
            .refresh(RefreshSetting::Standard)
            .refresh(RefreshSetting::Standard)
            .channels([2, 2])
            .ranks([2, 2]);
        assert_eq!(grid.axis_lengths(), [1, 1, 1, 1, 1, 1]);
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn ids_are_unique_and_ordered_by_nesting() {
        let grid = SweepGrid::new()
            .preset(DramStandard::Ddr3, 800)
            .unwrap()
            .preset(DramStandard::Ddr3, 1600)
            .unwrap()
            .size(1_000)
            .mappings(MappingKind::TABLE1)
            .refresh_axis();
        let scenarios = grid.scenarios();
        let ids: Vec<String> = scenarios.iter().map(Scenario::id).collect();
        let unique: HashSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        assert_eq!(ids[0], "DDR3-800/b1000/row-major/refresh=default");
        assert_eq!(ids[1], "DDR3-800/b1000/row-major/refresh=off");
        assert_eq!(ids[2], "DDR3-800/b1000/optimized/refresh=default");
        assert!(ids[4].starts_with("DDR3-1600/"));
    }

    #[test]
    fn label_collisions_get_deterministic_suffixes() {
        let base = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let mut variant = base.clone();
        variant.geometry.rows = 1 << 14;
        let grid = SweepGrid::new()
            .dram(base)
            .dram(variant)
            .size(1_000)
            .mapping(MappingKind::Optimized);
        let ids: Vec<String> = grid.scenarios().iter().map(Scenario::id).collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        assert!(ids[1].ends_with("#2"), "got {}", ids[1]);
    }

    #[test]
    fn refresh_setting_maps_to_controller_mode() {
        assert_eq!(RefreshSetting::Standard.refresh_mode(), None);
        assert_eq!(
            RefreshSetting::Disabled.refresh_mode(),
            Some(RefreshMode::Disabled)
        );
        let scenarios = SweepGrid::new()
            .preset(DramStandard::Ddr3, 800)
            .unwrap()
            .size(500)
            .mapping(MappingKind::RowMajor)
            .refresh(RefreshSetting::Disabled)
            .scenarios();
        assert_eq!(
            scenarios[0].controller().refresh_mode,
            Some(RefreshMode::Disabled)
        );
    }

    #[test]
    fn engine_propagates_to_every_scenario() {
        let scenarios = SweepGrid::new()
            .preset(DramStandard::Ddr3, 800)
            .unwrap()
            .size(500)
            .mappings(MappingKind::TABLE1)
            .engine(TimingEngine::Cycle)
            .scenarios();
        assert!(scenarios
            .iter()
            .all(|s| s.controller().engine == TimingEngine::Cycle));
    }

    #[test]
    fn link_stage_propagates_to_every_scenario() {
        let scenarios = SweepGrid::new()
            .preset(DramStandard::Ddr3, 800)
            .unwrap()
            .size(500)
            .mappings(MappingKind::TABLE1)
            .link(LinkStage::new(0.05))
            .scenarios();
        assert!(scenarios.iter().all(|s| s.link().is_some()));
    }
}
