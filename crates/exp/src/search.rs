//! Design-space exploration over bit-permutation address mappings.
//!
//! The paper hand-picks one optimized mapping; this module treats the
//! mapping as a **searchable space** instead, in the spirit of the
//! interleaver-DSE literature (Chavet et al.; SAGE): a [`MappingSearch`]
//! explores the design space for one DRAM configuration with a portfolio
//! search over **hybrid candidates** `(BitPermutation, XorFold)`, reaching
//! the XOR/ADD-folded diagonal forms pure permutations cannot express (the
//! paper's `bank = (tile_i + tile_j) mod banks` term):
//!
//! 1. a deterministic **free-shape tile sweep** first evaluates the best
//!    `tile_h × tile_w ≤ page` [`MappingKind::GeneralTiled`] layouts (edges
//!    need not be powers of two — the family beyond every bit-sliced
//!    layout, and the only one that strictly beats the paper's optimized
//!    scheme on odd-`log₂(page)` devices such as DDR3); the best tiling
//!    competes with the hybrid winner for the reported record;
//! 2. every restart then climbs from a deterministic start — a balanced
//!    tiling heuristic and its mirror, the controller's default decode
//!    chain, two *diagonal-fold* starts (the balanced tiling with a
//!    `bank ^= row` / `bank += row` step), three optimized-mimic tilings
//!    and any [transfer seeds](MappingSearch::with_transfer_seeds) carried
//!    over from sibling presets — after which evolutionary restarts
//!    (mutated elite members) alternate with seeded random shuffles;
//! 3. each step proposes a batch of neighbours that mixes bit swaps (two
//!    linear-address bits exchange their fields) with fold mutations
//!    (append, drop, or replace one [`FoldStep`]), evaluates them in
//!    parallel through the existing [`Experiment`] worker pool and moves to
//!    the best strictly-improving one;
//! 4. a non-improving batch winner can still be **accepted** with
//!    simulated-annealing probability `exp(Δ/T)` (temperature
//!    [`sa_temp_micro`](SearchSettings::sa_temp_micro) × 10⁻⁶, cooled
//!    geometrically), so climbs tunnel through boundary-loss plateaus;
//! 5. with a [`surrogate_divisor`](SearchSettings::surrogate_divisor),
//!    every batch — the tile shortlist included — is pre-screened at
//!    `bursts / divisor` and only the top
//!    [`promote`](SearchSettings::promote) candidates graduate to a
//!    full-size evaluation; surrogate runs are reported separately and do
//!    not consume the evaluation [`budget`](SearchSettings::budget).
//!
//! Candidates are scored by **round-trip row-hit rate** (mean of the write-
//! and read-phase hit rates) with the throughput-limiting minimum
//! utilization as tie-breaker — the two quantities the paper's Table I
//! optimizes by hand.  All decisions depend only on deterministic
//! [`Record`]s and a [`StdRng`] derived from the seed, so a search is
//! **bit-reproducible for a fixed seed at any worker count**.  The
//! evaluation cache is keyed on the **full scenario fingerprint**
//! (standard, topology, engine, refresh, burst count, …), not the candidate
//! alone, so surrogate- and full-size evaluations of the same candidate
//! never alias.
//!
//! ```
//! use tbi_dram::{DramConfig, DramStandard};
//! use tbi_exp::search::{MappingSearch, SearchSettings};
//! use tbi_interleaver::{InterleaverSpec, MappingKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dram = DramConfig::preset(DramStandard::Ddr4, 3200)?;
//! let settings = SearchSettings { budget: 12, restarts: 2, ..SearchSettings::default() };
//! let search = MappingSearch::new(dram, InterleaverSpec::from_burst_count(4_000), settings);
//! let outcome = search.run()?;
//! // The climb can only improve on its deterministic starting points, and
//! // the balanced-tiling start already splits page misses between phases.
//! assert!(outcome.discovered_row_hit_rate() > 0.5);
//! // The winner's label replays as an ordinary mapping, whichever family won.
//! let replayed = MappingKind::parse_label(&outcome.best.mapping)?;
//! assert_eq!(replayed.label(), outcome.best.mapping);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tbi_dram::{
    AddressField, BitPermutation, ChannelTopology, ControllerConfig, DecodeScheme, DramConfig,
    FoldOp, FoldStep, XorFold,
};
use tbi_interleaver::mapping::GeneralTiledMapping;
use tbi_interleaver::{InterleaverSpec, MappingKind};

use crate::record::Record;
use crate::runner::Experiment;
use crate::scenario::Scenario;
use crate::ExpError;

/// Tuning knobs of a [`MappingSearch`].
///
/// The defaults are the settings the committed `BENCH_dse.json` ran with
/// (besides the no-refresh controller and the 12.5 M-burst size, which
/// belong to the scenario, not the search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchSettings {
    /// RNG seed; identical seeds reproduce identical searches bit-for-bit,
    /// regardless of the worker count.
    pub seed: u64,
    /// Number of climb starting points (clamped to ≥ 1).  Starts 0–7 are
    /// deterministic (balanced tilings, the decode chain, diagonal folds,
    /// optimized mimics); later starts take transfer seeds, then mutated
    /// elite members and seeded random shuffles — see the [module
    /// documentation](self).
    pub restarts: u32,
    /// Maximum number of full-size candidate evaluations across the tile
    /// sweep and all restarts (clamped to ≥ 1).  The row-major/optimized
    /// reference evaluations and surrogate pre-screens are not counted
    /// against the budget.
    pub budget: u32,
    /// Neighbours proposed per climb step (clamped to ≥ 1).
    pub neighbors: u32,
    /// Worker threads for candidate batches (0 = all cores).  Does not
    /// affect results, only wall-clock time.
    pub workers: usize,
    /// When ≥ 2, candidates are pre-screened at `bursts / surrogate_divisor`
    /// bursts and only the best [`promote`](Self::promote) graduate to full
    /// evaluation.  0 or 1 disables the surrogate.
    pub surrogate_divisor: u32,
    /// Candidates promoted from each surrogate batch to full-size
    /// evaluation (clamped to ≥ 1).
    pub promote: u32,
    /// Initial simulated-annealing temperature in **millionths** of
    /// round-trip row-hit rate (an integer so the settings stay
    /// `Copy + Eq`).  0 rejects every non-improving move.
    pub sa_temp_micro: u32,
}

impl Default for SearchSettings {
    fn default() -> Self {
        Self {
            seed: 0,
            restarts: 8,
            budget: 80,
            neighbors: 8,
            workers: 0,
            surrogate_divisor: 0,
            promote: 2,
            sa_temp_micro: 150,
        }
    }
}

/// The typed result of one [`MappingSearch::run`]: the best discovered
/// permutation with its full [`Record`], next to the row-major baseline and
/// the paper's optimized reference evaluated under identical conditions.
///
/// Serializable through [`crate::serialize::search_records_to_json`] and
/// [`crate::serialize::search_records_to_csv`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRecord {
    /// DRAM configuration label, e.g. `DDR4-3200`.
    pub dram_label: String,
    /// Seed the search ran with.
    pub seed: u64,
    /// Restart count the search ran with.
    pub restarts: u32,
    /// Evaluation budget the search ran with.
    pub budget: u32,
    /// Candidate evaluations actually spent (≤ budget; cache hits are free).
    pub evaluations: u32,
    /// Accepted hill-climb moves across all restarts.
    pub accepted_moves: u32,
    /// Interleaver size (bursts) the candidates were evaluated at.
    pub bursts: u64,
    /// Surrogate (short-burst) evaluations spent pre-screening candidates;
    /// 0 for a disabled surrogate.
    pub surrogate_evaluations: u32,
    /// MSB-first bit codes of the best discovered permutation (parseable by
    /// [`BitPermutation`]'s `FromStr`).  Empty when the winner has no
    /// bit-sliced form (a `tiled:HxW` layout from the free-shape tile
    /// sweep); `best.mapping` is then the authoritative label.
    pub permutation: String,
    /// Fold steps of the best discovered mapping (parseable by
    /// [`XorFold`]'s `FromStr`); empty for a pure permutation or a tiled
    /// winner.
    pub fold: String,
    /// Record of the best discovered mapping.
    pub best: Record,
    /// Record of the row-major baseline under identical conditions.
    pub row_major: Record,
    /// Record of the paper's optimized mapping under identical conditions.
    pub optimized: Record,
}

/// Round-trip row-hit rate of a record: the mean of the write- and
/// read-phase row-buffer hit rates (both phases move every burst once, so
/// the mean weights them equally).
#[must_use]
pub fn round_trip_row_hit_rate(record: &Record) -> f64 {
    (record.write_row_hit_rate + record.read_row_hit_rate) / 2.0
}

/// Relative tolerance inside which two round-trip row-hit rates count as a
/// **match** (see [`SearchRecord::matches_or_beats_optimized`]).
///
/// One part in 10⁴ is the boundary-alignment noise floor of a full-size
/// run: it corresponds to ~1 000 of 25 000 000 row decisions, below the
/// shift the *same* mapping sees between two speed grades of the same
/// standard under refresh (e.g. the optimized scheme's round-trip hit rate
/// moves by ~8 × 10⁻⁴ between LPDDR4-2133 and LPDDR4-4266).  Exact gains
/// are always reported next to the flag ([`SearchRecord::row_hit_gain`]),
/// so nothing hides behind the tolerance.
pub const MATCH_TOLERANCE: f64 = 1e-4;

impl SearchRecord {
    /// Round-trip row-hit rate of the discovered mapping.
    #[must_use]
    pub fn discovered_row_hit_rate(&self) -> f64 {
        round_trip_row_hit_rate(&self.best)
    }

    /// Round-trip row-hit rate of the paper's optimized mapping.
    #[must_use]
    pub fn optimized_row_hit_rate(&self) -> f64 {
        round_trip_row_hit_rate(&self.optimized)
    }

    /// Whether the discovered mapping's round-trip row-hit rate matches
    /// (within the relative [`MATCH_TOLERANCE`]) or beats the paper's
    /// optimized scheme — the headline DSE claim.  Use
    /// [`SearchRecord::row_hit_gain`] for the exact ratio.
    #[must_use]
    pub fn matches_or_beats_optimized(&self) -> bool {
        self.row_hit_gain() >= 1.0 - MATCH_TOLERANCE
    }

    /// Whether the discovered mapping **strictly beats** the paper's
    /// optimized scheme on round-trip row-hit rate — no tolerance, no
    /// ties.  The headline claim of the hybrid (folded) mapping family.
    #[must_use]
    pub fn beats_optimized(&self) -> bool {
        self.discovered_row_hit_rate() > self.optimized_row_hit_rate()
    }

    /// Ratio of discovered to optimized round-trip row-hit rate.
    #[must_use]
    pub fn row_hit_gain(&self) -> f64 {
        self.discovered_row_hit_rate() / self.optimized_row_hit_rate().max(1e-9)
    }

    /// Ratio of discovered to optimized minimum utilization.
    #[must_use]
    pub fn utilization_gain(&self) -> f64 {
        self.best.min_utilization / self.optimized.min_utilization.max(1e-9)
    }
}

/// Seeded portfolio search over the address-mapping design space of one
/// DRAM configuration.
///
/// See the [module documentation](self) for the algorithm and the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct MappingSearch {
    dram: DramConfig,
    spec: InterleaverSpec,
    controller: ControllerConfig,
    settings: SearchSettings,
    transfer: Vec<(BitPermutation, XorFold)>,
}

/// One point of the hybrid design space: a bit permutation plus a
/// (possibly identity) fold applied after decode.
type Candidate = (BitPermutation, XorFold);

/// The [`MappingKind`] a candidate evaluates as: plain `Permutation` when
/// the fold is identity, `XorFolded` otherwise.
fn candidate_kind(candidate: &Candidate) -> MappingKind {
    let (permutation, fold) = *candidate;
    if fold.is_identity() {
        MappingKind::Permutation(permutation)
    } else {
        MappingKind::XorFolded(permutation, fold)
    }
}

/// Lexicographic candidate score: round-trip row-hit rate first, minimum
/// utilization as tie-breaker.
fn score(record: &Record) -> (f64, f64) {
    (round_trip_row_hit_rate(record), record.min_utilization)
}

fn better(candidate: &Record, incumbent: &Record) -> bool {
    score(candidate) > score(incumbent)
}

impl MappingSearch {
    /// Creates a search on `dram` for an interleaver of `spec` bursts.
    #[must_use]
    pub fn new(dram: DramConfig, spec: InterleaverSpec, settings: SearchSettings) -> Self {
        Self {
            dram,
            spec,
            controller: ControllerConfig::default(),
            settings,
            transfer: Vec::new(),
        }
    }

    /// Replaces the controller configuration applied to every evaluation.
    #[must_use]
    pub fn with_controller(mut self, controller: ControllerConfig) -> Self {
        self.controller = controller;
        self
    }

    /// Seeds the start list with candidates won on *other* presets
    /// (cross-preset transfer).  Seeds that do not validate for this
    /// configuration's geometry/topology are skipped at start time, so
    /// callers can pass one winner list to every preset.
    #[must_use]
    pub fn with_transfer_seeds(mut self, seeds: &[(BitPermutation, XorFold)]) -> Self {
        self.transfer = seeds.to_vec();
        self
    }

    /// The settings the search runs with.
    #[must_use]
    pub fn settings(&self) -> &SearchSettings {
        &self.settings
    }

    /// Scores one explicit candidate under this search's scenario,
    /// returning `(candidate, row_major, optimized)` records — the
    /// search's own evaluation path exposed for probing tools.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] when the candidate does not validate for the
    /// configuration or a simulation fails.
    pub fn score_candidate(
        &self,
        permutation: BitPermutation,
        fold: XorFold,
    ) -> Result<(Record, Record, Record), ExpError> {
        self.score_kind(candidate_kind(&(permutation, fold)))
    }

    /// Scores one explicit [`MappingKind`] design point (any family,
    /// including the free-shape `tiled:<h>x<w>` layouts) under this
    /// search's scenario — see [`MappingSearch::score_candidate`].
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] when the mapping does not build for the
    /// configuration or a simulation fails.
    pub fn score_kind(&self, kind: MappingKind) -> Result<(Record, Record, Record), ExpError> {
        let mut cache = HashMap::new();
        let mut evaluations = 0;
        let record = self
            .evaluate(&[kind], self.spec, &mut cache, &mut evaluations)?
            .pop()
            .expect("one kind in, one record out");
        let (row_major, optimized) = self.reference_records()?;
        Ok((record, row_major, optimized))
    }

    fn scenario_at(&self, kind: MappingKind, spec: InterleaverSpec) -> Scenario {
        Scenario::custom(self.dram.clone(), kind, spec).with_controller(self.controller)
    }

    /// Evaluates a batch of design points at `spec` bursts through the
    /// shared [`Experiment`] worker pool, consulting and filling `cache`
    /// (hybrid candidates map through [`candidate_kind`]).
    ///
    /// The cache is keyed on the full scenario fingerprint (its `Display`
    /// string: standard, topology, mapping, burst count, refresh,
    /// scheduling, engine, …), **not** the candidate alone — the same
    /// candidate evaluated under a surrogate spec and at full size are
    /// different measurements and must never alias (the pre-fix cache
    /// keyed on the permutation and silently returned whichever landed
    /// first).
    fn evaluate(
        &self,
        kinds: &[MappingKind],
        spec: InterleaverSpec,
        cache: &mut HashMap<String, Record>,
        evaluations: &mut u32,
    ) -> Result<Vec<Record>, ExpError> {
        let keyed: Vec<(String, Scenario)> = kinds
            .iter()
            .map(|kind| {
                let scenario = self.scenario_at(*kind, spec);
                (scenario.to_string(), scenario)
            })
            .collect();
        let fresh: Vec<(String, Scenario)> = {
            let mut unique: Vec<(String, Scenario)> = Vec::new();
            for (key, scenario) in &keyed {
                if !cache.contains_key(key) && !unique.iter().any(|(seen, _)| seen == key) {
                    unique.push((key.clone(), scenario.clone()));
                }
            }
            unique
        };
        if !fresh.is_empty() {
            let scenarios: Vec<Scenario> = fresh.iter().map(|(_, s)| s.clone()).collect();
            let experiment = Experiment::new(scenarios);
            let experiment = if self.settings.workers == 0 {
                experiment.with_auto_workers()
            } else {
                experiment.with_workers(self.settings.workers)
            };
            let records = experiment.run()?;
            *evaluations += fresh.len() as u32;
            for ((key, _), record) in fresh.into_iter().zip(records) {
                cache.insert(key, record);
            }
        }
        Ok(keyed.iter().map(|(key, _)| cache[key].clone()).collect())
    }

    /// Evaluates the row-major and optimized references (not counted
    /// against the candidate budget).
    fn reference_records(&self) -> Result<(Record, Record), ExpError> {
        let kinds = [MappingKind::RowMajor, MappingKind::Optimized];
        let mut records = self.evaluate(&kinds, self.spec, &mut HashMap::new(), &mut 0)?;
        let optimized = records.pop().expect("two references");
        let row_major = records.pop().expect("two references");
        Ok((row_major, optimized))
    }

    /// The reduced-size spec used for surrogate pre-screens, or `None`
    /// when the surrogate is disabled or would not actually be smaller.
    fn surrogate_spec(&self) -> Option<InterleaverSpec> {
        let divisor = self.settings.surrogate_divisor;
        if divisor < 2 {
            return None;
        }
        let bursts = (self.spec.burst_count() / u64::from(divisor)).max(1_000);
        if bursts >= self.spec.burst_count() {
            return None;
        }
        Some(InterleaverSpec::from_burst_count(bursts))
    }

    /// The surrogate pre-screen of one candidate batch: ranks `kinds` at the
    /// reduced [surrogate size](Self::surrogate_spec) and returns the
    /// indices of the best [`promote`](SearchSettings::promote), best first
    /// (ties break on batch order, which is itself deterministic).  Without
    /// a surrogate, or when the batch is no larger than `promote`, every
    /// index passes in batch order.
    fn prescreen(
        &self,
        kinds: &[MappingKind],
        cache: &mut HashMap<String, Record>,
        surrogate_evaluations: &mut u32,
    ) -> Result<Vec<usize>, ExpError> {
        let promote = self.settings.promote.max(1) as usize;
        let mut order: Vec<usize> = (0..kinds.len()).collect();
        if let Some(spec) = self.surrogate_spec().filter(|_| kinds.len() > promote) {
            let screened = self.evaluate(kinds, spec, cache, surrogate_evaluations)?;
            order.sort_by(|&a, &b| {
                score(&screened[b])
                    .partial_cmp(&score(&screened[a]))
                    .expect("scores are finite")
                    .then(a.cmp(&b))
            });
            order.truncate(promote);
        }
        Ok(order)
    }

    /// The deterministic free-shape tile shortlist of the portfolio: the
    /// maximal `tile_h × tile_w ≤ page` shapes with the highest interior
    /// round-trip hit rate `1 − (1/tile_w + 1/tile_h)/2`, best first.
    /// Shapes that do not fit the device at this index-space dimension are
    /// dropped.  Depends only on the geometry, so the sweep is
    /// bit-reproducible at any worker count.
    fn tiled_kinds(&self) -> Vec<MappingKind> {
        const SHORTLIST: usize = 6;
        let geometry = self.dram.geometry;
        let page = geometry.columns_per_row;
        let dimension = self.spec.dimension();
        let mut shapes: Vec<(u32, u32)> = (2..=page / 2)
            .filter_map(|tile_h| {
                let tile_w = page / tile_h;
                (tile_w >= 2).then_some((tile_h, tile_w))
            })
            .collect();
        shapes.dedup();
        // Interior miss rate (1/w + 1/h)/2, ascending; ties break on the
        // shape itself so the order is fully deterministic.
        shapes.sort_by(|&(ah, aw), &(bh, bw)| {
            let miss = |h: u32, w: u32| 1.0 / f64::from(w) + 1.0 / f64::from(h);
            miss(ah, aw)
                .partial_cmp(&miss(bh, bw))
                .expect("tile miss rates are finite")
                .then((ah, aw).cmp(&(bh, bw)))
        });
        shapes
            .into_iter()
            .filter(|&(tile_h, tile_w)| {
                GeneralTiledMapping::new(geometry, dimension, tile_h, tile_w).is_ok()
            })
            .take(SHORTLIST)
            .map(|(tile_h, tile_w)| MappingKind::GeneralTiled { tile_h, tile_w })
            .collect()
    }

    /// Runs the search and returns the [`SearchRecord`] of the best
    /// discovered mapping.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError`] if the interleaver does not fit the padded
    /// permutation space of the device, or any evaluation fails.
    pub fn run(&self) -> Result<SearchRecord, ExpError> {
        let restarts = self.settings.restarts.max(1);
        let budget = self.settings.budget.max(1);
        let neighbors = self.settings.neighbors.max(1);
        let temperature0 = f64::from(self.settings.sa_temp_micro) * 1e-6;
        let (row_major, optimized) = self.reference_records()?;

        let mut cache: HashMap<String, Record> = HashMap::new();
        let mut evaluations = 0u32;
        let mut surrogate_evaluations = 0u32;
        let mut accepted_moves = 0u32;
        let mut best: Option<(Candidate, Record)> = None;
        // Top fully-evaluated candidates, feeding evolutionary restarts.
        let mut elite: Vec<(Candidate, Record)> = Vec::new();

        // Deterministic free-shape tile sweep before the annealed climbs.
        // Capped one evaluation below the budget so the hybrid family is
        // always evaluated at least once (the restart loop below needs it).
        let mut best_tiled: Option<(MappingKind, Record)> = None;
        let shortlist = self.tiled_kinds();
        let tiled: Vec<MappingKind> = self
            .prescreen(&shortlist, &mut cache, &mut surrogate_evaluations)?
            .into_iter()
            .map(|index| shortlist[index])
            .take(budget.saturating_sub(1) as usize)
            .collect();
        if !tiled.is_empty() {
            let records = self.evaluate(&tiled, self.spec, &mut cache, &mut evaluations)?;
            for (kind, record) in tiled.into_iter().zip(records) {
                let improves = match &best_tiled {
                    None => true,
                    Some((_, incumbent)) => better(&record, incumbent),
                };
                if improves {
                    best_tiled = Some((kind, record));
                }
            }
        }

        'restarts: for restart in 0..restarts {
            if evaluations >= budget {
                break;
            }
            // Budget slicing: restart `r` may climb until the run has spent
            // `ceil(budget * (r + 1) / restarts)` full evaluations, so an
            // early climb that anneals for a long time cannot starve the
            // later deterministic starts (mimic tilings, transfer seeds);
            // unspent slices roll forward.
            let ceiling = (u64::from(budget) * u64::from(restart + 1)).div_ceil(restarts.into());
            let ceiling = u32::try_from(ceiling).unwrap_or(budget).min(budget);
            let mut rng = StdRng::seed_from_u64(
                self.settings.seed ^ u64::from(restart).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut current = self.portfolio_start(restart, &elite, &mut rng)?;
            let mut current_record = self
                .evaluate(
                    &[candidate_kind(&current)],
                    self.spec,
                    &mut cache,
                    &mut evaluations,
                )?
                .pop()
                .expect("one candidate in, one record out");
            update_elite(&mut elite, current, &current_record);
            let improves_best = match &best {
                None => true,
                Some((_, record)) => better(&current_record, record),
            };
            if improves_best {
                best = Some((current, current_record.clone()));
            }
            let mut temperature = temperature0;
            let mut rejections = 0u32;
            // Each step spends ≥ 1 fresh full evaluation in the common
            // case; the step cap bounds pathological all-cache-hit climbs.
            let mut steps = 0u32;
            while evaluations < ceiling && steps < budget {
                steps += 1;
                let batch = self.propose_moves(current, neighbors as usize, &mut rng);
                if batch.is_empty() {
                    continue 'restarts;
                }
                let kinds: Vec<MappingKind> = batch.iter().map(candidate_kind).collect();
                let finalists: Vec<Candidate> = self
                    .prescreen(&kinds, &mut cache, &mut surrogate_evaluations)?
                    .into_iter()
                    .map(|index| batch[index])
                    .take((budget - evaluations) as usize)
                    .collect();
                if finalists.is_empty() {
                    break 'restarts;
                }
                let kinds: Vec<MappingKind> = finalists.iter().map(candidate_kind).collect();
                let records = self.evaluate(&kinds, self.spec, &mut cache, &mut evaluations)?;
                let (winner, winner_record) = finalists
                    .iter()
                    .zip(&records)
                    .max_by(|(_, x), (_, y)| {
                        score(x).partial_cmp(&score(y)).expect("scores are finite")
                    })
                    .expect("non-empty batch");
                for (candidate, record) in finalists.iter().zip(&records) {
                    update_elite(&mut elite, *candidate, record);
                }
                if better(winner_record, &current_record) {
                    current = *winner;
                    current_record = winner_record.clone();
                    accepted_moves += 1;
                    rejections = 0;
                    if better(&current_record, &best.as_ref().expect("seeded above").1) {
                        best = Some((current, current_record.clone()));
                    }
                } else {
                    // Simulated annealing: walk downhill with probability
                    // exp(Δ/T) to tunnel through boundary-loss plateaus.
                    let delta = round_trip_row_hit_rate(winner_record)
                        - round_trip_row_hit_rate(&current_record);
                    let accept =
                        temperature > 0.0 && rng.gen::<f64>() < (delta / temperature).exp();
                    if accept {
                        current = *winner;
                        current_record = winner_record.clone();
                        accepted_moves += 1;
                        rejections = 0;
                    } else {
                        rejections += 1;
                        if rejections >= 3 {
                            // Frozen: spend the rest of the budget elsewhere.
                            continue 'restarts;
                        }
                    }
                }
                temperature *= 0.85;
            }
        }

        let (candidate, best_record) = best.expect("at least one restart evaluated");
        // The best free-shape tiling competes with the hybrid winner for
        // the reported record.  A tiled winner has no bit-sliced form, so
        // `permutation`/`fold` stay empty and `best.mapping` (the
        // `tiled:HxW` label) is the authoritative description.
        let (permutation, fold, best_record) = match best_tiled {
            Some((_, tiled_record)) if better(&tiled_record, &best_record) => {
                (String::new(), String::new(), tiled_record)
            }
            _ => (
                candidate.0.to_string(),
                candidate.1.to_string(),
                best_record,
            ),
        };
        Ok(SearchRecord {
            dram_label: self.dram.label(),
            seed: self.settings.seed,
            restarts,
            budget,
            evaluations,
            accepted_moves,
            bursts: self.spec.burst_count(),
            surrogate_evaluations,
            permutation,
            fold,
            best: best_record,
            row_major,
            optimized,
        })
    }

    /// The deterministic starting candidate of `restart`:
    /// balanced/mirrored/scheme starts, the two diagonal-fold starts, the
    /// three [optimized-mimic](Self::optimized_mimic_start) tilings,
    /// transfer seeds valid for this geometry, then alternating
    /// elite-mutation and random-shuffle starts.
    fn portfolio_start(
        &self,
        restart: u32,
        elite: &[(Candidate, Record)],
        rng: &mut StdRng,
    ) -> Result<Candidate, ExpError> {
        let topology = self.dram.topology;
        let identity = XorFold::identity();
        match restart {
            0 => Ok((
                balanced_start(&self.dram, topology, self.spec.dimension(), false)?,
                identity,
            )),
            1 => Ok((
                balanced_start(&self.dram, topology, self.spec.dimension(), true)?,
                identity,
            )),
            2 => Ok((
                BitPermutation::for_scheme(self.dram.decode_scheme, &self.dram.geometry, topology)?,
                identity,
            )),
            3 | 4 => {
                // The diagonal-fold starts: express the optimized scheme's
                // `bank = (tile_i + tile_j) mod banks` term directly — the
                // form closing the DDR3/LPDDR4 (no-bank-group) gap.
                let permutation =
                    balanced_start(&self.dram, topology, self.spec.dimension(), false)?;
                let step = FoldStep {
                    target: AddressField::Bank,
                    source: AddressField::Row,
                    shift: 0,
                    op: if restart == 3 {
                        FoldOp::Xor
                    } else {
                        FoldOp::Add
                    },
                };
                let fold = XorFold::new(&[step]).expect("one in-range step");
                if fold.validate_for(&permutation).is_ok() {
                    Ok((permutation, fold))
                } else {
                    Ok((permutation, identity))
                }
            }
            5..=7 => {
                // Optimized-mimic starts: the paper's tiling reconstructed
                // inside the `(permutation, fold)` family at the exact tile
                // aspect and one step wider/taller.  SA then climbs from a
                // tie with the paper's scheme instead of hunting for it.
                let widen = [0i32, 1, -1][(restart - 5) as usize];
                if let Some(candidate) = self.optimized_mimic_start(widen) {
                    return Ok(candidate);
                }
                self.exploration_start(restart, elite, rng)
            }
            _ => self.exploration_start(restart, elite, rng),
        }
    }

    /// Late-restart starts: transfer seeds by slot, then alternating
    /// elite-mutation and seeded random-shuffle starts.
    fn exploration_start(
        &self,
        restart: u32,
        elite: &[(Candidate, Record)],
        rng: &mut StdRng,
    ) -> Result<Candidate, ExpError> {
        let topology = self.dram.topology;
        let identity = XorFold::identity();
        let slot = restart.saturating_sub(8) as usize;
        let transfer: Vec<Candidate> = self
            .transfer
            .iter()
            .copied()
            .filter(|(permutation, fold)| {
                permutation
                    .validate_for(&self.dram.geometry, topology)
                    .is_ok()
                    && fold.validate_for(permutation).is_ok()
            })
            .collect();
        if slot < transfer.len() {
            return Ok(transfer[slot]);
        }
        if restart % 2 == 1 && !elite.is_empty() {
            // Evolutionary restart: perturb an elite member.
            let (mut candidate, _) = elite[rng.gen_range(0..elite.len())];
            for _ in 0..2 {
                if let Some(moved) = self.random_move(candidate, rng) {
                    candidate = moved;
                }
            }
            return Ok(candidate);
        }
        // Seeded random shuffle, occasionally with a random fold bolted on
        // for extra start diversity.
        let mut permutation =
            BitPermutation::for_scheme(self.dram.decode_scheme, &self.dram.geometry, topology)?;
        let bits = permutation.total_bits() as usize;
        for a in (1..bits).rev() {
            let b = rng.gen_range(0..a + 1);
            if a != b {
                permutation = permutation.with_swap(a, b);
            }
        }
        let fold = if rng.gen_range(0..2) == 0 {
            self.mutate_fold((permutation, identity), rng)
                .map_or(identity, |(_, fold)| fold)
        } else {
            identity
        };
        Ok((permutation, fold))
    }

    /// Reconstructs the paper's optimized tiling **inside the hybrid
    /// family**: tiles of `tile_h x tile_w = groups x page` positions with
    /// the bank chosen along the tile diagonal — as a bit assignment
    /// (`column <- [oj | oi]`, `bank <- tj`, `bank_group <- j`) plus Add
    /// folds for the diagonal terms `bank += tile_i` and `group += i`.
    ///
    /// For the no-bank-group standards (DDR3, LPDDR4) the paper's stagger
    /// is a no-op and the reconstruction's page partition is **exactly**
    /// the optimized mapping's, so this start ties the paper's scheme and
    /// every accepted SA move from it is a strict improvement.  `widen`
    /// shifts one tile-aspect bit between width and height for boundary
    /// trade-off variants.  Returns `None` when the index space or
    /// geometry cannot host the layout (the caller falls back to
    /// exploration starts).
    fn optimized_mimic_start(&self, widen: i32) -> Option<Candidate> {
        let scheme = BitPermutation::for_scheme(
            self.dram.decode_scheme,
            &self.dram.geometry,
            self.dram.topology,
        )
        .ok()?;
        let total = scheme.total_bits() as usize;
        let jbits =
            tbi_interleaver::mapping::PermutedMapping::index_bits(self.spec.dimension()) as usize;
        let group_bits = scheme.width_of(AddressField::BankGroup) as usize;
        let bank_bits = scheme.width_of(AddressField::Bank) as usize;
        let page_bits = scheme.width_of(AddressField::Column) as usize;
        // The paper's tile split: tile_w * tile_h = groups * page, as square
        // as possible, the odd factor on the height, never narrower than the
        // bank-group rotation.
        let area = group_bits + page_bits;
        let mut tile_w = area / 2;
        if tile_w < group_bits {
            tile_w = group_bits;
        }
        let tile_w = usize::try_from(i64::try_from(tile_w).ok()? + i64::from(widen)).ok()?;
        if tile_w < group_bits || tile_w > area {
            return None;
        }
        let tile_h = area - tile_w;
        // Fit: the j side holds [group | oj | bank(tj)], the i side holds
        // [oi | row(ti)]; both diagonals must leave their fold source bits
        // inside addressable rows.
        let side_i = total.checked_sub(jbits)?;
        if tile_w + bank_bits > jbits || tile_h + bank_bits > side_i || jbits > total {
            return None;
        }
        let mut fields = vec![AddressField::Row; total];
        let mut pos = 0;
        for _ in 0..group_bits {
            fields[pos] = AddressField::BankGroup;
            pos += 1;
        }
        for _ in 0..(tile_w - group_bits) {
            fields[pos] = AddressField::Column;
            pos += 1;
        }
        for _ in 0..bank_bits {
            fields[pos] = AddressField::Bank;
            pos += 1;
        }
        // Row bits between here and the i side carry tile_j's high bits;
        // the diagonal fold below shifts past them to reach tile_i.
        let tj_high = jbits - pos;
        pos = jbits;
        for _ in 0..tile_h {
            fields[pos] = AddressField::Column;
            pos += 1;
        }
        // Channel and rank rotate the topmost linear bits (whole-device
        // halves — outside the tiling, as in the paper's single-device
        // Table I runs).
        let mut top = total;
        for field in [AddressField::Channel, AddressField::Rank] {
            for _ in 0..scheme.width_of(field) {
                top = top.checked_sub(1)?;
                if top < pos + bank_bits {
                    // Would clobber the i-side columns or the tile_i row
                    // bits the bank diagonal folds in.
                    return None;
                }
                fields[top] = field;
            }
        }
        let permutation = BitPermutation::new(&fields).ok()?;
        let mut fold = XorFold::identity();
        if bank_bits > 0 {
            fold = fold
                .with_step(FoldStep {
                    target: AddressField::Bank,
                    source: AddressField::Row,
                    shift: u8::try_from(tj_high).ok()?,
                    op: FoldOp::Add,
                })
                .ok()?;
        }
        if group_bits > 0 && tile_w > group_bits {
            fold = fold
                .with_step(FoldStep {
                    target: AddressField::BankGroup,
                    source: AddressField::Column,
                    shift: u8::try_from(tile_w - group_bits).ok()?,
                    op: FoldOp::Add,
                })
                .ok()?;
        }
        fold.validate_for(&permutation).ok()?;
        Some((permutation, fold))
    }

    /// Proposes up to `count` distinct neighbourhood moves of `current`,
    /// mixing bit swaps (3 in 5) with fold mutations (2 in 5).
    fn propose_moves(&self, current: Candidate, count: usize, rng: &mut StdRng) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::with_capacity(count);
        let mut guard = 0;
        while out.len() < count && guard < 64 * count {
            guard += 1;
            let Some(candidate) = self.random_move(current, rng) else {
                continue;
            };
            if candidate != current && !out.contains(&candidate) {
                out.push(candidate);
            }
        }
        out
    }

    /// One random neighbourhood move, or `None` when the draw was
    /// degenerate (same-field swap, invalid fold step, …).
    fn random_move(&self, current: Candidate, rng: &mut StdRng) -> Option<Candidate> {
        if rng.gen_range(0..5) < 3 {
            let bits = current.0.total_bits() as usize;
            let a = rng.gen_range(0..bits);
            let b = rng.gen_range(0..bits);
            if current.0.fields()[a] == current.0.fields()[b] {
                return None;
            }
            Some((current.0.with_swap(a, b), current.1))
        } else {
            self.mutate_fold(current, rng)
        }
    }

    /// One fold mutation: drop the last step, or append a random valid
    /// step (replacing the last when the fold is full).
    fn mutate_fold(&self, current: Candidate, rng: &mut StdRng) -> Option<Candidate> {
        let (permutation, fold) = current;
        if rng.gen_range(0..3) == 0 && !fold.is_identity() {
            return Some((permutation, fold.without_last()));
        }
        const FIELDS: [AddressField; 6] = [
            AddressField::Channel,
            AddressField::Rank,
            AddressField::BankGroup,
            AddressField::Bank,
            AddressField::Row,
            AddressField::Column,
        ];
        let target = FIELDS[rng.gen_range(0..FIELDS.len())];
        let source = FIELDS[rng.gen_range(0..FIELDS.len())];
        if target == source {
            return None;
        }
        let source_width = permutation.width_of(source);
        if source_width == 0 || permutation.width_of(target) == 0 {
            return None;
        }
        let shift = rng.gen_range(0..source_width) as u8;
        let step = FoldStep {
            target,
            source,
            shift,
            op: if rng.gen_range(0..2) == 0 {
                FoldOp::Xor
            } else {
                FoldOp::Add
            },
        };
        let next = fold
            .with_step(step)
            .or_else(|_| fold.without_last().with_step(step))
            .ok()?;
        next.validate_for(&permutation).ok()?;
        Some((permutation, next))
    }
}

/// Elite pool size feeding evolutionary restarts.
const ELITE: usize = 4;

/// Inserts `candidate` into the elite pool, keeping the best [`ELITE`]
/// distinct candidates sorted best-first (ties keep the earlier arrival,
/// so the pool is deterministic).
fn update_elite(elite: &mut Vec<(Candidate, Record)>, candidate: Candidate, record: &Record) {
    if elite.iter().any(|(seen, _)| *seen == candidate) {
        return;
    }
    let position = elite
        .iter()
        .position(|(_, incumbent)| better(record, incumbent))
        .unwrap_or(elite.len());
    if position < ELITE {
        elite.insert(position, (candidate, record.clone()));
        elite.truncate(ELITE);
    }
}

/// The balanced-tiling heuristic start: DRAM **column** bits are split
/// between the low `j` (write-direction) and low `i` (read-direction) index
/// bits so that page misses are shared between the phases, bank-group bits
/// sit at the bottom of the `j` side (writes rotate groups every access)
/// and bank bits at the bottom of the `i` side (reads rotate banks) — with
/// the bank bits alternating between the sides when the standard has no
/// bank groups, so *both* phases keep enough bank parallelism to hide
/// activates (slow phases pay extra refresh-induced row closures, which
/// depresses the very hit rate the search optimizes).  Channel/rank bits
/// alternate between the sides and row bits fill the rest — a permutation
/// rendering of the paper's optimizations 1 + 2.
///
/// `mirrored` swaps the two sides (and hands the larger column half to the
/// read direction), giving the search a second deterministic start on the
/// other side of the write/read trade-off.
fn balanced_start(
    dram: &DramConfig,
    topology: ChannelTopology,
    dimension: u32,
    mirrored: bool,
) -> Result<BitPermutation, ExpError> {
    let geometry = dram.geometry;
    let scheme = BitPermutation::for_scheme(DecodeScheme::default(), &geometry, topology)?;
    let total = scheme.total_bits();
    // The `j`/`i` bit boundary of the padded linearization the permutation
    // will decode — shared with the mapping so the two can never disagree.
    let jbits = tbi_interleaver::mapping::PermutedMapping::index_bits(dimension);
    let widths = |field: AddressField| scheme.width_of(field);
    let column = widths(AddressField::Column);
    let column_j = column.div_ceil(2);
    let bank_groups = widths(AddressField::BankGroup);
    let banks = widths(AddressField::Bank);

    let mut j_side: Vec<AddressField> = Vec::new();
    let mut i_side: Vec<AddressField> = Vec::new();
    // Column bits at the very bottom of each side: a phase streams one full
    // page run per bank before switching, so an index-row end leaves at
    // most ONE partial run (bank bits below the columns would interleave
    // the banks and multiply the boundary misses by the rotation width).
    j_side.extend(std::iter::repeat(AddressField::Column).take(column_j as usize));
    i_side.extend(std::iter::repeat(AddressField::Column).take((column - column_j) as usize));
    j_side.extend(std::iter::repeat(AddressField::BankGroup).take(bank_groups as usize));
    if bank_groups == 0 {
        // No bank groups: split the bank bits themselves so both phases
        // rotate banks (write side first — it streams one row at a time and
        // otherwise serializes on a single bank).
        for t in 0..banks {
            if t % 2 == 0 { &mut j_side } else { &mut i_side }.push(AddressField::Bank);
        }
    } else {
        i_side.extend(std::iter::repeat(AddressField::Bank).take(banks as usize));
    }
    for t in 0..widths(AddressField::Channel) {
        if t % 2 == 0 { &mut j_side } else { &mut i_side }.push(AddressField::Channel);
    }
    for t in 0..widths(AddressField::Rank) {
        if t % 2 == 0 { &mut i_side } else { &mut j_side }.push(AddressField::Rank);
    }
    if mirrored {
        std::mem::swap(&mut j_side, &mut i_side);
    }

    // Assemble: j side at the bottom, i side from bit `jbits`, row bits
    // everywhere else.  Should a side outgrow its `jbits` slots (tiny index
    // spaces), the excess spills into the tail, where the bits are unused.
    let mut fields = vec![AddressField::Row; total as usize];
    let mut spill: Vec<AddressField> = Vec::new();
    let jbits = jbits.min(total / 2) as usize;
    for (offset, side) in [(0usize, &j_side), (jbits, &i_side)] {
        for (k, &field) in side.iter().enumerate() {
            if offset + k < offset + jbits && offset + k < total as usize {
                fields[offset + k] = field;
            } else {
                spill.push(field);
            }
        }
    }
    let mut tail = 2 * jbits;
    for field in spill {
        while tail < total as usize && fields[tail] != AddressField::Row {
            tail += 1;
        }
        if tail < total as usize {
            fields[tail] = field;
            tail += 1;
        }
    }
    // Row bits already fill the remaining slots; counts match by
    // construction because every non-row field was placed exactly once.
    Ok(BitPermutation::new(&fields)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_dram::DramStandard;

    fn settings(budget: u32) -> SearchSettings {
        SearchSettings {
            seed: 42,
            restarts: 3,
            budget,
            neighbors: 4,
            workers: 1,
            ..SearchSettings::default()
        }
    }

    fn search(budget: u32) -> MappingSearch {
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        MappingSearch::new(
            dram,
            InterleaverSpec::from_burst_count(3_000),
            settings(budget),
        )
    }

    #[test]
    fn optimized_mimic_start_ties_the_paper_scheme_without_bank_groups() {
        // For the no-bank-group standards the stagger is a no-op, so the
        // mimic's page partition is exactly the optimized mapping's and the
        // round-trip row-hit rates must agree to double precision (the row
        // *numbering* differs; open-row behaviour only sees row equality).
        for (standard, rate) in [(DramStandard::Ddr3, 800), (DramStandard::Lpddr4, 4266)] {
            let dram = DramConfig::preset(standard, rate).unwrap();
            let search = MappingSearch::new(
                dram,
                InterleaverSpec::from_burst_count(200_000),
                settings(4),
            );
            let (permutation, fold) = search
                .optimized_mimic_start(0)
                .expect("mimic start builds for the preset");
            assert!(!fold.is_identity(), "{standard:?}-{rate}: diagonal fold");
            let mut cache = HashMap::new();
            let mut evaluations = 0;
            let mimic = search
                .evaluate(
                    &[candidate_kind(&(permutation, fold))],
                    search.spec,
                    &mut cache,
                    &mut evaluations,
                )
                .unwrap()
                .pop()
                .unwrap();
            let (_, optimized) = search.reference_records().unwrap();
            let mimic_rate = round_trip_row_hit_rate(&mimic);
            let optimized_rate = round_trip_row_hit_rate(&optimized);
            assert!(
                (mimic_rate - optimized_rate).abs() < 1e-12,
                "{standard:?}-{rate}: mimic {mimic_rate} vs optimized {optimized_rate}"
            );
        }
    }

    #[test]
    fn tiled_shortlist_leads_with_the_most_square_tile() {
        // Odd log2(page): the free 11x11 square beats every power-of-two
        // split and must head the shortlist.
        let ddr3 = DramConfig::preset(DramStandard::Ddr3, 800).unwrap();
        let search = MappingSearch::new(
            ddr3,
            InterleaverSpec::from_burst_count(200_000),
            settings(4),
        );
        let kinds = search.tiled_kinds();
        assert_eq!(
            kinds.first(),
            Some(&MappingKind::GeneralTiled {
                tile_h: 11,
                tile_w: 11
            })
        );
        // Even log2(page): the best free tile IS the optimized scheme's
        // 8x8 square.
        let lpddr4 = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
        let search = MappingSearch::new(
            lpddr4,
            InterleaverSpec::from_burst_count(200_000),
            settings(4),
        );
        let kinds = search.tiled_kinds();
        assert_eq!(
            kinds.first(),
            Some(&MappingKind::GeneralTiled {
                tile_h: 8,
                tile_w: 8
            })
        );
    }

    #[test]
    fn portfolio_reports_the_free_tile_win_on_ddr3() {
        // On DDR3-800 the 11x11 tiling strictly beats the paper's optimized
        // mapping; the portfolio's deterministic tile sweep must find it and
        // report it with empty permutation/fold fields.
        let dram = DramConfig::preset(DramStandard::Ddr3, 800).unwrap();
        let record = MappingSearch::new(
            dram,
            InterleaverSpec::from_burst_count(200_000),
            settings(10),
        )
        .run()
        .unwrap();
        assert_eq!(record.best.mapping, "tiled:11x11");
        assert!(record.permutation.is_empty());
        assert!(record.fold.is_empty());
        assert!(record.beats_optimized());
    }

    #[test]
    fn balanced_start_is_valid_for_every_preset_and_topology() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let dram = DramConfig::preset(*standard, *rate).unwrap();
            for topology in [
                ChannelTopology::default(),
                ChannelTopology::new(2, 1),
                ChannelTopology::new(4, 2),
            ] {
                let permutation = balanced_start(&dram, topology, 5000, false).unwrap();
                permutation
                    .validate_for(&dram.geometry, topology)
                    .unwrap_or_else(|e| panic!("{standard:?}-{rate} {topology:?}: {e}"));
            }
        }
    }

    #[test]
    fn balanced_start_splits_columns_between_low_i_and_low_j_bits() {
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let permutation = balanced_start(&dram, ChannelTopology::default(), 1000, false).unwrap();
        let fields = permutation.fields();
        let jbits = 10usize;
        let low_j_columns = fields[..jbits]
            .iter()
            .filter(|&&f| f == AddressField::Column)
            .count();
        let low_i_columns = fields[jbits..2 * jbits]
            .iter()
            .filter(|&&f| f == AddressField::Column)
            .count();
        assert_eq!(low_j_columns, 4);
        assert_eq!(low_i_columns, 3);
        // Columns sit at the very bottom of each side, the rotation bits
        // (bank groups on j, banks on i) directly above them.
        assert_eq!(fields[0], AddressField::Column);
        assert_eq!(fields[4], AddressField::BankGroup);
        assert_eq!(fields[jbits], AddressField::Column);
        assert_eq!(fields[jbits + 3], AddressField::Bank);
    }

    #[test]
    fn search_is_reproducible_across_worker_counts() {
        let sequential = search(10).run().unwrap();
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let parallel = MappingSearch::new(
            dram,
            InterleaverSpec::from_burst_count(3_000),
            SearchSettings {
                workers: 4,
                ..settings(10)
            },
        )
        .run()
        .unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn different_seeds_can_differ_but_stay_deterministic() {
        let a = search(8).run().unwrap();
        let b = search(8).run().unwrap();
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(a.seed, 42);
        assert!(a.evaluations <= a.budget);
    }

    #[test]
    fn discovered_mapping_beats_the_row_major_baseline() {
        let outcome = search(12).run().unwrap();
        assert!(
            outcome.discovered_row_hit_rate() > round_trip_row_hit_rate(&outcome.row_major),
            "balanced start must beat row-major's thrashing read phase"
        );
        assert!(outcome.best.min_utilization > 0.5);
        // The winner's label replays: it parses and labels the record.
        let parsed = MappingKind::parse_label(&outcome.best.mapping).unwrap();
        assert_eq!(outcome.best.mapping, parsed.label());
    }

    #[test]
    fn budget_caps_candidate_evaluations() {
        let outcome = search(5).run().unwrap();
        assert!(outcome.evaluations <= 5, "spent {}", outcome.evaluations);
        assert_eq!(outcome.budget, 5);
    }

    /// Regression test for the cache-aliasing bug: the candidate cache
    /// used to key on the permutation alone, so the *same* candidate
    /// evaluated under two different scenarios (e.g. a short surrogate run
    /// vs the full-size run) silently returned whichever record landed
    /// first.  The key must cover every scenario axis.
    #[test]
    fn cache_keys_on_the_full_scenario_not_the_candidate_alone() {
        let s = search(4);
        let candidate = candidate_kind(&(
            balanced_start(
                &DramConfig::preset(DramStandard::Ddr4, 3200).unwrap(),
                ChannelTopology::default(),
                3_000,
                false,
            )
            .unwrap(),
            XorFold::identity(),
        ));
        let mut cache = HashMap::new();
        let mut evaluations = 0;
        let full = s
            .evaluate(&[candidate], s.spec, &mut cache, &mut evaluations)
            .unwrap();
        let short_spec = InterleaverSpec::from_burst_count(1_000);
        let short = s
            .evaluate(&[candidate], short_spec, &mut cache, &mut evaluations)
            .unwrap();
        assert_eq!(evaluations, 2, "two scenarios, two evaluations");
        assert_eq!(cache.len(), 2, "distinct scenario keys must not alias");
        assert_ne!(
            full[0], short[0],
            "a surrogate record must never masquerade as a full-size one"
        );
        // Re-asking for either scenario is now a pure cache hit.
        s.evaluate(&[candidate], s.spec, &mut cache, &mut evaluations)
            .unwrap();
        assert_eq!(evaluations, 2);
    }

    #[test]
    fn portfolio_search_is_reproducible_and_labels_round_trip() {
        let portfolio = SearchSettings {
            restarts: 6,
            surrogate_divisor: 4,
            promote: 2,
            ..settings(14)
        };
        let dram = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let spec = InterleaverSpec::from_burst_count(3_000);
        let a = MappingSearch::new(dram.clone(), spec, portfolio)
            .run()
            .unwrap();
        let b = MappingSearch::new(
            dram,
            spec,
            SearchSettings {
                workers: 4,
                ..portfolio
            },
        )
        .run()
        .unwrap();
        assert_eq!(a, b, "portfolio must be worker-count independent");
        assert!(a.evaluations <= a.budget);
        assert!(
            a.surrogate_evaluations > 0,
            "divisor 4 on 3 000 bursts must trigger the surrogate"
        );
        // The winner replays through parse_label whichever family won: a
        // tiled winner has no bit-sliced form and empty permutation/fold.
        if a.permutation.is_empty() {
            assert!(a.best.mapping.starts_with("tiled:"), "{}", a.best.mapping);
            assert!(a.fold.is_empty());
        } else {
            let label = if a.fold.is_empty() {
                format!("permutation:{}", a.permutation)
            } else {
                format!("xorfold:{}|{}", a.permutation, a.fold)
            };
            assert_eq!(a.best.mapping, label);
        }
        let parsed = MappingKind::parse_label(&a.best.mapping).unwrap();
        assert_eq!(parsed.label(), a.best.mapping);
        assert!(
            a.discovered_row_hit_rate() > round_trip_row_hit_rate(&a.row_major),
            "the balanced starts already beat row-major's thrashing read phase"
        );
    }

    #[test]
    fn transfer_seeds_skip_mismatched_geometries() {
        // A DDR3 permutation (1 bank-group bit fewer) must not poison a
        // DDR4 portfolio; an in-geometry seed must be usable as a start.
        let ddr3 = DramConfig::preset(DramStandard::Ddr3, 1600).unwrap();
        let ddr4 = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let foreign = balanced_start(&ddr3, ChannelTopology::default(), 3_000, false).unwrap();
        let native = balanced_start(&ddr4, ChannelTopology::default(), 3_000, true).unwrap();
        let seeds = vec![
            (foreign, XorFold::identity()),
            (native, XorFold::identity()),
        ];
        let portfolio = SearchSettings {
            restarts: 6,
            ..settings(8)
        };
        let spec = InterleaverSpec::from_burst_count(3_000);
        let outcome = MappingSearch::new(ddr4, spec, portfolio)
            .with_transfer_seeds(&seeds)
            .run()
            .unwrap();
        // Restart 5 consumes the first *valid* seed (the native one); the
        // foreign seed is filtered out instead of failing the run.
        assert!(outcome.evaluations <= outcome.budget);
    }

    #[test]
    fn gains_are_relative_to_the_optimized_reference() {
        let outcome = search(6).run().unwrap();
        let expected = outcome.discovered_row_hit_rate() / outcome.optimized_row_hit_rate();
        assert!((outcome.row_hit_gain() - expected).abs() < 1e-12);
        assert_eq!(
            outcome.matches_or_beats_optimized(),
            outcome.row_hit_gain() >= 1.0 - MATCH_TOLERANCE
        );
    }
}
