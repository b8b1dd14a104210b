//! Mappings from the interleaver's 2-D index space to DRAM addresses.
//!
//! All mappings operate at burst granularity: position `(i, j)` of the
//! triangular index space (row `i`, column `j`) is one DRAM burst.  A mapping
//! assigns each position a [`PhysicalAddress`] (bank group, bank, row,
//! column).  The scheme determines how friendly the row-wise write phase and
//! the column-wise read phase are to the DRAM timing constraints.
//!
//! | scheme | bank round-robin | page tiling | stagger | figure |
//! |---|---|---|---|---|
//! | [`PermutedMapping::row_major`] | – | – | – | baseline (Table I "Row-Major") |
//! | [`BankRoundRobinMapping`] | ✓ | – | – | Fig. 1a |
//! | [`GeneralTiledMapping::page_square`] | per tile | ✓ | – | Fig. 1b |
//! | [`OptimizedMapping`] (no stagger) | ✓ | ✓ | – | Fig. 1c |
//! | [`OptimizedMapping`] | ✓ | ✓ | ✓ | Fig. 1d (Table I "Optimized") |
//! | [`PermutedMapping::new`] | depends | depends | – | searchable bit-permutation family (`docs/MAPPING.md`) |
//! | [`GeneralTiledMapping`] | ✓ | free-shape | – | searchable `tile_h × tile_w ≤ page` family (`docs/MAPPING.md`) |

mod channel;
mod general_tiled;
mod optimized;
mod permuted;
mod simple;

pub use channel::{ChannelCursor, ChannelMapping, ChannelTrace, ChannelTraceGenerator};
pub use general_tiled::GeneralTiledMapping;
pub use optimized::OptimizedMapping;
pub use permuted::PermutedMapping;
pub use simple::BankRoundRobinMapping;

use tbi_dram::{
    AddressBatch, BitPermutation, ChannelTopology, DeviceGeometry, DramConfig, PhysicalAddress,
    XorFold,
};

use crate::InterleaverError;

/// Chunk size (in positions) of the batched mapping kernels: coordinates are
/// staged through stack arrays of this many elements, so batch mapping
/// allocates nothing beyond the caller's output buffer.
pub(crate) const BATCH_CHUNK: usize = 256;

/// A mapping from interleaver index-space positions to DRAM addresses.
///
/// Implementations must be **injective** over the index space they were
/// constructed for: two distinct positions never share a DRAM address.
pub trait DramMapping: Send + Sync {
    /// The DRAM address storing position `(i, j)`.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if `(i, j)` lies outside the index space
    /// the mapping was constructed for.
    fn map(&self, i: u32, j: u32) -> PhysicalAddress;

    /// Batched counterpart of [`DramMapping::map`]: appends the address of
    /// every position in `coords`, in order, to `out`.
    ///
    /// The appended addresses are bit-identical to calling
    /// [`DramMapping::map`] per element.  The channel lane of the appended
    /// region holds the scheme's routed channel where the mapping has one
    /// (e.g. a [`PermutedMapping`] whose permutation carries channel bits)
    /// and `0` otherwise — the single-channel view of `map`.
    ///
    /// The default implementation maps one element at a time; the schemes
    /// with a linear decode stage ([`PermutedMapping`]) override it with a
    /// slice kernel that amortizes the per-element decode work, and
    /// [`OptimizedMapping`] with a branch-free per-lane kernel.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if any position lies outside the index
    /// space the mapping was constructed for.
    fn map_batch(&self, coords: &[(u32, u32)], out: &mut AddressBatch) {
        out.reserve(coords.len());
        for &(i, j) in coords {
            out.push(0, self.map(i, j));
        }
    }

    /// Short human-readable name of the scheme.
    fn name(&self) -> &'static str;

    /// The device geometry the mapping targets.
    fn geometry(&self) -> &DeviceGeometry;

    /// Dimension `n` of the (square bounding box of the) index space.
    fn dimension(&self) -> u32;
}

/// The mapping schemes available for evaluation, in increasing order of
/// optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MappingKind {
    /// Storage-compact row-major layout decoded by the controller's default
    /// address decoder (the paper's baseline).
    RowMajor,
    /// Bank index advances with every access (optimization 1 only).
    BankRoundRobin,
    /// Index space tiled into pages, one bank per tile (optimization 2 only):
    /// [`GeneralTiledMapping::page_square`].
    Tiled,
    /// Bank round-robin + page tiling, without the bank-dependent stagger
    /// (optimizations 1 + 2, Fig. 1c).
    OptimizedNoStagger,
    /// The full optimized mapping with all three optimizations (Fig. 1d).
    Optimized,
    /// A searchable bit-permutation layout: positions are placed at the
    /// padded linear address `(i << ⌈log2 n⌉) | j` and decoded through the
    /// given [`BitPermutation`] (see [`PermutedMapping`]).  Not part of
    /// [`MappingKind::ALL`] because it is parameterized rather than fixed;
    /// `tbi_exp`'s mapping search generates these.
    Permutation(BitPermutation),
    /// A hybrid permutation+fold layout: decoded like
    /// [`MappingKind::Permutation`], then the field values are rewritten by
    /// the [`XorFold`]'s XOR/ADD steps (e.g. `bank = (bank + row) mod
    /// banks`, the optimized scheme's diagonal term, inexpressible as a pure
    /// bit permutation).  Generated by `tbi_exp`'s portfolio search.
    XorFolded(BitPermutation, XorFold),
    /// A free-shape diagonal tiling: tiles of `tile_h × tile_w ≤ page`
    /// positions, one page prefix per tile, the optimized scheme's diagonal
    /// bank term between tiles (see [`GeneralTiledMapping`]).  Tile edges
    /// need not be powers of two — the family the bit-sliced layouts cannot
    /// reach.  Generated by `tbi_exp`'s portfolio search.
    GeneralTiled {
        /// Tile height in index-space rows.
        tile_h: u32,
        /// Tile width in index-space columns.
        tile_w: u32,
    },
}

impl MappingKind {
    /// All mapping kinds, from baseline to fully optimized.
    pub const ALL: [MappingKind; 5] = [
        MappingKind::RowMajor,
        MappingKind::BankRoundRobin,
        MappingKind::Tiled,
        MappingKind::OptimizedNoStagger,
        MappingKind::Optimized,
    ];

    /// The two schemes compared in the paper's Table I.
    pub const TABLE1: [MappingKind; 2] = [MappingKind::RowMajor, MappingKind::Optimized];

    /// Human-readable scheme name (the same for every permutation; use
    /// [`MappingKind::label`] to distinguish individual permutations).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MappingKind::RowMajor => "row-major",
            MappingKind::BankRoundRobin => "bank-round-robin",
            MappingKind::Tiled => "tiled",
            MappingKind::OptimizedNoStagger => "optimized-no-stagger",
            MappingKind::Optimized => "optimized",
            MappingKind::Permutation(_) => "permutation",
            MappingKind::XorFolded(..) => "xorfold",
            MappingKind::GeneralTiled { .. } => "general-tiled",
        }
    }

    /// Fully qualified label: equal to [`MappingKind::name`] for the named
    /// schemes, `permutation:<MSB-first bit codes>` for permutations,
    /// `xorfold:<codes>|<fold steps>` for hybrid permutation+fold layouts,
    /// and `tiled:<h>x<w>` for free-shape tilings — so scenario IDs and
    /// records distinguish individual design points.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbi_interleaver::MappingKind;
    ///
    /// assert_eq!(MappingKind::Optimized.label(), "optimized");
    /// let permutation = "RRCCBBGG".parse()?;
    /// assert_eq!(
    ///     MappingKind::Permutation(permutation).label(),
    ///     "permutation:RRCCBBGG"
    /// );
    /// let fold = "B^R1".parse()?;
    /// assert_eq!(
    ///     MappingKind::XorFolded(permutation, fold).label(),
    ///     "xorfold:RRCCBBGG|B^R1"
    /// );
    /// assert_eq!(
    ///     MappingKind::GeneralTiled { tile_h: 11, tile_w: 11 }.label(),
    ///     "tiled:11x11"
    /// );
    /// # Ok::<(), tbi_dram::ConfigError>(())
    /// ```
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MappingKind::Permutation(permutation) => format!("permutation:{permutation}"),
            MappingKind::XorFolded(permutation, fold) => {
                format!("xorfold:{permutation}|{fold}")
            }
            MappingKind::GeneralTiled { tile_h, tile_w } => format!("tiled:{tile_h}x{tile_w}"),
            other => other.name().to_string(),
        }
    }

    /// Parses a label produced by [`MappingKind::label`] back into the kind
    /// — so recorded design points (e.g. `BENCH_dse.json` rows) replay.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] when the label names
    /// no known scheme and is not a well-formed `permutation:`/`xorfold:`
    /// form.
    pub fn parse_label(label: &str) -> Result<Self, InterleaverError> {
        for kind in MappingKind::ALL {
            if label == kind.name() {
                return Ok(kind);
            }
        }
        let invalid = |reason: String| InterleaverError::InvalidDimension { reason };
        if let Some(codes) = label.strip_prefix("permutation:") {
            let permutation = codes
                .parse()
                .map_err(|e| invalid(format!("bad permutation label `{label}`: {e}")))?;
            return Ok(MappingKind::Permutation(permutation));
        }
        if let Some(body) = label.strip_prefix("xorfold:") {
            let (codes, fold) = body
                .split_once('|')
                .ok_or_else(|| invalid(format!("xorfold label `{label}` lacks a `|`")))?;
            let permutation = codes
                .parse()
                .map_err(|e| invalid(format!("bad permutation in `{label}`: {e}")))?;
            let fold = fold
                .parse()
                .map_err(|e| invalid(format!("bad fold in `{label}`: {e}")))?;
            return Ok(MappingKind::XorFolded(permutation, fold));
        }
        if let Some(body) = label.strip_prefix("tiled:") {
            let (h, w) = body
                .split_once('x')
                .ok_or_else(|| invalid(format!("tiled label `{label}` lacks an `x`")))?;
            let tile_h = h
                .parse()
                .map_err(|e| invalid(format!("bad tile height in `{label}`: {e}")))?;
            let tile_w = w
                .parse()
                .map_err(|e| invalid(format!("bad tile width in `{label}`: {e}")))?;
            return Ok(MappingKind::GeneralTiled { tile_h, tile_w });
        }
        Err(invalid(format!("unknown mapping label `{label}`")))
    }

    /// Builds the single-channel, single-rank mapping for a DRAM
    /// configuration's geometry and an index space of dimension `n`; the
    /// row-major baseline decodes with the configuration's
    /// [`decode_scheme`](DramConfig::decode_scheme).
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if the index space does not fit into the
    /// device under this scheme.
    pub fn build(
        self,
        config: &DramConfig,
        dimension: u32,
    ) -> Result<Box<dyn DramMapping>, InterleaverError> {
        Ok(
            match self.build_on(config, ChannelTopology::default(), dimension)? {
                BuiltMapping::Linear(mapping) => mapping,
                BuiltMapping::Coordinates(mapping) => mapping,
            },
        )
    }

    /// Builds this kind for `config`'s geometry and dimension `n`: a
    /// linear-decode kind scaled out to `topology`, a coordinate kind on
    /// one channel and rank.
    pub(crate) fn build_on(
        self,
        config: &DramConfig,
        topology: ChannelTopology,
        n: u32,
    ) -> Result<BuiltMapping, InterleaverError> {
        use BuiltMapping::{Coordinates, Linear};
        let geometry = config.geometry;
        let scheme = config.decode_scheme;
        Ok(match self {
            MappingKind::RowMajor => Linear(Box::new(PermutedMapping::row_major(
                geometry, topology, scheme, n,
            )?)),
            MappingKind::Permutation(permutation) => Linear(Box::new(PermutedMapping::new(
                geometry,
                topology,
                permutation,
                n,
            )?)),
            MappingKind::XorFolded(permutation, fold) => Linear(Box::new(
                PermutedMapping::with_fold(geometry, topology, permutation, fold, n)?,
            )),
            MappingKind::BankRoundRobin => {
                Coordinates(Box::new(BankRoundRobinMapping::new(geometry, n)?))
            }
            MappingKind::Tiled => {
                Coordinates(Box::new(GeneralTiledMapping::page_square(geometry, n)?))
            }
            MappingKind::OptimizedNoStagger => {
                Coordinates(Box::new(OptimizedMapping::without_stagger(geometry, n)?))
            }
            MappingKind::Optimized => Coordinates(Box::new(OptimizedMapping::new(geometry, n)?)),
            MappingKind::GeneralTiled { tile_h, tile_w } => Coordinates(Box::new(
                GeneralTiledMapping::new(geometry, n, tile_h, tile_w)?,
            )),
        })
    }
}

/// A [`MappingKind`] built by [`MappingKind::build_on`].
pub(crate) enum BuiltMapping {
    /// A linear decode spanning the requested topology.
    Linear(Box<PermutedMapping>),
    /// A single-channel, single-rank coordinate mapping.
    Coordinates(Box<dyn DramMapping>),
}

impl std::fmt::Display for MappingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingKind::Permutation(_)
            | MappingKind::XorFolded(..)
            | MappingKind::GeneralTiled { .. } => f.write_str(&self.label()),
            other => f.write_str(other.name()),
        }
    }
}

/// Renders a small corner of a mapping as a text grid (used by the `fig1`
/// binary to regenerate the paper's Figure 1 and handy for debugging).
///
/// Each cell shows `B<bank> R<row> C<column>` where `<bank>` is the flat bank
/// index.
#[must_use]
pub fn render_grid(mapping: &dyn DramMapping, rows: u32, cols: u32) -> String {
    let mut out = String::new();
    let geometry = *mapping.geometry();
    for i in 0..rows {
        for j in 0..cols {
            let addr = mapping.map(i, j);
            out.push_str(&format!(
                "B{:<2}R{:<3}C{:<3} ",
                addr.flat_bank(&geometry),
                addr.row,
                addr.column
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use tbi_dram::DramStandard;

    fn ddr4() -> DramConfig {
        DramConfig::preset(DramStandard::Ddr4, 3200).unwrap()
    }

    #[test]
    fn all_kinds_build_for_all_presets() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let config = DramConfig::preset(*standard, *rate).unwrap();
            for kind in MappingKind::ALL {
                let mapping = kind.build(&config, 512).unwrap_or_else(|e| {
                    panic!("{kind} failed to build for {}: {e}", config.label())
                });
                assert_eq!(mapping.dimension(), 512);
                // Spot-check a few addresses for validity.
                for (i, j) in [(0, 0), (1, 0), (0, 1), (255, 255), (511, 0), (0, 511)] {
                    let addr = mapping.map(i, j);
                    assert!(
                        addr.is_valid_for(&config.geometry),
                        "{kind} produced invalid address {addr} for ({i},{j}) on {}",
                        config.label()
                    );
                }
            }
        }
    }

    #[test]
    fn every_kind_rejects_dimensions_near_u32_max_on_every_preset() {
        // Padding such a dimension to whole tiles or pages must neither wrap
        // past the capacity check nor overflow the error's burst count; a
        // 1 x 1 tile pads the tile grid the most.
        let tiled =
            [(8, 8), (1, 1)].map(|(tile_h, tile_w)| MappingKind::GeneralTiled { tile_h, tile_w });
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let config = DramConfig::preset(*standard, *rate).unwrap();
            for kind in MappingKind::ALL.into_iter().chain(tiled) {
                for dimension in [u32::MAX - 1, u32::MAX] {
                    assert!(
                        kind.build(&config, dimension).is_err(),
                        "{kind} at dimension {dimension} on {}",
                        config.label()
                    );
                }
            }
        }
    }

    #[test]
    fn table1_kinds_are_row_major_and_optimized() {
        assert_eq!(
            MappingKind::TABLE1,
            [MappingKind::RowMajor, MappingKind::Optimized]
        );
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<_> = MappingKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), MappingKind::ALL.len());
        assert_eq!(MappingKind::Optimized.to_string(), "optimized");
    }

    #[test]
    fn render_grid_contains_requested_cells() {
        let config = ddr4();
        let mapping = MappingKind::Optimized.build(&config, 64).unwrap();
        let grid = render_grid(mapping.as_ref(), 4, 4);
        assert_eq!(grid.lines().count(), 4);
        assert!(grid.contains('B'));
    }

    /// Every mapping must be injective: distinct positions map to distinct
    /// DRAM addresses.
    #[test]
    fn mappings_are_injective_on_a_dense_block() {
        let config = ddr4();
        let n = 300u32;
        for kind in MappingKind::ALL {
            let mapping = kind.build(&config, n).unwrap();
            let mut seen = HashSet::new();
            for i in 0..n {
                for j in 0..(n - i) {
                    let addr = mapping.map(i, j);
                    assert!(
                        seen.insert(addr),
                        "{kind}: collision at ({i},{j}) -> {addr}"
                    );
                }
            }
        }
    }

    #[test]
    fn map_batch_matches_scalar_map_for_every_kind() {
        let config = ddr4();
        let n = 150u32;
        let coords: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| (0..(n - i)).map(move |j| (i, j)))
            .collect();
        let mut kinds: Vec<MappingKind> = MappingKind::ALL.to_vec();
        kinds.push(MappingKind::Permutation(
            tbi_dram::BitPermutation::for_scheme(
                config.decode_scheme,
                &config.geometry,
                ChannelTopology::default(),
            )
            .unwrap(),
        ));
        for kind in kinds {
            let mapping = kind.build(&config, n).unwrap();
            let mut batch = tbi_dram::AddressBatch::new();
            mapping.map_batch(&coords, &mut batch);
            assert_eq!(batch.len(), coords.len(), "{kind}");
            for (index, &(i, j)) in coords.iter().enumerate() {
                assert_eq!(
                    batch.get(index),
                    (0, mapping.map(i, j)),
                    "{kind} at ({i},{j})"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn mappings_are_injective_and_valid_for_random_pairs(
            kind_idx in 0usize..MappingKind::ALL.len(),
            n in 64u32..2000,
            seed in 0u64..u64::MAX,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let config = ddr4();
            let kind = MappingKind::ALL[kind_idx];
            let mapping = kind.build(&config, n).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut positions = HashSet::new();
            let mut addresses = HashSet::new();
            for _ in 0..500 {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n - i);
                if positions.insert((i, j)) {
                    let addr = mapping.map(i, j);
                    prop_assert!(addr.is_valid_for(&config.geometry));
                    prop_assert!(addresses.insert(addr), "{} collided at ({i},{j})", kind);
                }
            }
        }
    }
}
