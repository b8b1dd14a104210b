//! Free-shape tiling: the optimized scheme's diagonal bank term over tiles
//! of **arbitrary** (not necessarily power-of-two) dimensions.
//!
//! The paper's optimized mapping ties the tile area to the page size, so
//! its tile edges are always powers of two and the round-trip page-miss
//! rate is pinned to `(2⁻ᵃ + 2⁻ᵇ) / 2` with `a + b = log₂(page)`.  For an
//! odd `log₂(page)` that split is forced to be lopsided — DDR3's 128-column
//! page yields 8 × 16 tiles and a 3/32 round-trip miss floor — even though
//! a *square* tile of the same page budget would do better.
//!
//! [`GeneralTiledMapping`] decouples the tile shape from the page size: any
//! `tile_h × tile_w` with `tile_h · tile_w ≤ page` is admissible, the tile
//! simply leaves the remaining page columns unused.  An 11 × 11 tile on a
//! 128-column page wastes 7 of 128 columns but cuts the round-trip miss
//! rate to `(1/11 + 1/11) / 2 = 1/11 < 3/32` — the capacity/locality trade
//! the bit-sliced (permutation or folded) families cannot express, because
//! 11 is not a power of two.  For even `log₂(page)` the best free tile is
//! the power-of-two square the optimized scheme already uses, and the two
//! schemes tie exactly (see `docs/MAPPING.md` for the ceiling argument).
//!
//! Everything else follows the optimized construction: the flat bank index
//! walks the tile diagonal (`(ti + tj) mod banks`, bank-group in the low
//! bits so consecutive tiles rotate groups first), and tiles of the same
//! bank pack densely into DRAM rows.

use tbi_dram::{DeviceGeometry, PhysicalAddress};

use crate::mapping::simple::split_bank;
use crate::mapping::DramMapping;
use crate::InterleaverError;

/// Diagonally banked tiling with a free `tile_h × tile_w` shape
/// (`tile_h · tile_w ≤ page`); each tile occupies the leading columns of
/// one DRAM page.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::mapping::{DramMapping, GeneralTiledMapping};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr3, 800)?;
/// // 11 x 11 = 121 of the 128 page columns: inexpressible with bit slices.
/// let mapping = GeneralTiledMapping::new(config.geometry, 4096, 11, 11)?;
///
/// // One tile = one page: every cell of the leading 11 x 11 tile shares
/// // one bank and one DRAM row (here the opposite tile corners).
/// let a = mapping.map(0, 0);
/// let b = mapping.map(10, 10);
/// assert_eq!((a.bank_group, a.bank, a.row), (b.bank_group, b.bank, b.row));
/// assert_ne!(a.column, b.column);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GeneralTiledMapping {
    geometry: DeviceGeometry,
    n: u32,
    tile_w: u32,
    tile_h: u32,
    /// Tiles per tile-row, padded up to a multiple of the flat bank count
    /// so every bank owns the same number of row slots.
    tiles_per_row_padded: u32,
    /// `tiled` for the page-square tile of Fig. 1b, `general-tiled`
    /// otherwise.
    name: &'static str,
}

impl GeneralTiledMapping {
    /// Creates the mapping for an index space of dimension `n` with tiles
    /// of `tile_h` index rows by `tile_w` index columns.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if `n` or a tile dimension is zero, the
    /// tile does not fit one DRAM page, or the tile grid exceeds the number
    /// of DRAM rows of the device.
    pub fn new(
        geometry: DeviceGeometry,
        n: u32,
        tile_h: u32,
        tile_w: u32,
    ) -> Result<Self, InterleaverError> {
        if n == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "mapping dimension must be non-zero".to_string(),
            });
        }
        if tile_h == 0 || tile_w == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: format!("tile {tile_h}x{tile_w} must have non-zero edges"),
            });
        }
        let page = geometry.columns_per_row;
        if u64::from(tile_h) * u64::from(tile_w) > u64::from(page) {
            return Err(InterleaverError::InvalidDimension {
                reason: format!("tile {tile_h}x{tile_w} exceeds the {page}-column page"),
            });
        }
        // Size the tile grid in u64: near the top of the u32 dimension
        // range, padding `n` up to whole tiles and banks would wrap and slip
        // past the capacity check.
        let banks = u64::from(geometry.total_banks());
        let tiles_per_row_padded = u64::from(n.div_ceil(tile_w)).div_ceil(banks) * banks;
        let tile_rows = u64::from(n.div_ceil(tile_h));
        let rows_needed = tile_rows * (tiles_per_row_padded / banks);
        if rows_needed > u64::from(geometry.rows) {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: rows_needed.saturating_mul(u64::from(page) * banks),
                available_bursts: geometry.total_bursts(),
            });
        }
        let tiles_per_row_padded = u32::try_from(tiles_per_row_padded).map_err(|_| {
            InterleaverError::InvalidDimension {
                reason: format!("dimension {n} padded to whole tiles exceeds u32"),
            }
        })?;
        Ok(Self {
            geometry,
            n,
            tile_w,
            tile_h,
            tiles_per_row_padded,
            name: "general-tiled",
        })
    }

    /// The paper's page tiling alone (Fig. 1b,
    /// [`MappingKind::Tiled`](crate::MappingKind::Tiled)): the power-of-two
    /// tile that fills one page and is as square as possible,
    /// `tile_h = 2^⌊log₂(page)/2⌋` rows by `page / tile_h` columns.
    ///
    /// The bank changes only from tile to tile, not with every access, so
    /// page misses split between both phases while consecutive accesses
    /// stay within one bank group for a whole tile row or column:
    /// bank-group devices remain limited by `t_ccd_l`.
    ///
    /// # Errors
    ///
    /// As [`GeneralTiledMapping::new`].
    pub fn page_square(geometry: DeviceGeometry, n: u32) -> Result<Self, InterleaverError> {
        let page = geometry.columns_per_row;
        let tile_h = 1 << (page.trailing_zeros() / 2);
        Ok(Self {
            name: "tiled",
            ..Self::new(geometry, n, tile_h, page / tile_h)?
        })
    }

    /// Width of one tile in index-space columns.
    #[must_use]
    pub fn tile_width(&self) -> u32 {
        self.tile_w
    }

    /// Height of one tile in index-space rows.
    #[must_use]
    pub fn tile_height(&self) -> u32 {
        self.tile_h
    }
}

impl DramMapping for GeneralTiledMapping {
    fn map(&self, i: u32, j: u32) -> PhysicalAddress {
        debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
        let banks = self.geometry.total_banks();
        let ti = i / self.tile_h;
        let tj = j / self.tile_w;
        let oi = i % self.tile_h;
        let oj = j % self.tile_w;
        // The diagonal bank term of the optimized scheme: consecutive tiles
        // in either direction land on different banks (groups first).
        let flat_bank = (ti + tj) % banks;
        // Tiles owned by one bank within a tile-row have tj spaced by
        // `banks`; packing them densely yields the row.
        let row = ti * (self.tiles_per_row_padded / banks) + tj / banks;
        // The tile occupies the leading tile_h * tile_w columns of its
        // page; any remaining page columns stay unused (the capacity the
        // free shape trades for locality).
        let column = oi * self.tile_w + oj;
        let (bank_group, bank) = split_bank(flat_bank, &self.geometry);
        PhysicalAddress {
            rank: 0,
            bank_group,
            bank,
            row,
            column,
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    fn dimension(&self) -> u32 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tbi_dram::{DramConfig, DramStandard};

    fn geometry(standard: DramStandard, rate: u32) -> DeviceGeometry {
        DramConfig::preset(standard, rate).unwrap().geometry
    }

    fn ddr3() -> DeviceGeometry {
        geometry(DramStandard::Ddr3, 800)
    }

    fn ddr4() -> DeviceGeometry {
        geometry(DramStandard::Ddr4, 3200)
    }

    #[test]
    fn tiled_keeps_a_tile_inside_one_page() {
        let m = GeneralTiledMapping::page_square(ddr4(), 256).unwrap();
        let g = ddr4();
        let first = m.map(0, 0);
        let mut columns = HashSet::new();
        for i in 0..m.tile_height() {
            for j in 0..m.tile_width() {
                let addr = m.map(i, j);
                assert_eq!(addr.flat_bank(&g), first.flat_bank(&g));
                assert_eq!(addr.row, first.row);
                assert!(columns.insert(addr.column));
            }
        }
        // The tile fills the page exactly.
        assert_eq!(columns.len() as u32, g.columns_per_row);
        assert_eq!(m.name(), "tiled");
    }

    #[test]
    fn tiled_neighbouring_tiles_use_different_banks() {
        let m = GeneralTiledMapping::page_square(ddr4(), 256).unwrap();
        let g = ddr4();
        let here = m.map(0, 0).flat_bank(&g);
        let right = m.map(0, m.tile_width()).flat_bank(&g);
        let below = m.map(m.tile_height(), 0).flat_bank(&g);
        assert_ne!(here, right);
        assert_ne!(here, below);
    }

    #[test]
    fn maps_every_position_injectively() {
        for (tile_h, tile_w) in [(11, 11), (8, 16), (1, 128), (128, 1), (10, 12)] {
            let n = 300;
            let m = GeneralTiledMapping::new(ddr3(), n, tile_h, tile_w).unwrap();
            let mut seen = HashSet::new();
            for i in 0..n {
                for j in 0..n {
                    let a = m.map(i, j);
                    assert!(
                        seen.insert((a.bank_group, a.bank, a.row, a.column)),
                        "duplicate address for ({i},{j}) with tile {tile_h}x{tile_w}"
                    );
                    assert!(a.column < ddr3().columns_per_row);
                    assert!(a.row < ddr3().rows);
                }
            }
        }
    }

    #[test]
    fn one_tile_fills_one_page_prefix() {
        let m = GeneralTiledMapping::new(ddr3(), 300, 11, 11).unwrap();
        let mut cells = HashSet::new();
        let anchor = m.map(0, 0);
        for i in 0..11 {
            for j in 0..11 {
                let a = m.map(i, j);
                assert_eq!((a.bank_group, a.bank, a.row), {
                    (anchor.bank_group, anchor.bank, anchor.row)
                });
                cells.insert(a.column);
            }
        }
        // 121 distinct columns, all below the tile area (page prefix).
        assert_eq!(cells.len(), 121);
        assert!(cells.iter().all(|&c| c < 121));
    }

    #[test]
    fn bank_walks_the_tile_diagonal() {
        let m = GeneralTiledMapping::new(ddr3(), 300, 11, 11).unwrap();
        let banks = ddr3().total_banks();
        let flat = |i: u32, j: u32| {
            let a = m.map(i, j);
            a.bank * ddr3().bank_groups + a.bank_group
        };
        for t in 0..20u32 {
            assert_eq!(flat(0, t * 11), t % banks);
            assert_eq!(flat(t * 11, 0), t % banks);
        }
    }

    #[test]
    fn rejects_degenerate_and_oversized_tiles() {
        assert!(GeneralTiledMapping::new(ddr3(), 0, 11, 11).is_err());
        assert!(GeneralTiledMapping::page_square(ddr4(), 0).is_err());
        assert!(GeneralTiledMapping::new(ddr3(), 64, 0, 11).is_err());
        assert!(GeneralTiledMapping::new(ddr3(), 64, 11, 0).is_err());
        // 12 x 11 = 132 > 128 page columns.
        assert!(GeneralTiledMapping::new(ddr3(), 64, 12, 11).is_err());
        let mut tiny = ddr3();
        tiny.rows = 16;
        assert!(matches!(
            GeneralTiledMapping::new(tiny, 100_000, 11, 11),
            Err(InterleaverError::CapacityExceeded { .. })
        ));
        let mut shrunk = ddr4();
        shrunk.rows = 64;
        assert!(GeneralTiledMapping::page_square(shrunk, 100_000).is_err());
    }

    #[test]
    fn paper_sized_interleaver_fits_all_presets_at_the_square_tile() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let g = geometry(*standard, *rate);
            let edge = (g.columns_per_row as f64).sqrt() as u32;
            let m = GeneralTiledMapping::new(g, 5000, edge, edge);
            assert!(
                m.is_ok(),
                "12.5M-element interleaver must fit {standard:?}-{rate} at {edge}x{edge}"
            );
        }
    }
}
