//! Single-optimization mapping schemes, used for Fig. 1a/1b and ablations.

use tbi_dram::{DeviceGeometry, PhysicalAddress};

use crate::mapping::DramMapping;
use crate::InterleaverError;

pub(crate) fn split_bank(flat_bank: u32, geometry: &DeviceGeometry) -> (u32, u32) {
    // The paper presumes the lower bank-address bits denote the bank group so
    // that incrementing the flat bank index switches bank groups first.
    (
        flat_bank % geometry.bank_groups,
        flat_bank / geometry.bank_groups,
    )
}

/// Optimization 1 only: the bank index advances by one with every access in
/// both traversal directions (the diagonal pattern of Fig. 1a), while the
/// per-bank placement remains a simple linear fill.
///
/// This removes the bank-group penalty (`t_ccd_l`) but does nothing about
/// page misses, so the read phase still suffers on devices with slow row
/// cycles.
#[derive(Debug, Clone)]
pub struct BankRoundRobinMapping {
    geometry: DeviceGeometry,
    n: u32,
    padded_width: u64,
}

impl BankRoundRobinMapping {
    /// Creates the mapping for an index space of dimension `n`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if `n` is zero or the (padded) index
    /// space exceeds the device capacity.
    pub fn new(geometry: DeviceGeometry, n: u32) -> Result<Self, InterleaverError> {
        if n == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "mapping dimension must be non-zero".to_string(),
            });
        }
        let banks = u64::from(geometry.total_banks());
        let padded_width = u64::from(n).div_ceil(banks) * banks;
        let required = padded_width * u64::from(n);
        if required > geometry.total_bursts() {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: required,
                available_bursts: geometry.total_bursts(),
            });
        }
        Ok(Self {
            geometry,
            n,
            padded_width,
        })
    }
}

impl DramMapping for BankRoundRobinMapping {
    fn map(&self, i: u32, j: u32) -> PhysicalAddress {
        debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
        let banks = u64::from(self.geometry.total_banks());
        let flat_bank = (u64::from(i) + u64::from(j)) % banks;
        // Within the bank: positions of one index-space row with this bank are
        // spaced `banks` apart; pack them densely and stack rows using the
        // padded width so the per-bank index stays injective.
        let per_row = self.padded_width / banks;
        let within = u64::from(i) * per_row + u64::from(j) / banks;
        let column = within % u64::from(self.geometry.columns_per_row);
        let row = within / u64::from(self.geometry.columns_per_row);
        let (bank_group, bank) = split_bank(flat_bank as u32, &self.geometry);
        PhysicalAddress {
            rank: 0,
            bank_group,
            bank,
            row: (row % u64::from(self.geometry.rows)) as u32,
            column: column as u32,
        }
    }

    fn name(&self) -> &'static str {
        "bank-round-robin"
    }

    fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    fn dimension(&self) -> u32 {
        self.n
    }
}

/// Optimization 2 only: the index space is partitioned into rectangles that
/// each fill exactly one DRAM page (Fig. 1b); the bank only changes from tile
/// to tile (diagonally), not with every access.
///
/// Page misses are now split between both phases, but consecutive accesses
/// stay within one bank group for a whole tile row/column, so bank-group
/// devices remain limited by `t_ccd_l`.
#[derive(Debug, Clone)]
pub struct TiledMapping {
    geometry: DeviceGeometry,
    n: u32,
    tile_w: u32,
    tile_h: u32,
    tiles_per_row: u32,
}

impl TiledMapping {
    /// Creates the mapping for an index space of dimension `n`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if `n` is zero or the tile grid exceeds
    /// the number of DRAM rows.
    pub fn new(geometry: DeviceGeometry, n: u32) -> Result<Self, InterleaverError> {
        if n == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "mapping dimension must be non-zero".to_string(),
            });
        }
        // tile_w * tile_h = page capacity, as square as possible.
        let page = geometry.columns_per_row;
        let tile_h = 1u32 << (page.trailing_zeros() / 2);
        let tile_w = page / tile_h;
        let banks = geometry.total_banks();
        let tiles_per_row = n.div_ceil(tile_w).div_ceil(banks) * banks;
        let tile_rows = n.div_ceil(tile_h);
        // Each bank sees `tiles_per_row / banks` tiles per tile-row.
        let rows_needed = u64::from(tile_rows) * u64::from(tiles_per_row / banks);
        if rows_needed > u64::from(geometry.rows) {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: rows_needed.saturating_mul(u64::from(page) * u64::from(banks)),
                available_bursts: geometry.total_bursts(),
            });
        }
        Ok(Self {
            geometry,
            n,
            tile_w,
            tile_h,
            tiles_per_row,
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

impl DramMapping for TiledMapping {
    fn map(&self, i: u32, j: u32) -> PhysicalAddress {
        debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
        let banks = self.geometry.total_banks();
        let ti = i / self.tile_h;
        let tj = j / self.tile_w;
        let oi = i % self.tile_h;
        let oj = j % self.tile_w;
        let flat_bank = (ti + tj) % banks;
        // Tiles owned by the same bank within one tile-row have tj spaced by
        // `banks`, so tj / banks is a dense per-bank tile column index.
        let row = u64::from(ti) * u64::from(self.tiles_per_row / banks) + u64::from(tj / banks);
        let column = oi * self.tile_w + oj;
        let (bank_group, bank) = split_bank(flat_bank, &self.geometry);
        PhysicalAddress {
            rank: 0,
            bank_group,
            bank,
            row: (row % u64::from(self.geometry.rows)) as u32,
            column,
        }
    }

    fn name(&self) -> &'static str {
        "tiled"
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

    fn geometry() -> DeviceGeometry {
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .geometry
    }

    #[test]
    fn round_robin_switches_bank_every_access_in_both_directions() {
        let m = BankRoundRobinMapping::new(geometry(), 256).unwrap();
        let g = geometry();
        for k in 0..32u32 {
            let along_row = m.map(5, k).flat_bank(&g);
            let along_row_next = m.map(5, k + 1).flat_bank(&g);
            assert_ne!(along_row, along_row_next);
            let along_col = m.map(k, 5).flat_bank(&g);
            let along_col_next = m.map(k + 1, 5).flat_bank(&g);
            assert_ne!(along_col, along_col_next);
        }
    }

    #[test]
    fn round_robin_uses_all_banks_equally() {
        let m = BankRoundRobinMapping::new(geometry(), 64).unwrap();
        let g = geometry();
        let mut counts = vec![0u32; g.total_banks() as usize];
        for j in 0..64 {
            counts[m.map(0, j).flat_bank(&g) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn tiled_keeps_a_tile_inside_one_page() {
        let m = TiledMapping::new(geometry(), 256).unwrap();
        let g = geometry();
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
    }

    #[test]
    fn tiled_neighbouring_tiles_use_different_banks() {
        let m = TiledMapping::new(geometry(), 256).unwrap();
        let g = geometry();
        let here = m.map(0, 0).flat_bank(&g);
        let right = m.map(0, m.tile_width()).flat_bank(&g);
        let below = m.map(m.tile_height(), 0).flat_bank(&g);
        assert_ne!(here, right);
        assert_ne!(here, below);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert!(BankRoundRobinMapping::new(geometry(), 0).is_err());
        assert!(TiledMapping::new(geometry(), 0).is_err());
    }

    #[test]
    fn oversized_index_space_is_rejected() {
        let mut g = geometry();
        g.rows = 64; // shrink the device
        assert!(TiledMapping::new(g, 100_000).is_err());
        assert!(BankRoundRobinMapping::new(g, 100_000).is_err());
    }
}
