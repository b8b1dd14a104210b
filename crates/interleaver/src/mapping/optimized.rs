//! The optimized mapping: bank round-robin + page tiling + bank-dependent
//! stagger (the paper's contribution, Fig. 1c/1d).
//!
//! The paper describes the three optimizations but deliberately omits the
//! closed-form mapping rules.  The reconstruction below satisfies all three
//! properties using only additions, multiplications, shifts and masks: the
//! constructor validates the geometry, so every divisor is a power of two
//! and the mapping is implementable in hardware with the same low
//! complexity the paper claims:
//!
//! 1. **Bank (group) round-robin** — the bank-group index is `(i + j) mod G`,
//!    so it advances by one with every access along a row *and* along a
//!    column.  Consecutive bursts therefore always target different bank
//!    groups and only the short `t_ccd_s` gap applies.  (The paper presumes
//!    the lower bank-address bits denote the bank group; incrementing the
//!    bank address per access is exactly a bank-group rotation.)
//! 2. **Page tiling** — the index space is partitioned into tiles of
//!    `tile_h x tile_w = G x page` positions.  Within a tile, the positions of
//!    one bank group form exactly one DRAM page, and the bank *within* the
//!    group is chosen per tile along the tile diagonal
//!    (`(tile_row + tile_col) mod banks_per_group`).  A row-wise sweep and a
//!    column-wise sweep each cross one tile boundary per `tile_w`
//!    (resp. `tile_h`) accesses, so page misses are split between the two
//!    phases and every activate is reused for many bursts in both directions.
//! 3. **Stagger** — before tiling, the coordinates are circularly shifted by
//!    a bank-group-dependent offset, so the tile boundaries (and hence the
//!    page misses) of different bank groups are reached at different times
//!    and a miss on one bank is masked by hits on the others.  Banks within a
//!    group are already staggered naturally because they own different tiles
//!    along the diagonal.

use tbi_dram::{AddressBatch, DeviceGeometry, PhysicalAddress};

use crate::mapping::DramMapping;
use crate::InterleaverError;

/// The fully optimized interleaver-to-DRAM mapping (Fig. 1d of the paper).
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::mapping::{DramMapping, OptimizedMapping};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr5, 6400)?;
/// let mapping = OptimizedMapping::new(config.geometry, 4096)?;
///
/// // Consecutive accesses in both directions land in different bank groups.
/// let a = mapping.map(10, 10);
/// let right = mapping.map(10, 11);
/// let down = mapping.map(11, 10);
/// assert_ne!(a.bank_group, right.bank_group);
/// assert_ne!(a.bank_group, down.bank_group);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OptimizedMapping {
    geometry: DeviceGeometry,
    n: u32,
    tile_w: u32,
    tile_h: u32,
    padded_width: u32,
    padded_height: u32,
    stagger: bool,
    /// Precomputed shifts, strides and stagger steps: the mapping is
    /// evaluated once per simulated burst, so it never divides.
    shifts: OptShifts,
}

/// Precomputed log2 widths, strides and stagger steps.
#[derive(Debug, Clone, Copy)]
struct OptShifts {
    groups: u32,
    tile_w: u32,
    tile_h: u32,
    banks_per_group: u32,
    /// `tiles_per_row_padded / banks_per_group` (DRAM rows per tile-row).
    row_stride: u32,
    /// `tile_w / groups` (page columns per tile row).
    col_stride: u32,
    /// Row offset per bank group: `tile_h / groups` with the stagger on
    /// (0 when a tile is shorter than the group count), else 0.
    stagger_i: u32,
    /// Column offset per bank group: `tile_w / groups` with the stagger
    /// on, else 0.
    stagger_j: u32,
}

impl OptimizedMapping {
    /// Creates the optimized mapping (all three optimizations) for an index
    /// space of dimension `n`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if `n` is zero, the geometry fails
    /// [`DeviceGeometry::validate`] (a dimension is not a power of two) or
    /// the tile grid exceeds the number of DRAM rows of the device.
    pub fn new(geometry: DeviceGeometry, n: u32) -> Result<Self, InterleaverError> {
        Self::build(geometry, n, true)
    }

    /// Creates the mapping without the bank-group-dependent stagger
    /// (optimizations 1 + 2 only, Fig. 1c).  Used for ablation studies.
    ///
    /// # Errors
    ///
    /// See [`OptimizedMapping::new`].
    pub fn without_stagger(geometry: DeviceGeometry, n: u32) -> Result<Self, InterleaverError> {
        Self::build(geometry, n, false)
    }

    fn build(geometry: DeviceGeometry, n: u32, stagger: bool) -> Result<Self, InterleaverError> {
        if n == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "mapping dimension must be non-zero".to_string(),
            });
        }
        geometry.validate()?;
        let groups = geometry.bank_groups;
        let banks_per_group = geometry.banks_per_group;
        let page = geometry.columns_per_row;
        // tile_h * tile_w = groups * page, both powers of two, as square as
        // possible.  The extra factor (for non-square areas) goes to the tile
        // height because the column-wise read phase has the tighter
        // activate budget.
        let area = groups * page;
        let area_log2 = area.trailing_zeros();
        let mut tile_w = 1u32 << (area_log2 / 2);
        let mut tile_h = area / tile_w;
        if tile_w < groups {
            // Keep the injectivity invariant `tile_w % groups == 0` for
            // geometries whose page is smaller than the bank-group count.
            tile_w = groups;
            tile_h = page;
        }
        debug_assert_eq!(tile_w * tile_h, area);
        debug_assert_eq!(
            tile_w % groups,
            0,
            "tile width must be a multiple of the bank-group count"
        );

        // Size the tile grid in u64: near the top of the u32 dimension
        // range, padding `n` up to whole tiles would wrap and slip past the
        // capacity check.
        let tiles_per_row = u64::from(n.div_ceil(tile_w));
        let tile_rows = u64::from(n.div_ceil(tile_h));
        let row_groups = tiles_per_row.div_ceil(u64::from(banks_per_group));
        let rows_needed = tile_rows * row_groups;
        if rows_needed > u64::from(geometry.rows) {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: rows_needed
                    .saturating_mul(u64::from(page) * u64::from(geometry.total_banks())),
                available_bursts: geometry.total_bursts(),
            });
        }
        let narrow = |extent: u64| {
            u32::try_from(extent).map_err(|_| InterleaverError::InvalidDimension {
                reason: format!("dimension {n} padded to whole tiles exceeds u32"),
            })
        };
        let padded_width = narrow(tiles_per_row * u64::from(tile_w))?;
        let padded_height = narrow(tile_rows * u64::from(tile_h))?;
        let tiles_per_row_padded = narrow(row_groups * u64::from(banks_per_group))?;
        let stagger_step = |edge: u32| if stagger { edge / groups } else { 0 };
        let shifts = OptShifts {
            groups: groups.trailing_zeros(),
            tile_w: tile_w.trailing_zeros(),
            tile_h: tile_h.trailing_zeros(),
            banks_per_group: banks_per_group.trailing_zeros(),
            row_stride: tiles_per_row_padded / banks_per_group,
            col_stride: tile_w / groups,
            stagger_i: stagger_step(tile_h),
            stagger_j: stagger_step(tile_w),
        };
        Ok(Self {
            geometry,
            n,
            tile_w,
            tile_h,
            padded_width,
            padded_height,
            stagger,
            shifts,
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

    /// Whether the bank-group-dependent stagger (optimization 3) is enabled.
    #[must_use]
    pub fn stagger_enabled(&self) -> bool {
        self.stagger
    }

    /// The circular `(row, column)` offset applied for bank group `group`.
    #[must_use]
    pub fn stagger_offset(&self, group: u32) -> (u32, u32) {
        (group * self.shifts.stagger_i, group * self.shifts.stagger_j)
    }
}

impl DramMapping for OptimizedMapping {
    fn map(&self, i: u32, j: u32) -> PhysicalAddress {
        debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
        let s = self.shifts;

        // Optimization 1: the bank group rotates with every access in both
        // directions.
        let group = (i + j) & ((1 << s.groups) - 1);

        // Optimization 3: bank-group-dependent circular shift so that tile
        // boundaries of different groups are crossed at different times.
        // The wrap needs at most one subtraction: `i < padded_height` and the
        // offset is below one tile height (likewise for `j`).
        let (off_i, off_j) = self.stagger_offset(group);
        let mut i_shifted = i + off_i;
        if i_shifted >= self.padded_height {
            i_shifted -= self.padded_height;
        }
        let mut j_shifted = j + off_j;
        if j_shifted >= self.padded_width {
            j_shifted -= self.padded_width;
        }

        // Optimization 2: tiles of `groups * page` positions; the positions of
        // one bank group inside a tile fill exactly one DRAM page.
        let ti = i_shifted >> s.tile_h;
        let tj = j_shifted >> s.tile_w;
        let oi = i_shifted & ((1 << s.tile_h) - 1);
        let oj = j_shifted & ((1 << s.tile_w) - 1);

        // The bank inside the group follows the tile diagonal, so neighbouring
        // tiles (in either direction) use different banks and their activates
        // overlap with transfers on the other banks.
        let bank = (ti + tj) & ((1 << s.banks_per_group) - 1);

        // Tiles owned by the same (group, bank) within one tile-row have `tj`
        // spaced by `banks_per_group`; packing them densely yields the row.
        let row = ti * s.row_stride + (tj >> s.banks_per_group);

        // Within the tile the positions of `group` lie on one residue class of
        // `oj`; packing them densely yields the column.
        let column = oi * s.col_stride + (oj >> s.groups);

        PhysicalAddress {
            rank: 0,
            bank_group: group,
            bank,
            row,
            column,
        }
    }

    /// Batched optimized mapping: every lane is filled in one branch-free
    /// pass (the stagger wrap is a select, not a jump) through
    /// [`AddressBatch::append_with`].
    fn map_batch(&self, coords: &[(u32, u32)], out: &mut AddressBatch) {
        let s = self.shifts;
        let group_mask = (1u32 << s.groups) - 1;
        let (tile_h_mask, tile_w_mask) = ((1u32 << s.tile_h) - 1, (1u32 << s.tile_w) - 1);
        let bank_mask = (1u32 << s.banks_per_group) - 1;
        let (height, width) = (self.padded_height, self.padded_width);
        out.append_with(coords.len(), |lanes| {
            let slots = lanes
                .bank_group
                .iter_mut()
                .zip(lanes.bank.iter_mut())
                .zip(lanes.row.iter_mut())
                .zip(lanes.column.iter_mut());
            for ((((group_slot, bank_slot), row_slot), column_slot), &(i, j)) in slots.zip(coords) {
                debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
                let group = (i + j) & group_mask;
                let i_shifted = i + group * s.stagger_i;
                let i_shifted = i_shifted - height * u32::from(i_shifted >= height);
                let j_shifted = j + group * s.stagger_j;
                let j_shifted = j_shifted - width * u32::from(j_shifted >= width);
                let (ti, tj) = (i_shifted >> s.tile_h, j_shifted >> s.tile_w);
                *group_slot = group;
                *bank_slot = (ti + tj) & bank_mask;
                *row_slot = ti * s.row_stride + (tj >> s.banks_per_group);
                *column_slot = (i_shifted & tile_h_mask) * s.col_stride
                    + ((j_shifted & tile_w_mask) >> s.groups);
            }
        });
    }

    fn name(&self) -> &'static str {
        if self.stagger {
            "optimized"
        } else {
            "optimized-no-stagger"
        }
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

    /// Per geometry, the FNV-1a hash of `map` over the whole 300 × 300
    /// square with the stagger on and off.  Recorded from the divide-chain
    /// arithmetic this mapping replaced; the stagger wraps past the padded
    /// edges on that square.  The last three geometries have pages smaller
    /// than the bank-group count, so their tiles are shorter than the
    /// group count and the row stagger step is zero.
    const MAP_GOLDEN: [(&str, [u64; 2]); 19] = [
        ("DDR3-800", [0x59dd415fab973e65, 0x59dd415fab973e65]),
        ("DDR3-1600", [0x59dd415fab973e65, 0x59dd415fab973e65]),
        ("DDR4-1600", [0xbc8da45c9e191319, 0xa5ef86ba873fc26d]),
        ("DDR4-3200", [0xbc8da45c9e191319, 0xa5ef86ba873fc26d]),
        ("DDR5-3200", [0xb6569fa74d3e91a9, 0x465aa817a22c0745]),
        ("DDR5-6400", [0xb6569fa74d3e91a9, 0x465aa817a22c0745]),
        ("LPDDR4-2133", [0xcd966686c4c12255, 0xcd966686c4c12255]),
        ("LPDDR4-4266", [0xcd966686c4c12255, 0xcd966686c4c12255]),
        ("LPDDR5-4267", [0xeab310dcc4326565, 0xca4cfbf71556e0a5]),
        ("LPDDR5-8533", [0xeab310dcc4326565, 0xca4cfbf71556e0a5]),
        ("HBM2-2000", [0xeab310dcc4326565, 0xca4cfbf71556e0a5]),
        ("HBM2-2400", [0xeab310dcc4326565, 0xca4cfbf71556e0a5]),
        ("GDDR6-14000", [0xeab310dcc4326565, 0xca4cfbf71556e0a5]),
        ("GDDR6-16000", [0xeab310dcc4326565, 0xca4cfbf71556e0a5]),
        ("DDR5-3DS-4800", [0xb6569fa74d3e91a9, 0x465aa817a22c0745]),
        ("DDR5-3DS-6400", [0xb6569fa74d3e91a9, 0x465aa817a22c0745]),
        ("bg8-c4", [0x782660d8814c1d75, 0xcbf571d1534d81ad]),
        ("bg4-c2", [0x0b451089b0eeefe5, 0x5b25bcd1641799dd]),
        ("bg8-c1", [0x1bf4786ecfc7523b, 0x85c8c6adc521ab9d]),
    ];

    /// The geometries of [`MAP_GOLDEN`], in order: every preset, then
    /// DDR5-6400 with (bank groups, columns per row) of (8, 4), (4, 2) and
    /// (8, 1).
    fn golden_geometries() -> Vec<(String, DeviceGeometry)> {
        let mut geometries: Vec<(String, DeviceGeometry)> = tbi_dram::standards::ALL_CONFIGS
            .iter()
            .chain(tbi_dram::standards::MODERN_CONFIGS)
            .map(|&(standard, rate)| {
                let config = DramConfig::preset(standard, rate).unwrap();
                (config.label(), config.geometry)
            })
            .collect();
        for (groups, columns) in [(8u32, 4u32), (4, 2), (8, 1)] {
            let mut geometry = geometry(DramStandard::Ddr5, 6400);
            geometry.bank_groups = groups;
            geometry.columns_per_row = columns;
            geometries.push((format!("bg{groups}-c{columns}"), geometry));
        }
        geometries
    }

    #[test]
    fn map_reproduces_the_recorded_golden_and_map_batch_equals_map() {
        let coords: Vec<(u32, u32)> = (0..300)
            .flat_map(|i| (0..300).map(move |j| (i, j)))
            .collect();
        for ((label, geometry), (golden_label, expected)) in
            golden_geometries().into_iter().zip(MAP_GOLDEN)
        {
            assert_eq!(label, golden_label);
            for (stagger, expected) in [true, false].into_iter().zip(expected) {
                let mapping = OptimizedMapping::build(geometry, 300, stagger).unwrap();
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for &(i, j) in &coords {
                    let a = mapping.map(i, j);
                    for value in [0, a.rank, a.bank_group, a.bank, a.row, a.column] {
                        hash = (hash ^ u64::from(value)).wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
                assert_eq!(hash, expected, "{label} stagger={stagger}");
                let mut batch = AddressBatch::new();
                mapping.map_batch(&coords, &mut batch);
                for (index, &(i, j)) in coords.iter().enumerate() {
                    assert_eq!(batch.get(index), (0, mapping.map(i, j)), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_geometries_are_rejected() {
        for field in 0..4 {
            let mut odd = ddr4();
            match field {
                0 => odd.bank_groups = 3,
                1 => odd.banks_per_group = 6,
                2 => odd.rows = 3 << 14,
                _ => odd.columns_per_row = 96,
            }
            assert!(matches!(
                OptimizedMapping::new(odd, 64),
                Err(InterleaverError::Dram(_))
            ));
        }
    }

    use std::collections::HashSet;
    use tbi_dram::{DramConfig, DramStandard};

    fn geometry(standard: DramStandard, rate: u32) -> DeviceGeometry {
        DramConfig::preset(standard, rate).unwrap().geometry
    }

    fn ddr4() -> DeviceGeometry {
        geometry(DramStandard::Ddr4, 3200)
    }

    #[test]
    fn tile_area_is_groups_times_page() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let g = geometry(*standard, *rate);
            let m = OptimizedMapping::new(g, 1024).unwrap();
            assert_eq!(
                m.tile_width() * m.tile_height(),
                g.bank_groups * g.columns_per_row,
                "{standard:?}-{rate}"
            );
            assert_eq!(m.tile_width() % g.bank_groups, 0);
        }
    }

    #[test]
    fn bank_group_advances_every_access_in_both_directions() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let g = geometry(*standard, *rate);
            if g.bank_groups == 1 {
                continue;
            }
            let m = OptimizedMapping::new(g, 512).unwrap();
            for k in 0..100u32 {
                let here = m.map(7, k).bank_group;
                let right = m.map(7, k + 1).bank_group;
                assert_eq!((here + 1) % g.bank_groups, right, "{standard:?}-{rate}");
                let down_here = m.map(k, 7).bank_group;
                let down_next = m.map(k + 1, 7).bank_group;
                assert_eq!(
                    (down_here + 1) % g.bank_groups,
                    down_next,
                    "{standard:?}-{rate}"
                );
            }
        }
    }

    #[test]
    fn consecutive_accesses_change_bank_group() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let g = geometry(*standard, *rate);
            if g.bank_groups == 1 {
                continue;
            }
            let m = OptimizedMapping::new(g, 512).unwrap();
            for k in 0..64u32 {
                assert_ne!(
                    m.map(3, k).bank_group,
                    m.map(3, k + 1).bank_group,
                    "{standard:?}-{rate} row direction"
                );
                assert_ne!(
                    m.map(k, 3).bank_group,
                    m.map(k + 1, 3).bank_group,
                    "{standard:?}-{rate} column direction"
                );
            }
        }
    }

    #[test]
    fn row_wise_sweep_reuses_one_page_per_bank_within_a_tile() {
        let g = ddr4();
        let m = OptimizedMapping::without_stagger(g, 512).unwrap();
        // Walk one index-space row across one tile; every flat bank touched
        // must stay within a single DRAM row (no page miss inside a tile).
        let mut rows_per_bank: Vec<HashSet<u32>> = vec![HashSet::new(); g.total_banks() as usize];
        for j in 0..m.tile_width() {
            let addr = m.map(0, j);
            rows_per_bank[addr.flat_bank(&g) as usize].insert(addr.row);
        }
        for (bank, rows) in rows_per_bank.iter().enumerate() {
            assert!(rows.len() <= 1, "bank {bank} touched {} rows", rows.len());
        }
    }

    #[test]
    fn column_wise_sweep_reuses_one_page_per_bank_within_a_tile() {
        let g = ddr4();
        let m = OptimizedMapping::without_stagger(g, 512).unwrap();
        let mut rows_per_bank: Vec<HashSet<u32>> = vec![HashSet::new(); g.total_banks() as usize];
        for i in 0..m.tile_height() {
            let addr = m.map(i, 0);
            rows_per_bank[addr.flat_bank(&g) as usize].insert(addr.row);
        }
        for (bank, rows) in rows_per_bank.iter().enumerate() {
            assert!(rows.len() <= 1, "bank {bank} touched {} rows", rows.len());
        }
    }

    #[test]
    fn each_group_page_is_filled_exactly_once_per_tile() {
        let g = ddr4();
        let m = OptimizedMapping::without_stagger(g, 512).unwrap();
        // Over a full tile, every bank group receives exactly `page` positions
        // with distinct columns, all in a single (bank, row) pair.
        let mut per_group: Vec<HashSet<(u32, u32, u32)>> =
            vec![HashSet::new(); g.bank_groups as usize];
        for i in 0..m.tile_height() {
            for j in 0..m.tile_width() {
                let addr = m.map(i, j);
                assert!(
                    per_group[addr.bank_group as usize].insert((addr.bank, addr.row, addr.column)),
                    "duplicate (bank, row, column) in group {}",
                    addr.bank_group
                );
            }
        }
        for (group, cells) in per_group.iter().enumerate() {
            assert_eq!(
                cells.len() as u32,
                g.columns_per_row,
                "group {group} page not filled exactly"
            );
            let banks_and_rows: HashSet<(u32, u32)> =
                cells.iter().map(|(b, r, _)| (*b, *r)).collect();
            assert_eq!(banks_and_rows.len(), 1, "group {group} spans several pages");
        }
    }

    #[test]
    fn activates_are_amortised_over_many_accesses_in_both_phases() {
        // Count page transitions per bank during full sweeps: every activate
        // must cover several accesses, otherwise the scheme cannot reach the
        // paper's >90 % utilization.
        let g = ddr4();
        let n = 512u32;
        let m = OptimizedMapping::new(g, n).unwrap();
        let count_transitions = |row_major: bool| -> (u64, u64) {
            let mut open_row: Vec<Option<(u32, u32)>> = vec![None; g.total_banks() as usize];
            let mut accesses = 0u64;
            let mut transitions = 0u64;
            for a in 0..n {
                for b in 0..(n - a) {
                    let (i, j) = if row_major { (a, b) } else { (b, a) };
                    let addr = m.map(i, j);
                    let bank = addr.flat_bank(&g) as usize;
                    accesses += 1;
                    if open_row[bank] != Some((addr.row, 0)) {
                        transitions += 1;
                        open_row[bank] = Some((addr.row, 0));
                    }
                }
            }
            (accesses, transitions)
        };
        for phase_row_major in [true, false] {
            let (accesses, transitions) = count_transitions(phase_row_major);
            assert!(
                accesses >= transitions * 3,
                "each activate must cover at least 3 accesses (row-major sweep: {phase_row_major}), got {accesses} accesses / {transitions} transitions"
            );
        }
    }

    #[test]
    fn stagger_spreads_page_misses_over_time() {
        let g = ddr4();
        let n = 2048u32;
        let staggered = OptimizedMapping::new(g, n).unwrap();
        let plain = OptimizedMapping::without_stagger(g, n).unwrap();
        assert!(staggered.stagger_enabled());
        assert!(!plain.stagger_enabled());

        // Walk one index-space row and record the positions j at which any
        // bank changes its open row (page-miss points).  Measure the largest
        // number of misses that fall into a window of `groups` consecutive
        // accesses: without stagger, all bank groups miss at the same tile
        // boundary; with stagger they are spread out.
        let miss_positions = |m: &OptimizedMapping| -> Vec<u32> {
            let mut open_row: Vec<Option<u32>> = vec![None; g.total_banks() as usize];
            let mut misses = Vec::new();
            for j in 0..n {
                let addr = m.map(0, j);
                let bank = addr.flat_bank(&g) as usize;
                if let Some(prev) = open_row[bank] {
                    if prev != addr.row {
                        misses.push(j);
                    }
                }
                open_row[bank] = Some(addr.row);
            }
            misses
        };
        let cluster = |misses: &[u32], window: u32| -> usize {
            misses
                .iter()
                .map(|&j| misses.iter().filter(|&&k| k >= j && k < j + window).count())
                .max()
                .unwrap_or(0)
        };
        let plain_cluster = cluster(&miss_positions(&plain), g.bank_groups);
        let staggered_cluster = cluster(&miss_positions(&staggered), g.bank_groups);
        assert!(
            staggered_cluster < plain_cluster,
            "stagger should spread misses: {staggered_cluster} vs {plain_cluster}"
        );
    }

    #[test]
    fn without_stagger_offsets_are_zero() {
        let m = OptimizedMapping::without_stagger(ddr4(), 128).unwrap();
        for group in 0..4 {
            assert_eq!(m.stagger_offset(group), (0, 0));
        }
        let m = OptimizedMapping::new(ddr4(), 128).unwrap();
        assert_ne!(m.stagger_offset(1), (0, 0));
        assert_eq!(m.stagger_offset(0), (0, 0));
    }

    #[test]
    fn names_distinguish_stagger() {
        assert_eq!(
            OptimizedMapping::new(ddr4(), 64).unwrap().name(),
            "optimized"
        );
        assert_eq!(
            OptimizedMapping::without_stagger(ddr4(), 64)
                .unwrap()
                .name(),
            "optimized-no-stagger"
        );
    }

    #[test]
    fn rejects_zero_and_oversized_dimensions() {
        assert!(OptimizedMapping::new(ddr4(), 0).is_err());
        let mut tiny = ddr4();
        tiny.rows = 16;
        assert!(matches!(
            OptimizedMapping::new(tiny, 100_000),
            Err(InterleaverError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn paper_sized_interleaver_fits_all_presets() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let g = geometry(*standard, *rate);
            let m = OptimizedMapping::new(g, 5000);
            assert!(
                m.is_ok(),
                "12.5M-element interleaver must fit {standard:?}-{rate}"
            );
        }
    }
}
