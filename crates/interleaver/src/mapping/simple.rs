//! Bank round-robin alone (optimization 1, Fig. 1a), used for ablations.

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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn zero_dimension_is_rejected() {
        assert!(BankRoundRobinMapping::new(geometry(), 0).is_err());
    }

    #[test]
    fn oversized_index_space_is_rejected() {
        let mut g = geometry();
        g.rows = 64; // shrink the device
        assert!(BankRoundRobinMapping::new(g, 100_000).is_err());
    }
}
