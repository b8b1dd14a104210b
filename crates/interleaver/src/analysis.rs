//! Row-buffer counts of a mapping from its address sequence alone, with no
//! timing code: the conflict model of Chavet et al. (arXiv 1002.3990)
//! applied to DRAM row buffers.  One open row per (channel, rank, bank
//! group, bank) sees the routed write order and then the read order (rows
//! stay open across the phase change); every access is a hit, an empty
//! bank or a conflict.  The counts are exact under FCFS, open page and no
//! refresh, where each controller serves its channel's requests in this
//! order.  FR-FCFS only adds hits by reordering; refresh closes rows.

use std::collections::HashMap;

use crate::{AccessPhase, ChannelMapping};

/// Row-buffer outcomes of one phase on one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowBufferCounts {
    /// Accesses to the open row of their bank.
    pub hits: u64,
    /// Accesses to a bank with no open row.
    pub empties: u64,
    /// Accesses to a bank with another row open.
    pub conflicts: u64,
}

impl RowBufferCounts {
    /// All accesses of the phase on the channel.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.activates()
    }

    /// Row activations: every access that is not a hit opens its row.
    #[must_use]
    pub fn activates(&self) -> u64 {
        self.empties + self.conflicts
    }
}

/// The write phase's and then the read phase's counts, one entry per
/// channel, in channel order.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::{analysis::row_buffer_counts, ChannelMapping, MappingKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dram = DramConfig::preset(DramStandard::Ddr4, 3200)?;
/// let [optimized, row_major] = [MappingKind::Optimized, MappingKind::RowMajor]
///     .map(|kind| ChannelMapping::new(kind, &dram, 256).map(|m| row_buffer_counts(&m)[1][0]));
/// // The optimized mapping needs far fewer activations in the read phase.
/// assert!(optimized?.activates() * 4 < row_major?.activates());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn row_buffer_counts(mapping: &ChannelMapping) -> [Vec<RowBufferCounts>; 2] {
    let n = mapping.dimension();
    let mut open_rows = HashMap::new();
    AccessPhase::ALL.map(|phase| {
        let mut counts = vec![RowBufferCounts::default(); mapping.topology().channels as usize];
        for outer in 0..n {
            for inner in 0..n - outer {
                let (i, j) = match phase {
                    AccessPhase::Write => (outer, inner),
                    AccessPhase::Read => (inner, outer),
                };
                let (channel, address) = mapping.route(i, j);
                let bank = (channel, address.rank, address.bank_group, address.bank);
                let count = &mut counts[channel as usize];
                match open_rows.insert(bank, address.row) {
                    Some(row) if row == address.row => count.hits += 1,
                    Some(_) => count.conflicts += 1,
                    None => count.empties += 1,
                }
            }
        }
        counts
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingKind;
    use crate::trace::TraceGenerator;
    use crate::triangular::TriangularInterleaver;
    use tbi_dram::{DramConfig, DramStandard, PhysicalAddress};

    fn dram() -> DramConfig {
        DramConfig::preset(DramStandard::Ddr4, 3200).unwrap()
    }

    /// The `[write, read]` counts of `kind` on the one channel of `dram`.
    fn counts(dram: &DramConfig, kind: MappingKind, n: u32) -> [RowBufferCounts; 2] {
        let mapping = ChannelMapping::new(kind, dram, n).unwrap();
        row_buffer_counts(&mapping).map(|channels| channels[0])
    }

    /// Accesses served per activation (all accesses if none activates).
    fn reuse(counts: RowBufferCounts) -> f64 {
        counts.accesses() as f64 / counts.activates().max(1) as f64
    }

    fn hit_rate(counts: RowBufferCounts) -> f64 {
        if counts.accesses() == 0 {
            0.0
        } else {
            counts.hits as f64 / counts.accesses() as f64
        }
    }

    /// The single-channel addresses of one phase of `kind`, in phase order.
    fn addresses(
        dram: &DramConfig,
        kind: MappingKind,
        n: u32,
        phase: AccessPhase,
    ) -> Vec<PhysicalAddress> {
        let mapping = kind.build(dram, n).unwrap();
        let interleaver = TriangularInterleaver::new(n).unwrap();
        TraceGenerator::new(interleaver, mapping.as_ref())
            .requests(phase)
            .map(|request| request.address)
            .collect()
    }

    /// Fraction of consecutive access pairs that switch bank group.
    fn bank_group_switch_rate(addresses: &[PhysicalAddress]) -> f64 {
        let pairs = addresses.windows(2);
        let switches = pairs.filter(|p| p[0].bank_group != p[1].bank_group);
        if addresses.len() <= 1 {
            0.0
        } else {
            switches.count() as f64 / (addresses.len() - 1) as f64
        }
    }

    /// Consecutive access pairs that target the same bank.
    fn same_bank_pairs(addresses: &[PhysicalAddress]) -> usize {
        let bank = |a: &PhysicalAddress| (a.bank_group, a.bank);
        let pairs = addresses.windows(2);
        pairs.filter(|p| bank(&p[0]) == bank(&p[1])).count()
    }

    /// Accesses of the most-loaded over the least-loaded bank (banks with
    /// no access are ignored unless all are idle).
    fn bank_imbalance(per_bank: &[u64]) -> f64 {
        let max = per_bank.iter().copied().max().unwrap_or(0);
        match per_bank.iter().copied().filter(|&c| c > 0).min() {
            Some(min) => max as f64 / min as f64,
            None if max == 0 => 1.0,
            None => f64::INFINITY,
        }
    }

    #[test]
    fn row_major_write_phase_is_activation_friendly_but_read_is_not() {
        let [write, read] = counts(&dram(), MappingKind::RowMajor, 300);
        assert_eq!(write.accesses(), read.accesses());
        assert!(reuse(write) > 20.0);
        assert!(reuse(read) < 2.0);
        assert!(hit_rate(read) < 0.2);
        assert!(hit_rate(write) > 0.9);
    }

    #[test]
    fn optimized_mapping_balances_both_phases() {
        let dram = dram();
        let [write, read] = counts(&dram, MappingKind::Optimized, 300);
        assert!(reuse(write) > 3.0);
        assert!(reuse(read) > 3.0);
        // Consecutive accesses switch bank group essentially always.
        let [write, read] =
            AccessPhase::ALL.map(|phase| addresses(&dram, MappingKind::Optimized, 300, phase));
        assert!(bank_group_switch_rate(&write) > 0.95);
        assert!(bank_group_switch_rate(&read) > 0.95);
        // And the load is spread evenly over the banks.
        let mut per_bank = vec![0; dram.geometry.total_banks() as usize];
        for address in &write {
            per_bank[address.flat_bank(&dram.geometry) as usize] += 1;
        }
        assert!(bank_imbalance(&per_bank) < 1.5);
    }

    #[test]
    fn row_major_read_phase_rarely_switches_bank_groups_compared_to_optimized() {
        let dram = dram();
        let base = addresses(&dram, MappingKind::RowMajor, 300, AccessPhase::Read);
        let opt = addresses(&dram, MappingKind::Optimized, 300, AccessPhase::Read);
        assert!(
            bank_group_switch_rate(&opt) > bank_group_switch_rate(&base),
            "optimized read sweep must switch bank groups more often: {} vs {}",
            bank_group_switch_rate(&opt),
            bank_group_switch_rate(&base)
        );
        assert!(same_bank_pairs(&opt) <= same_bank_pairs(&base));
    }

    #[test]
    fn comparison_prefers_the_optimized_mapping() {
        // The worst phase's reuse — a cheap predictor of the Table I winner.
        let dram = dram();
        let min_reuse = |kind| {
            let [write, read] = counts(&dram, kind, 256);
            reuse(write).min(reuse(read))
        };
        let optimized = min_reuse(MappingKind::Optimized);
        for kind in [MappingKind::RowMajor, MappingKind::BankRoundRobin] {
            assert!(optimized > min_reuse(kind), "{kind}");
        }
    }

    #[test]
    fn stats_helpers_handle_empty_input() {
        assert_eq!(hit_rate(RowBufferCounts::default()), 0.0);
        assert_eq!(bank_group_switch_rate(&[]), 0.0);
        assert_eq!(bank_imbalance(&[0; 4]), 1.0);
    }
}
