//! Physical DRAM addresses and the linear-address decode schemes.
//!
//! A [`PhysicalAddress`] names one burst-aligned location: (bank group, bank,
//! row, column).  The interleaver's *optimized* mapping produces physical
//! addresses directly; the *row-major* baseline produces linear burst indices
//! that a conventional memory controller slices into fields in the order a
//! [`DecodeScheme`] names.  Every dimension is a power of two, so that
//! slicing is a bit permutation, and
//! [`PermutationMapping::for_scheme`](crate::PermutationMapping::for_scheme)
//! is the decoder.

use crate::geometry::DeviceGeometry;

/// A burst-granular physical DRAM address within one channel.
///
/// `column` counts bursts within the row (not individual beats), matching the
/// granularity used throughout the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct PhysicalAddress {
    /// Rank index within the channel (0 on single-rank channels).
    pub rank: u32,
    /// Bank group index (0 for standards without bank groups).
    pub bank_group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
    /// Row (page) index within the bank.
    pub row: u32,
    /// Burst-aligned column index within the row.
    pub column: u32,
}

impl PhysicalAddress {
    /// Creates a new rank-0 physical address (use
    /// [`PhysicalAddress::with_rank`] to target another rank).
    #[must_use]
    pub fn new(bank_group: u32, bank: u32, row: u32, column: u32) -> Self {
        Self {
            rank: 0,
            bank_group,
            bank,
            row,
            column,
        }
    }

    /// Returns this address moved to `rank`.
    #[must_use]
    pub fn with_rank(mut self, rank: u32) -> Self {
        self.rank = rank;
        self
    }

    /// Flat bank identifier combining rank, bank group and bank
    /// (`(rank * bank_groups + bank_group) * banks_per_group + bank`); on
    /// rank 0 this is the classic `bank_group * banks_per_group + bank`.
    #[must_use]
    pub fn flat_bank(&self, geometry: &DeviceGeometry) -> u32 {
        (self.rank * geometry.bank_groups + self.bank_group) * geometry.banks_per_group + self.bank
    }

    /// Checks that every component is within the bounds of one rank of
    /// `geometry` (the rank index itself is checked against the topology by
    /// [`PhysicalAddress::is_valid_for_ranks`]).
    #[must_use]
    pub fn is_valid_for(&self, geometry: &DeviceGeometry) -> bool {
        self.bank_group < geometry.bank_groups
            && self.bank < geometry.banks_per_group
            && self.row < geometry.rows
            && self.column < geometry.columns_per_row
    }

    /// Checks validity against `geometry` replicated over `ranks` ranks.
    #[must_use]
    pub fn is_valid_for_ranks(&self, geometry: &DeviceGeometry, ranks: u32) -> bool {
        self.rank < ranks && self.is_valid_for(geometry)
    }
}

impl std::fmt::Display for PhysicalAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.rank != 0 {
            write!(f, "K{} ", self.rank)?;
        }
        write!(
            f,
            "BG{} B{} R{} C{}",
            self.bank_group, self.bank, self.row, self.column
        )
    }
}

/// Bit-slicing order used to decode a linear burst index into a
/// [`PhysicalAddress`], listed from most-significant to least-significant
/// field.
///
/// The scheme names follow the usual controller convention: the right-most
/// field changes fastest under a sequential access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecodeScheme {
    /// `row | bank | bank group | column`: an open-page friendly mapping in
    /// which sequential bursts stream through one row of one bank before
    /// moving to the next bank.
    RowBankBankGroupColumn,
    /// `row | column | bank | bank group`: a bank-interleaved mapping in
    /// which sequential bursts rotate through all banks (bank group fastest),
    /// hiding activates and precharges behind transfers on other banks.  This
    /// is the default and corresponds to the baseline controller mapping
    /// assumed for the paper's "row-major" columns.
    #[default]
    RowColumnBankBankGroup,
    /// `bank | bank group | row | column`: a bank-partitioned mapping where
    /// each bank owns a contiguous slice of the linear space.
    BankBankGroupRowColumn,
}

impl DecodeScheme {
    /// All decode schemes, useful for parameter sweeps.
    pub const ALL: [DecodeScheme; 3] = [
        DecodeScheme::RowBankBankGroupColumn,
        DecodeScheme::RowColumnBankBankGroup,
        DecodeScheme::BankBankGroupRowColumn,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ChannelTopology;
    use crate::permutation::PermutationMapping;
    use proptest::prelude::*;

    fn geometry() -> DeviceGeometry {
        DeviceGeometry {
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 10,
            columns_per_row: 128,
            burst_length: 8,
            bus_width_bits: 64,
        }
    }

    /// The one-channel decoder of `scheme` over `ranks` ranks of
    /// [`geometry`].
    fn decoder(scheme: DecodeScheme, ranks: u32) -> PermutationMapping {
        PermutationMapping::for_scheme(scheme, geometry(), ChannelTopology::new(1, ranks)).unwrap()
    }

    fn decode(decoder: &PermutationMapping, linear: u64) -> PhysicalAddress {
        let (channel, address) = decoder.decode(linear);
        assert_eq!(channel, 0, "one-channel decoders have no channel bits");
        address
    }

    /// The scheme's layout as mixed-radix arithmetic, fields listed from
    /// most to least significant: the generic form of the bit slicing.
    fn mixed_radix(scheme: DecodeScheme, ranks: u32, address: PhysicalAddress) -> u64 {
        let g = geometry();
        let (cols, bgs, banks, rows, ranks) = (
            u64::from(g.columns_per_row),
            u64::from(g.bank_groups),
            u64::from(g.banks_per_group),
            u64::from(g.rows),
            u64::from(ranks),
        );
        let (k, bg, b, r, c) = (
            u64::from(address.rank),
            u64::from(address.bank_group),
            u64::from(address.bank),
            u64::from(address.row),
            u64::from(address.column),
        );
        match scheme {
            DecodeScheme::RowBankBankGroupColumn => {
                (((r * ranks + k) * banks + b) * bgs + bg) * cols + c
            }
            DecodeScheme::RowColumnBankBankGroup => {
                (((r * cols + c) * ranks + k) * banks + b) * bgs + bg
            }
            DecodeScheme::BankBankGroupRowColumn => {
                (((k * banks + b) * bgs + bg) * rows + r) * cols + c
            }
        }
    }

    #[test]
    fn multi_rank_decode_round_trips_and_matches_generic() {
        for scheme in DecodeScheme::ALL {
            for ranks in [2u32, 4] {
                let d = decoder(scheme, ranks);
                for burst in (0..5_000u64).chain((1 << 21)..((1 << 21) + 512)) {
                    let addr = decode(&d, burst);
                    assert!(addr.is_valid_for_ranks(&geometry(), ranks));
                    assert_eq!(
                        mixed_radix(scheme, ranks, addr),
                        burst,
                        "{scheme:?} ranks={ranks}"
                    );
                    assert_eq!(d.encode(0, addr), burst, "{scheme:?} ranks={ranks}");
                }
            }
        }
    }

    #[test]
    fn default_scheme_rotates_all_ranks_banks_before_repeating() {
        // With rank bits directly above the bank bits, the first
        // `ranks * total_banks` bursts all land on distinct (rank, flat bank)
        // units — the classic rank-interleaved decode.
        let g = geometry();
        let d = decoder(DecodeScheme::RowColumnBankBankGroup, 2);
        let units: std::collections::HashSet<u32> =
            (0..32).map(|i| decode(&d, i).flat_bank(&g)).collect();
        assert_eq!(units.len(), 32);
    }

    #[test]
    fn rank_aware_flat_bank_and_validity() {
        let g = geometry();
        let addr = PhysicalAddress::new(2, 3, 0, 0).with_rank(1);
        assert_eq!(addr.flat_bank(&g), 16 + 2 * 4 + 3);
        assert!(addr.is_valid_for_ranks(&g, 2));
        assert!(!addr.is_valid_for_ranks(&g, 1));
        assert_eq!(addr.to_string(), "K1 BG2 B3 R0 C0");
        assert_eq!(PhysicalAddress::new(2, 3, 0, 0).to_string(), "BG2 B3 R0 C0");
    }

    #[test]
    fn display_format() {
        let a = PhysicalAddress::new(1, 2, 3, 4);
        assert_eq!(a.to_string(), "BG1 B2 R3 C4");
    }

    #[test]
    fn flat_bank_combines_group_and_bank() {
        let g = geometry();
        let a = PhysicalAddress::new(2, 3, 0, 0);
        assert_eq!(a.flat_bank(&g), 2 * 4 + 3);
    }

    #[test]
    fn validity_check() {
        let g = geometry();
        assert!(PhysicalAddress::new(3, 3, 1023, 127).is_valid_for(&g));
        assert!(!PhysicalAddress::new(4, 0, 0, 0).is_valid_for(&g));
        assert!(!PhysicalAddress::new(0, 4, 0, 0).is_valid_for(&g));
        assert!(!PhysicalAddress::new(0, 0, 1024, 0).is_valid_for(&g));
        assert!(!PhysicalAddress::new(0, 0, 0, 128).is_valid_for(&g));
    }

    #[test]
    fn sequential_bursts_rotate_banks_with_default_scheme() {
        let d = decoder(DecodeScheme::RowColumnBankBankGroup, 1);
        let a: Vec<_> = (0..16).map(|i| decode(&d, i)).collect();
        // 16 consecutive bursts must touch 16 distinct banks.
        let mut banks: Vec<_> = a.iter().map(|x| x.flat_bank(&geometry())).collect();
        banks.sort_unstable();
        banks.dedup();
        assert_eq!(banks.len(), 16);
        // and stay in the same row/column set
        assert!(a.iter().all(|x| x.row == 0 && x.column == 0));
    }

    #[test]
    fn sequential_bursts_stream_one_row_with_open_page_scheme() {
        let d = decoder(DecodeScheme::RowBankBankGroupColumn, 1);
        let a: Vec<_> = (0..128).map(|i| decode(&d, i)).collect();
        assert!(a
            .iter()
            .all(|x| x.flat_bank(&geometry()) == 0 && x.row == 0));
        assert_eq!(a.last().unwrap().column, 127);
    }

    #[test]
    fn decode_wraps_beyond_capacity() {
        let d = decoder(DecodeScheme::RowColumnBankBankGroup, 1);
        let total = geometry().total_bursts();
        assert_eq!(decode(&d, total), decode(&d, 0));
    }

    proptest! {
        #[test]
        fn encode_is_inverse_of_decode(index in 0u64..(1u64 << 21), scheme_idx in 0usize..3) {
            let d = decoder(DecodeScheme::ALL[scheme_idx], 1);
            let addr = decode(&d, index);
            prop_assert!(addr.is_valid_for(&geometry()));
            prop_assert_eq!(d.encode(0, addr), index);
        }

        #[test]
        fn decode_is_a_bijection_on_a_window(start in 0u64..(1u64 << 16)) {
            let d = decoder(DecodeScheme::RowColumnBankBankGroup, 1);
            let mut seen = std::collections::HashSet::new();
            for i in start..start + 512 {
                prop_assert!(seen.insert(decode(&d, i)), "duplicate address for index {i}");
            }
        }
    }
}
