//! Linear-decode mappings: the row-major baseline and the searchable
//! bit-permutation family.
//!
//! A [`PermutedMapping`] turns position `(i, j)` into a linear index and
//! decodes it through a [`BitPermutation`] (and an optional [`XorFold`]):
//!
//! * the **packed** linearization ([`PermutedMapping::row_major`]) is the
//!   storage-compact triangular row-major order, decoded by a
//!   [`DecodeScheme`]'s permutation — the paper's SRAM baseline, whose
//!   linear index the controller's address decoder slices into bank, row
//!   and column;
//! * the **padded** linearization ([`PermutedMapping::new`]) places `(i, j)`
//!   at `(i << ⌈log2 n⌉) | j`.  Because it keeps the `i` and `j`
//!   coordinates in disjoint bit ranges, every permutation of the device's
//!   address bits corresponds to a concrete 2-D layout: permutations that
//!   draw the DRAM **column** bits from both the low `j` and the low `i`
//!   bits tile the index space into 2-D page rectangles (the paper's
//!   optimization 2), permutations that put **bank** bits low rotate banks
//!   per access (optimization 1).  The padded square needs
//!   `2^(⌈log2 n⌉·2)` addressable bursts (≤ 4× the dense square), which all
//!   preset devices provide for the paper's 12.5 M-element interleaver.

use tbi_dram::{
    AddressBatch, BitPermutation, ChannelTopology, DecodeScheme, DeviceGeometry,
    PermutationMapping, PhysicalAddress, XorFold,
};

use crate::mapping::{DramMapping, BATCH_CHUNK};
use crate::triangular::TriangularInterleaver;
use crate::InterleaverError;

/// Number of bits needed to index `0..n` (0 for `n == 1`).
fn index_bits(n: u32) -> u32 {
    if n <= 1 {
        0
    } else {
        32 - (n - 1).leading_zeros()
    }
}

/// How a position becomes the linear index the decoder reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Linearization {
    /// The triangle's row-major rank: a row is a run of consecutive indices.
    /// Only [`PermutedMapping::row_major`] builds it, so the decoder is a
    /// decode scheme's and `channel = linear mod C` (the channel router's
    /// stride walk relies on this).
    Packed(TriangularInterleaver),
    /// `(i << jbits) | j`: the coordinates in disjoint bit ranges.
    Padded { jbits: u32 },
}

/// A mapping that decodes a linear index of each position through a
/// [`BitPermutation`]: the row-major baseline (packed) or one point of the
/// design space explored by `tbi_exp`'s mapping search (padded).
///
/// # Examples
///
/// ```
/// use tbi_dram::{BitPermutation, ChannelTopology, DecodeScheme, DramConfig, DramStandard};
/// use tbi_interleaver::mapping::{DramMapping, PermutedMapping};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?;
/// let permutation = BitPermutation::for_scheme(
///     DecodeScheme::RowColumnBankBankGroup,
///     &config.geometry,
///     ChannelTopology::default(),
/// )?;
/// let mapping =
///     PermutedMapping::new(config.geometry, ChannelTopology::default(), permutation, 1000)?;
/// assert_eq!(mapping.dimension(), 1000);
/// // Distinct positions decode to distinct addresses (permutations are
/// // bijections of the padded index bits).
/// assert_ne!(mapping.map(0, 1), mapping.map(1, 0));
/// assert_eq!(mapping.linear_index(1, 0), 1 << 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PermutedMapping {
    geometry: DeviceGeometry,
    pub(crate) decoder: PermutationMapping,
    n: u32,
    pub(crate) linearization: Linearization,
}

impl PermutedMapping {
    /// Number of bits each coordinate occupies in the padded linearization
    /// `(i << bits) | j` for an index space of dimension `n` (0 for
    /// `n == 1`).
    ///
    /// Public so that permutation *generators* (e.g. `tbi_exp`'s mapping
    /// search) place field bits on the exact `j`/`i` boundary this mapping
    /// decodes with.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbi_interleaver::mapping::PermutedMapping;
    ///
    /// assert_eq!(PermutedMapping::index_bits(1), 0);
    /// assert_eq!(PermutedMapping::index_bits(1024), 10);
    /// assert_eq!(PermutedMapping::index_bits(5000), 13);
    /// ```
    #[must_use]
    pub fn index_bits(n: u32) -> u32 {
        index_bits(n)
    }

    /// The row-major baseline for an index space of dimension `n` on
    /// `geometry` scaled out to `topology` (capacity: every channel and rank
    /// together): the packed linear index decoded by `scheme`'s permutation
    /// ([`PermutationMapping::for_scheme`]).  The write phase is a
    /// sequential stream; the read phase jumps by about one row length per
    /// access and thrashes the row buffers, the behaviour the paper fixes.
    /// Scaled out, the channel bits sit at the very bottom of the linear
    /// index (`channel = linear mod C`) and the rank bits directly above the
    /// bank bits: the classic channel/rank-interleaved controller mapping.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::Dram`] if the topology fails
    /// [`ChannelTopology::validate`] or a geometry dimension is not a power
    /// of two, [`InterleaverError::InvalidDimension`] if `n` is zero, and
    /// [`InterleaverError::CapacityExceeded`] if the triangle does not fit.
    pub fn row_major(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        scheme: DecodeScheme,
        n: u32,
    ) -> Result<Self, InterleaverError> {
        topology.validate()?;
        let triangle = TriangularInterleaver::new(n)?;
        let available = geometry.total_bursts() * u64::from(topology.units());
        if triangle.len() > available {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: triangle.len(),
                available_bursts: available,
            });
        }
        Ok(Self {
            geometry,
            decoder: PermutationMapping::for_scheme(scheme, geometry, topology)?,
            n,
            linearization: Linearization::Packed(triangle),
        })
    }

    /// Creates the padded mapping for an index space of dimension `n` on
    /// `geometry` scaled out to `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `n` is zero,
    /// [`InterleaverError::Dram`] if the permutation does not match the
    /// subsystem's field widths, and
    /// [`InterleaverError::CapacityExceeded`] if the padded index space
    /// needs more bits than the permutation covers.
    pub fn new(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        permutation: BitPermutation,
        n: u32,
    ) -> Result<Self, InterleaverError> {
        Self::with_fold(geometry, topology, permutation, XorFold::identity(), n)
    }

    /// Creates a padded mapping whose decoded field values are rewritten by
    /// `fold` after the bit permutation — the hybrid permutation+fold family
    /// (e.g. `bank = (bank + row) mod banks`, the optimized scheme's
    /// diagonal).
    ///
    /// # Errors
    ///
    /// As [`PermutedMapping::new`], plus [`InterleaverError::Dram`] when the
    /// fold touches a zero-width field or shifts past its source.
    pub fn with_fold(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        permutation: BitPermutation,
        fold: XorFold,
        n: u32,
    ) -> Result<Self, InterleaverError> {
        if n == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "mapping dimension must be non-zero".to_string(),
            });
        }
        let decoder = PermutationMapping::with_fold(geometry, topology, permutation, fold)?;
        let jbits = index_bits(n);
        let needed = 2 * jbits;
        if needed > permutation.total_bits() {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: 1u64 << needed,
                available_bursts: 1u64 << permutation.total_bits(),
            });
        }
        Ok(Self {
            geometry,
            decoder,
            n,
            linearization: Linearization::Padded { jbits },
        })
    }

    /// The linear index of position `(i, j)`: its triangular row-major rank
    /// (packed) or `(i << ⌈log2 n⌉) | j` (padded).
    #[must_use]
    pub fn linear_index(&self, i: u32, j: u32) -> u64 {
        match self.linearization {
            Linearization::Packed(triangle) => triangle.write_rank(i, j),
            Linearization::Padded { jbits } => (u64::from(i) << jbits) | u64::from(j),
        }
    }

    /// Routes position `(i, j)` to its `(channel, address)` pair (the
    /// address's rank field selects the rank within the channel).
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if `(i, j)` lies outside the index space.
    #[must_use]
    pub fn route(&self, i: u32, j: u32) -> (u32, PhysicalAddress) {
        debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
        self.decoder.decode(self.linear_index(i, j))
    }

    /// Batched counterpart of [`PermutedMapping::route`]: appends the
    /// `(channel, address)` pair of every position in `coords`, in order, to
    /// `out`.
    ///
    /// Linear indices are staged through a stack chunk and decoded with
    /// [`PermutationMapping::decode_batch`], whose precomputed scatter plan
    /// turns the per-bit gather loop into a few shift/mask/OR passes per
    /// field — the line-rate path of the permutation design-space search.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if any position lies outside the index
    /// space.
    pub fn route_batch(&self, coords: &[(u32, u32)], out: &mut AddressBatch) {
        let mut linear = [0u64; BATCH_CHUNK];
        for chunk in coords.chunks(BATCH_CHUNK) {
            for (slot, &(i, j)) in linear.iter_mut().zip(chunk) {
                debug_assert!(i < self.n && j < self.n, "({i},{j}) outside index space");
                *slot = self.linear_index(i, j);
            }
            self.decoder.decode_batch(&linear[..chunk.len()], out);
        }
    }
}

impl DramMapping for PermutedMapping {
    /// The single-channel address of `(i, j)`; meaningful when the decoder
    /// has no channel bits (multi-channel mappings route through
    /// [`ChannelMapping`](crate::mapping::ChannelMapping) instead).
    fn map(&self, i: u32, j: u32) -> PhysicalAddress {
        self.route(i, j).1
    }

    /// Batched routing ([`PermutedMapping::route_batch`]): the channel lane
    /// holds the decoder's routed channel (0 when it has no channel bits,
    /// i.e. whenever [`DramMapping::map`] is meaningful).
    fn map_batch(&self, coords: &[(u32, u32)], out: &mut AddressBatch) {
        self.route_batch(coords, out);
    }

    fn name(&self) -> &'static str {
        match self.linearization {
            Linearization::Packed(_) => "row-major",
            Linearization::Padded { .. } if self.decoder.fold().is_identity() => "permutation",
            Linearization::Padded { .. } => "xorfold",
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
    use std::collections::HashSet;
    use tbi_dram::{DramConfig, DramStandard};

    fn ddr4() -> DeviceGeometry {
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .geometry
    }

    fn scheme_permutation(geometry: &DeviceGeometry) -> BitPermutation {
        BitPermutation::for_scheme(
            DecodeScheme::RowColumnBankBankGroup,
            geometry,
            ChannelTopology::default(),
        )
        .unwrap()
    }

    #[test]
    fn index_bits_matches_ceil_log2() {
        assert_eq!(index_bits(1), 0);
        assert_eq!(index_bits(2), 1);
        assert_eq!(index_bits(3), 2);
        assert_eq!(index_bits(1024), 10);
        assert_eq!(index_bits(1025), 11);
        assert_eq!(index_bits(5000), 13);
    }

    #[test]
    fn padded_linearization_keeps_coordinates_in_disjoint_bits() {
        let mapping = PermutedMapping::new(
            ddr4(),
            ChannelTopology::default(),
            scheme_permutation(&ddr4()),
            1000,
        )
        .unwrap();
        assert_eq!(mapping.linear_index(0, 999), 999);
        assert_eq!(mapping.linear_index(1, 0), 1 << 10);
        assert_eq!(mapping.linear_index(3, 5), (3 << 10) | 5);
    }

    #[test]
    fn mapping_is_injective_on_the_triangle() {
        let n = 300u32;
        let permutation = scheme_permutation(&ddr4());
        let mapping =
            PermutedMapping::new(ddr4(), ChannelTopology::default(), permutation, n).unwrap();
        let mut seen = HashSet::new();
        for i in 0..n {
            for j in 0..(n - i) {
                let addr = mapping.map(i, j);
                assert!(addr.is_valid_for(&ddr4()), "invalid {addr} at ({i},{j})");
                assert!(seen.insert(addr), "collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn paper_sized_index_space_fits_all_presets() {
        for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
            let geometry = DramConfig::preset(*standard, *rate).unwrap().geometry;
            let permutation = scheme_permutation(&geometry);
            let mapping =
                PermutedMapping::new(geometry, ChannelTopology::default(), permutation, 5000);
            assert!(
                mapping.is_ok(),
                "12.5 M-element padded space must fit {standard:?}-{rate}"
            );
        }
    }

    #[test]
    fn oversized_and_zero_dimensions_are_rejected() {
        let geometry = ddr4();
        let permutation = scheme_permutation(&geometry);
        assert!(matches!(
            PermutedMapping::new(geometry, ChannelTopology::default(), permutation, 0),
            Err(InterleaverError::InvalidDimension { .. })
        ));
        // 2 * ceil_log2(n) must not exceed the device's 27 address bits.
        assert!(matches!(
            PermutedMapping::new(geometry, ChannelTopology::default(), permutation, 20_000),
            Err(InterleaverError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn topology_mismatch_is_a_dram_error() {
        let geometry = ddr4();
        let permutation = scheme_permutation(&geometry);
        assert!(matches!(
            PermutedMapping::new(geometry, ChannelTopology::new(2, 1), permutation, 100),
            Err(InterleaverError::Dram(_))
        ));
    }

    fn row_major(geometry: DeviceGeometry, n: u32) -> Result<PermutedMapping, InterleaverError> {
        PermutedMapping::row_major(
            geometry,
            ChannelTopology::default(),
            DecodeScheme::default(),
            n,
        )
    }

    #[test]
    fn write_order_is_linear() {
        let m = row_major(ddr4(), 100).unwrap();
        let mut expected = 0u64;
        for i in 0..100u32 {
            for j in 0..(100 - i) {
                assert_eq!(m.linear_index(i, j), expected);
                expected += 1;
            }
        }
    }

    #[test]
    fn read_stride_is_roughly_one_row_length() {
        let m = row_major(ddr4(), 1000).unwrap();
        // Reading down column 0: consecutive linear indices differ by the row
        // length, which shrinks by one per step.
        let l0 = m.linear_index(0, 0);
        let l1 = m.linear_index(1, 0);
        let l2 = m.linear_index(2, 0);
        assert_eq!(l1 - l0, 1000);
        assert_eq!(l2 - l1, 999);
    }

    #[test]
    fn capacity_is_enforced() {
        let config = DramConfig::preset(DramStandard::Lpddr4, 2133).unwrap();
        // An absurdly large dimension cannot fit.
        let err = row_major(config.geometry, 600_000).unwrap_err();
        assert!(matches!(err, InterleaverError::CapacityExceeded { .. }));
    }

    #[test]
    fn row_major_honours_the_decode_scheme() {
        let by_scheme = PermutedMapping::row_major(
            ddr4(),
            ChannelTopology::default(),
            DecodeScheme::BankBankGroupRowColumn,
            64,
        )
        .unwrap();
        let default_scheme = row_major(ddr4(), 64).unwrap();
        assert_ne!(by_scheme.map(5, 3), default_scheme.map(5, 3));
    }

    #[test]
    fn non_power_of_two_geometries_are_rejected() {
        let mut geometry = ddr4();
        geometry.rows = 3 << 14;
        assert!(matches!(
            row_major(geometry, 64),
            Err(InterleaverError::Dram(_))
        ));
    }

    #[test]
    fn name_and_dimension() {
        let m = row_major(ddr4(), 64).unwrap();
        assert_eq!(m.name(), "row-major");
        assert_eq!(m.dimension(), 64);
    }
}
