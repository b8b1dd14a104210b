//! The row-major baseline mapping.

use tbi_dram::{
    AddressBatch, ChannelTopology, DecodeScheme, DeviceGeometry, DramConfig, PermutationMapping,
    PhysicalAddress,
};

use crate::mapping::{DramMapping, BATCH_CHUNK};
use crate::triangular::TriangularInterleaver;
use crate::InterleaverError;

/// The baseline mapping used by SRAM implementations: positions are stored in
/// storage-compact row-major order (row 0 first, then row 1, ...) and the
/// resulting *linear* burst index is decoded into bank/row/column by the
/// memory controller's regular address decoder (the [`DecodeScheme`]'s
/// bit permutation, [`PermutationMapping::for_scheme`]).
///
/// The write phase therefore produces a perfectly sequential DRAM access
/// stream, while the column-wise read phase jumps by roughly one row length
/// per access and thrashes the row buffers — exactly the behaviour the paper
/// sets out to fix.
///
/// Scaled out to a [`ChannelTopology`], the decoder is the classic
/// channel/rank-interleaved controller mapping: the channel bits sit at the
/// very bottom of the linear index (`channel = linear mod C`) and the rank
/// bits directly above the bank bits (see [`RowMajorMapping::route`]).
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::mapping::{DramMapping, RowMajorMapping};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?;
/// // Like every other mapping scheme, the constructor takes the device
/// // geometry; the decode scheme defaults to the standard controller
/// // mapping (use `with_scheme` to model a different controller).
/// let mapping = RowMajorMapping::new(config.geometry, 1000)?;
/// // Consecutive positions of one row are consecutive bursts.
/// let a = mapping.map(0, 0);
/// let b = mapping.map(0, 1);
/// assert_ne!(a, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RowMajorMapping {
    geometry: DeviceGeometry,
    decoder: PermutationMapping,
    interleaver: TriangularInterleaver,
}

impl RowMajorMapping {
    /// Creates the single-channel baseline mapping for an index space of
    /// dimension `n` on the given device geometry, decoded with the default
    /// [`DecodeScheme`] (the convention assumed for the paper's baseline).
    ///
    /// The signature is deliberately identical to the other mapping
    /// constructors (geometry + dimension); use
    /// [`RowMajorMapping::with_scheme`] to model a controller with a
    /// different address-decode scheme or topology.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError`] if `n` is zero, the index space exceeds
    /// the device capacity or a geometry dimension is not a power of two.
    pub fn new(geometry: DeviceGeometry, n: u32) -> Result<Self, InterleaverError> {
        Self::with_scheme(
            geometry,
            ChannelTopology::default(),
            DecodeScheme::default(),
            n,
        )
    }

    /// Creates the baseline mapping with an explicit address-decode scheme,
    /// scaled out to `topology`: the capacity is that of every channel and
    /// rank together.
    ///
    /// # Errors
    ///
    /// As [`RowMajorMapping::new`], plus [`InterleaverError::Dram`] if the
    /// topology fails [`ChannelTopology::validate`].
    pub fn with_scheme(
        geometry: DeviceGeometry,
        topology: ChannelTopology,
        scheme: DecodeScheme,
        n: u32,
    ) -> Result<Self, InterleaverError> {
        topology.validate()?;
        let interleaver = TriangularInterleaver::new(n)?;
        let available = geometry.total_bursts() * u64::from(topology.units());
        if interleaver.len() > available {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: interleaver.len(),
                available_bursts: available,
            });
        }
        Ok(Self {
            geometry,
            decoder: PermutationMapping::for_scheme(scheme, geometry, topology)?,
            interleaver,
        })
    }

    /// Creates the baseline mapping for a full DRAM configuration, honouring
    /// the configuration's decode scheme and topology.
    ///
    /// # Errors
    ///
    /// See [`RowMajorMapping::with_scheme`].
    pub fn for_config(config: &DramConfig, n: u32) -> Result<Self, InterleaverError> {
        Self::with_scheme(config.geometry, config.topology, config.decode_scheme, n)
    }

    /// The linear burst index of position `(i, j)` (compact triangular
    /// row-major layout).
    #[must_use]
    pub fn linear_index(&self, i: u32, j: u32) -> u64 {
        self.interleaver.write_rank(i, j)
    }

    /// Routes position `(i, j)` to its `(channel, address)` pair (the
    /// address's rank field selects the rank within the channel).
    #[must_use]
    pub fn route(&self, i: u32, j: u32) -> (u32, PhysicalAddress) {
        self.decoder.decode(self.linear_index(i, j))
    }

    /// The linear-address decoder (the decode scheme's permutation).
    pub(crate) fn decoder(&self) -> &PermutationMapping {
        &self.decoder
    }
}

impl DramMapping for RowMajorMapping {
    fn map(&self, i: u32, j: u32) -> PhysicalAddress {
        self.route(i, j).1
    }

    /// Batched baseline mapping: stages linear burst indices through a stack
    /// chunk and decodes whole slices with
    /// [`PermutationMapping::decode_batch`].  The channel lane holds the
    /// routed channel ([`RowMajorMapping::route`]).
    fn map_batch(&self, coords: &[(u32, u32)], out: &mut AddressBatch) {
        let mut linear = [0u64; BATCH_CHUNK];
        for chunk in coords.chunks(BATCH_CHUNK) {
            for (slot, &(i, j)) in linear.iter_mut().zip(chunk) {
                *slot = self.linear_index(i, j);
            }
            self.decoder.decode_batch(&linear[..chunk.len()], out);
        }
    }

    fn name(&self) -> &'static str {
        "row-major"
    }

    fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    fn dimension(&self) -> u32 {
        self.interleaver.dimension()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_dram::DramStandard;

    fn mapping(n: u32) -> RowMajorMapping {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        RowMajorMapping::new(config.geometry, n).unwrap()
    }

    #[test]
    fn write_order_is_linear() {
        let m = mapping(100);
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
        let m = mapping(1000);
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
        let err = RowMajorMapping::new(config.geometry, 600_000).unwrap_err();
        assert!(matches!(err, InterleaverError::CapacityExceeded { .. }));
    }

    #[test]
    fn for_config_honours_the_config_decode_scheme() {
        let mut config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        config.decode_scheme = tbi_dram::DecodeScheme::BankBankGroupRowColumn;
        let by_config = RowMajorMapping::for_config(&config, 64).unwrap();
        let by_scheme = RowMajorMapping::with_scheme(
            config.geometry,
            ChannelTopology::default(),
            config.decode_scheme,
            64,
        )
        .unwrap();
        let default_scheme = RowMajorMapping::new(config.geometry, 64).unwrap();
        assert_eq!(by_config.map(5, 3), by_scheme.map(5, 3));
        assert_ne!(by_config.map(5, 3), default_scheme.map(5, 3));
    }

    #[test]
    fn non_power_of_two_geometries_are_rejected() {
        let mut geometry = DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .geometry;
        geometry.rows = 3 << 14;
        assert!(matches!(
            RowMajorMapping::new(geometry, 64),
            Err(InterleaverError::Dram(_))
        ));
    }

    #[test]
    fn name_and_dimension() {
        let m = mapping(64);
        assert_eq!(m.name(), "row-major");
        assert_eq!(m.dimension(), 64);
    }
}
