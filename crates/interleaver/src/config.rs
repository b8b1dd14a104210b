//! Interleaver sizing helpers.

use crate::triangular::TriangularInterleaver;
use crate::InterleaverError;

/// Number of payload bits carried by one DRAM burst in all preset
/// configurations (512 bits = 64 bytes).
pub const BURST_BITS: u32 = 512;

/// Sizing of the DRAM-resident triangular interleaver stage.
///
/// The DRAM stage works at *burst* granularity: each position of its
/// triangular index space is one DRAM burst of [`BURST_BITS`] bits, filled
/// with symbols from different code words by the SRAM first stage.
///
/// # Examples
///
/// ```
/// use tbi_interleaver::InterleaverSpec;
///
/// // The paper's Table I interleaver: 12.5 M elements.
/// let spec = InterleaverSpec::paper_table1();
/// assert_eq!(spec.dimension(), 5000);
///
/// // Size from a symbol count: 3-bit LLR-quantised symbols.
/// let spec = InterleaverSpec::from_symbols(100_000_000, 3);
/// assert!(spec.burst_count() >= 100_000_000 * 3 / 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterleaverSpec {
    bursts: u64,
    dimension: u32,
}

impl InterleaverSpec {
    /// Creates a spec whose triangular index space holds at least
    /// `bursts` DRAM bursts.
    ///
    /// # Panics
    ///
    /// Panics if `bursts == 0` or
    /// `bursts > TriangularInterleaver::MAX_CAPACITY`.
    #[must_use]
    pub fn from_burst_count(bursts: u64) -> Self {
        let triangular = TriangularInterleaver::with_capacity(bursts)
            .expect("burst count must be non-zero and at most TriangularInterleaver::MAX_CAPACITY");
        Self {
            bursts,
            dimension: triangular.dimension(),
        }
    }

    /// Creates a spec sized for `symbols` symbols of `symbol_bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `symbols == 0` or `symbol_bits == 0`.
    #[must_use]
    pub fn from_symbols(symbols: u64, symbol_bits: u32) -> Self {
        assert!(
            symbols > 0 && symbol_bits > 0,
            "symbols and symbol_bits must be non-zero"
        );
        let bits = symbols * u64::from(symbol_bits);
        let bursts = bits.div_ceil(u64::from(BURST_BITS));
        Self::from_burst_count(bursts.max(1))
    }

    /// The 12.5 M-element interleaver evaluated in the paper's Table I.
    #[must_use]
    pub fn paper_table1() -> Self {
        Self::from_burst_count(12_500_000)
    }

    /// Requested number of bursts (the triangle may hold slightly more).
    #[must_use]
    pub fn burst_count(&self) -> u64 {
        self.bursts
    }

    /// Dimension `n` of the triangular index space.
    #[must_use]
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// The triangular interleaver for this spec.
    #[must_use]
    pub fn triangular(&self) -> TriangularInterleaver {
        TriangularInterleaver::new(self.dimension).expect("dimension is validated at construction")
    }

    /// Total number of positions of the triangular index space
    /// (`>= burst_count`).
    #[must_use]
    pub fn total_positions(&self) -> u64 {
        self.triangular().len()
    }

    /// Interleaver storage requirement in bytes (positions × burst size).
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        self.total_positions() * u64::from(BURST_BITS / 8)
    }

    /// The time in milliseconds a symbol stays inside the interleaver when the
    /// link sustains `data_rate_gbps`, i.e. the interleaver fill time.
    ///
    /// The paper notes refresh may be disabled when this lifetime stays below
    /// the DRAM refresh period (32–64 ms).
    #[must_use]
    pub fn fill_time_ms(&self, data_rate_gbps: f64) -> f64 {
        let bits = self.total_positions() as f64 * f64::from(BURST_BITS);
        bits / (data_rate_gbps * 1e9) * 1e3
    }

    /// Checks that the index space fits into a device with `available_bursts`
    /// addressable bursts.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::CapacityExceeded`] if it does not fit.
    pub fn check_capacity(&self, available_bursts: u64) -> Result<(), InterleaverError> {
        let required = self.total_positions();
        if required > available_bursts {
            return Err(InterleaverError::CapacityExceeded {
                required_bursts: required,
                available_bursts,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_table1() {
        let spec = InterleaverSpec::paper_table1();
        assert_eq!(spec.burst_count(), 12_500_000);
        assert_eq!(spec.dimension(), 5000);
        assert!(spec.total_positions() >= 12_500_000);
        // 12.5 M bursts of 64 B = 800 MB of interleaver storage.
        assert!(spec.storage_bytes() >= 800_000_000);
    }

    #[test]
    fn from_symbols_rounds_up_to_bursts() {
        let spec = InterleaverSpec::from_symbols(1000, 3);
        // 3000 bits -> 6 bursts.
        assert!(spec.burst_count() >= 6);
        assert!(spec.total_positions() >= spec.burst_count());
    }

    #[test]
    fn fill_time_scales_inversely_with_rate() {
        let spec = InterleaverSpec::paper_table1();
        let at_100g = spec.fill_time_ms(100.0);
        let at_200g = spec.fill_time_ms(200.0);
        assert!(at_100g > at_200g);
        // 12.5 M * 512 bit = 6.4 Gbit -> 64 ms at 100 Gbit/s.
        assert!((at_100g - 64.0).abs() < 1.0);
    }

    #[test]
    fn capacity_check() {
        let spec = InterleaverSpec::from_burst_count(1000);
        assert!(spec.check_capacity(10_000).is_ok());
        let err = spec.check_capacity(10).unwrap_err();
        assert!(matches!(err, InterleaverError::CapacityExceeded { .. }));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_burst_count_panics() {
        let _ = InterleaverSpec::from_burst_count(0);
    }
}
