//! The two-stage interleaver: SRAM block stage plus DRAM triangular stage.
//!
//! A single DRAM burst (512 bits) carries many symbols (e.g. 170 three-bit
//! LLR values), far more than one code word should contribute to a burst if
//! burst losses are to remain correctable.  The paper therefore splits
//! interleaving into two stages:
//!
//! 1. a small **SRAM block interleaver** rearranges symbols so that the
//!    symbols inside one DRAM burst belong to different code words, and
//! 2. the large **triangular DRAM interleaver** permutes whole bursts.
//!
//! This module composes the two stages into a single symbol-level permutation
//! so that the end-to-end behaviour can be verified and used by the
//! `tbi-satcom` link simulation.

use crate::block::BlockInterleaver;
use crate::triangular::TriangularInterleaver;
use crate::InterleaverError;

/// A two-stage (SRAM + DRAM) interleaver operating on symbols.
///
/// # Examples
///
/// ```
/// use tbi_interleaver::TwoStageInterleaver;
///
/// # fn main() -> Result<(), tbi_interleaver::InterleaverError> {
/// // 4 symbols per burst, 8 code words per SRAM block, triangular dimension 15.
/// let il = TwoStageInterleaver::new(15, 8, 4)?;
/// let data: Vec<u32> = (0..il.symbol_count() as u32).collect();
/// let tx = il.interleave(&data)?;
/// assert_eq!(il.deinterleave(&tx)?, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoStageInterleaver {
    sram: BlockInterleaver,
    dram: TriangularInterleaver,
    symbols_per_burst: u32,
}

impl TwoStageInterleaver {
    /// Creates a two-stage interleaver.
    ///
    /// * `dram_dimension` — dimension of the triangular (burst-level) stage;
    /// * `codewords_per_block` — number of code words interleaved by the SRAM
    ///   stage (must be a multiple of `symbols_per_burst` so that every burst
    ///   carries symbols from distinct code words);
    /// * `symbols_per_burst` — how many symbols fit into one DRAM burst.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if any parameter is
    /// zero, if `codewords_per_block` is not a multiple of
    /// `symbols_per_burst`, or if the burst-level stage does not evenly cover
    /// the SRAM blocks.
    pub fn new(
        dram_dimension: u32,
        codewords_per_block: u32,
        symbols_per_burst: u32,
    ) -> Result<Self, InterleaverError> {
        if symbols_per_burst == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "symbols_per_burst must be non-zero".to_string(),
            });
        }
        if codewords_per_block == 0 || codewords_per_block % symbols_per_burst != 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: format!(
                    "codewords_per_block ({codewords_per_block}) must be a non-zero multiple of symbols_per_burst ({symbols_per_burst})"
                ),
            });
        }
        let sram = BlockInterleaver::for_burst_spreading(codewords_per_block, symbols_per_burst)?;
        let dram = TriangularInterleaver::new(dram_dimension)?;
        let total_symbols = dram.len() * u64::from(symbols_per_burst);
        if total_symbols % sram.len() as u64 != 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: format!(
                    "total symbol count {total_symbols} is not a multiple of the SRAM block size {}",
                    sram.len()
                ),
            });
        }
        Ok(Self {
            sram,
            dram,
            symbols_per_burst,
        })
    }

    /// The SRAM first stage.
    #[must_use]
    pub fn sram_stage(&self) -> BlockInterleaver {
        self.sram
    }

    /// Number of symbols carried by one DRAM burst.
    #[must_use]
    pub fn symbols_per_burst(&self) -> u32 {
        self.symbols_per_burst
    }

    /// Total number of symbols processed per interleaver fill.
    #[must_use]
    pub fn symbol_count(&self) -> u64 {
        self.dram.len() * u64::from(self.symbols_per_burst)
    }

    /// Interleaves `data` through both stages.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `data.len()` does not
    /// equal [`symbol_count`](Self::symbol_count).
    pub fn interleave<T: Clone>(&self, data: &[T]) -> Result<Vec<T>, InterleaverError> {
        self.check_len(data.len())?;
        // Stage 1: SRAM block interleaving of consecutive chunks.
        let mut spread = Vec::with_capacity(data.len());
        for chunk in data.chunks(self.sram.len()) {
            spread.extend(self.sram.interleave(chunk)?);
        }
        // Stage 2: burst-level triangular interleaving.
        let bursts: Vec<&[T]> = spread.chunks(self.symbols_per_burst as usize).collect();
        let permuted = self.dram.interleave(&bursts)?;
        Ok(permuted.into_iter().flatten().cloned().collect())
    }

    /// Reverses [`interleave`](Self::interleave).
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `data.len()` does not
    /// equal [`symbol_count`](Self::symbol_count).
    pub fn deinterleave<T: Clone>(&self, data: &[T]) -> Result<Vec<T>, InterleaverError> {
        self.check_len(data.len())?;
        // Undo stage 2.
        let bursts: Vec<&[T]> = data.chunks(self.symbols_per_burst as usize).collect();
        let restored_bursts = self.dram.deinterleave(&bursts)?;
        let spread: Vec<T> = restored_bursts.into_iter().flatten().cloned().collect();
        // Undo stage 1.
        let mut out = Vec::with_capacity(spread.len());
        for chunk in spread.chunks(self.sram.len()) {
            out.extend(self.sram.deinterleave(chunk)?);
        }
        Ok(out)
    }

    fn check_len(&self, len: usize) -> Result<(), InterleaverError> {
        if len as u64 != self.symbol_count() {
            return Err(InterleaverError::InvalidDimension {
                reason: format!("expected {} symbols, got {len}", self.symbol_count()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_parameters() {
        assert!(TwoStageInterleaver::new(7, 8, 0).is_err());
        assert!(TwoStageInterleaver::new(7, 0, 4).is_err());
        // codewords not a multiple of symbols per burst
        assert!(TwoStageInterleaver::new(7, 6, 4).is_err());
        // burst count not a multiple of the SRAM block's code word count
        assert!(TwoStageInterleaver::new(7, 8, 4).is_err());
    }

    #[test]
    fn round_trip() {
        let il = TwoStageInterleaver::new(7, 4, 4).unwrap();
        let data: Vec<u32> = (0..il.symbol_count() as u32).collect();
        let tx = il.interleave(&data).unwrap();
        assert_eq!(il.deinterleave(&tx).unwrap(), data);
        // It must actually permute something.
        assert_ne!(tx, data);
    }

    #[test]
    fn bursts_carry_distinct_codewords_after_stage_one() {
        // Tag symbols with their code word index inside each SRAM block and
        // verify every burst carries distinct tags.
        let symbols_per_burst = 4u32;
        let codewords = 8u32;
        let il = TwoStageInterleaver::new(15, codewords, symbols_per_burst).unwrap();
        let block = il.sram_stage().len() as u32;
        let data: Vec<u32> = (0..il.symbol_count() as u32)
            .map(|i| (i % block) / symbols_per_burst)
            .collect();
        let tx = il.interleave(&data).unwrap();
        for burst in tx.chunks(symbols_per_burst as usize) {
            let mut tags = burst.to_vec();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(
                tags.len(),
                symbols_per_burst as usize,
                "burst carries repeated code words: {burst:?}"
            );
        }
    }

    #[test]
    fn wrong_length_is_rejected() {
        let il = TwoStageInterleaver::new(3, 2, 2).unwrap();
        assert!(il.interleave(&[1u8, 2, 3]).is_err());
        assert!(il.deinterleave(&[1u8]).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn round_trip_random_parameters(dim in 2u32..12, spb in 1u32..5, factor in 1u32..4) {
            let codewords = spb * factor;
            let il = match TwoStageInterleaver::new(dim, codewords, spb) {
                Ok(il) => il,
                Err(_) => return Ok(()), // divisibility not satisfied; skip
            };
            let data: Vec<u64> = (0..il.symbol_count()).collect();
            let tx = il.interleave(&data).unwrap();
            let mut sorted = tx.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, data.clone());
            prop_assert_eq!(il.deinterleave(&tx).unwrap(), data);
        }
    }
}
