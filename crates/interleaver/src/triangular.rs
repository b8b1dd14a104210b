//! The triangular block interleaver index space.
//!
//! A triangular block interleaver of dimension `n` stores its symbols in the
//! upper-left half of an `n × n` square: row `i` holds `n - i` symbols at
//! positions `(i, j)` with `j < n - i`.  Symbols of consecutive code words are
//! **written row-wise** and later **read column-wise**, which separates
//! originally-adjacent symbols by large, varying distances and thereby breaks
//! up channel burst errors.

use crate::InterleaverError;

/// A triangular block interleaver of dimension `n`.
///
/// The struct itself only captures the index-space arithmetic (sizes, write
/// and read orders, position/rank conversions).  Reference interleaving of
/// actual symbol slices is provided by [`TriangularInterleaver::interleave`]
/// and [`TriangularInterleaver::deinterleave`]; the DRAM-mapped data path is
/// built on top of the same index space by the [`mapping`](crate::mapping)
/// and [`trace`](crate::trace) modules.
///
/// # Examples
///
/// ```
/// use tbi_interleaver::TriangularInterleaver;
///
/// # fn main() -> Result<(), tbi_interleaver::InterleaverError> {
/// let il = TriangularInterleaver::new(4)?;
/// assert_eq!(il.len(), 10); // 4 + 3 + 2 + 1
/// let data: Vec<u32> = (0..10).collect();
/// let interleaved = il.interleave(&data)?;
/// let restored = il.deinterleave(&interleaved)?;
/// assert_eq!(restored, data);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriangularInterleaver {
    n: u32,
}

impl TriangularInterleaver {
    /// Creates a triangular interleaver of dimension `n` (the length of the
    /// first row).
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `n == 0`.
    pub fn new(n: u32) -> Result<Self, InterleaverError> {
        if n == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "triangular interleaver dimension must be at least 1".to_string(),
            });
        }
        Ok(Self { n })
    }

    /// The largest capacity a triangular interleaver can have: the
    /// dimension is a `u32`, so `n (n + 1) / 2` tops out at `n = u32::MAX`.
    pub const MAX_CAPACITY: u64 = u32::MAX as u64 * (u32::MAX as u64 + 1) / 2;

    /// Smallest triangular interleaver holding at least `elements` symbols.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `elements == 0` or
    /// `elements > `[`MAX_CAPACITY`](Self::MAX_CAPACITY) (the dimension
    /// would exceed `u32`).
    pub fn with_capacity(elements: u64) -> Result<Self, InterleaverError> {
        if elements == 0 {
            return Err(InterleaverError::InvalidDimension {
                reason: "capacity must be at least 1 element".to_string(),
            });
        }
        // Solve n(n+1)/2 >= elements in u128, where the products cannot wrap.
        let target = u128::from(elements);
        let mut n = ((2.0 * elements as f64).sqrt()).floor() as u128;
        while n * (n + 1) / 2 < target {
            n += 1;
        }
        while n > 1 && (n - 1) * n / 2 >= target {
            n -= 1;
        }
        let n = u32::try_from(n).map_err(|_| InterleaverError::InvalidDimension {
            reason: format!(
                "capacity of {elements} elements exceeds the largest triangular \
                 interleaver ({} elements)",
                Self::MAX_CAPACITY
            ),
        })?;
        Self::new(n)
    }

    /// The dimension `n` (length of the first row and of the first column).
    #[must_use]
    pub fn dimension(&self) -> u32 {
        self.n
    }

    /// Total number of positions, `n (n + 1) / 2`.
    #[must_use]
    pub fn len(&self) -> u64 {
        u64::from(self.n) * (u64::from(self.n) + 1) / 2
    }

    /// Whether the interleaver is empty (never true for a valid instance).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length of row `i` (`n - i`), or 0 if `i >= n`.
    #[must_use]
    pub fn row_len(&self, i: u32) -> u32 {
        self.n.saturating_sub(i)
    }

    /// Length of column `j` (`n - j`), or 0 if `j >= n`.
    #[must_use]
    pub fn column_len(&self, j: u32) -> u32 {
        self.n.saturating_sub(j)
    }

    /// Whether `(i, j)` is a valid position of the triangle.
    #[must_use]
    pub fn contains(&self, i: u32, j: u32) -> bool {
        i < self.n && j < self.row_len(i)
    }

    /// The rank of position `(i, j)` in **write order** (row-wise), i.e. the
    /// index of the symbol that is stored there.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the triangle.
    #[must_use]
    pub fn write_rank(&self, i: u32, j: u32) -> u64 {
        assert!(self.contains(i, j), "position ({i}, {j}) outside triangle");
        let n = u64::from(self.n);
        let i64 = u64::from(i);
        // Elements in rows 0..i: sum_{k=0}^{i-1} (n - k) = i*n - i(i-1)/2
        i64 * n - i64 * (i64.saturating_sub(1)) / 2 + u64::from(j)
    }

    /// The rank of position `(i, j)` in **read order** (column-wise).
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is outside the triangle.
    #[must_use]
    pub fn read_rank(&self, i: u32, j: u32) -> u64 {
        assert!(self.contains(i, j), "position ({i}, {j}) outside triangle");
        let n = u64::from(self.n);
        let j64 = u64::from(j);
        // Elements in columns 0..j: sum_{k=0}^{j-1} (n - k)
        j64 * n - j64 * (j64.saturating_sub(1)) / 2 + u64::from(i)
    }

    /// The position written by the `rank`-th input symbol (inverse of
    /// [`write_rank`](Self::write_rank)).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    #[must_use]
    pub fn write_position(&self, rank: u64) -> (u32, u32) {
        assert!(rank < self.len(), "rank {rank} out of range");
        // Find the row by walking; rows shrink so use the quadratic formula as
        // a starting guess and correct locally.
        let n = u64::from(self.n);
        let mut i = self.guess_row(rank, n);
        loop {
            let start = i * n - i * i.saturating_sub(1) / 2;
            let len = n - i;
            if rank < start {
                i -= 1;
            } else if rank >= start + len {
                i += 1;
            } else {
                return (i as u32, (rank - start) as u32);
            }
        }
    }

    /// The position read at output `rank` (inverse of
    /// [`read_rank`](Self::read_rank)).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.len()`.
    #[must_use]
    pub fn read_position(&self, rank: u64) -> (u32, u32) {
        assert!(rank < self.len(), "rank {rank} out of range");
        let n = u64::from(self.n);
        let mut j = self.guess_row(rank, n);
        loop {
            let start = j * n - j * j.saturating_sub(1) / 2;
            let len = n - j;
            if rank < start {
                j -= 1;
            } else if rank >= start + len {
                j += 1;
            } else {
                return ((rank - start) as u32, j as u32);
            }
        }
    }

    fn guess_row(&self, rank: u64, n: u64) -> u64 {
        // Solve i*n - i(i-1)/2 <= rank for i (approximately).
        let nf = n as f64;
        let r = rank as f64;
        let disc = (nf + 0.5) * (nf + 0.5) - 2.0 * r;
        let guess = if disc <= 0.0 {
            n - 1
        } else {
            ((nf + 0.5) - disc.sqrt()).floor() as u64
        };
        guess.min(n - 1)
    }

    /// Iterator over all positions in write (row-wise) order.
    pub fn write_order(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let n = self.n;
        (0..n).flat_map(move |i| (0..n - i).map(move |j| (i, j)))
    }

    /// Iterator over all positions in read (column-wise) order.
    pub fn read_order(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let n = self.n;
        (0..n).flat_map(move |j| (0..n - j).map(move |i| (i, j)))
    }

    /// Interleaves `data`: symbols are written row-wise and read column-wise.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `data.len()` does not
    /// equal [`len`](Self::len).
    pub fn interleave<T: Clone>(&self, data: &[T]) -> Result<Vec<T>, InterleaverError> {
        self.check_len(data.len())?;
        let mut out = Vec::with_capacity(data.len());
        for (i, j) in self.read_order() {
            out.push(data[self.write_rank(i, j) as usize].clone());
        }
        Ok(out)
    }

    /// Reverses [`interleave`](Self::interleave).
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::InvalidDimension`] if `data.len()` does not
    /// equal [`len`](Self::len).
    pub fn deinterleave<T: Clone>(&self, data: &[T]) -> Result<Vec<T>, InterleaverError> {
        self.check_len(data.len())?;
        let mut out = vec![None; data.len()];
        for (rank, (i, j)) in self.read_order().enumerate() {
            out[self.write_rank(i, j) as usize] = Some(data[rank].clone());
        }
        Ok(out.into_iter().map(|x| x.expect("bijective")).collect())
    }

    /// The minimum output separation between two symbols that were adjacent at
    /// the input, considering the first `probe` symbols (or all if `None`).
    ///
    /// This is the property that gives the interleaver its burst-error
    /// resilience: adjacent input symbols end up far apart in the transmitted
    /// stream.
    #[must_use]
    pub fn min_adjacent_separation(&self, probe: Option<u64>) -> u64 {
        let limit = probe.unwrap_or(self.len()).min(self.len());
        let mut min_sep = u64::MAX;
        let mut prev_read: Option<u64> = None;
        for rank in 0..limit {
            let (i, j) = self.write_position(rank);
            let read = self.read_rank(i, j);
            if let Some(prev) = prev_read {
                let sep = prev.abs_diff(read);
                min_sep = min_sep.min(sep);
            }
            prev_read = Some(read);
        }
        if min_sep == u64::MAX {
            0
        } else {
            min_sep
        }
    }

    fn check_len(&self, len: usize) -> Result<(), InterleaverError> {
        if len as u64 != self.len() {
            return Err(InterleaverError::InvalidDimension {
                reason: format!("expected {} symbols, got {len}", self.len()),
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
    fn rejects_zero_dimension() {
        assert!(TriangularInterleaver::new(0).is_err());
        assert!(TriangularInterleaver::with_capacity(0).is_err());
    }

    #[test]
    fn len_is_triangular_number() {
        for n in 1..50u32 {
            let il = TriangularInterleaver::new(n).unwrap();
            assert_eq!(il.len(), u64::from(n) * u64::from(n + 1) / 2);
            assert!(!il.is_empty());
        }
    }

    #[test]
    fn with_capacity_is_tight() {
        for elements in [1u64, 2, 3, 10, 11, 100, 5050, 5051, 12_500_000] {
            let il = TriangularInterleaver::with_capacity(elements).unwrap();
            assert!(il.len() >= elements, "{elements}");
            if il.dimension() > 1 {
                let smaller = TriangularInterleaver::new(il.dimension() - 1).unwrap();
                assert!(smaller.len() < elements, "{elements}");
            }
        }
    }

    #[test]
    fn with_capacity_rejects_dimensions_beyond_u32() {
        // Largest valid capacity: exactly the u32::MAX triangle.
        let largest =
            TriangularInterleaver::with_capacity(TriangularInterleaver::MAX_CAPACITY).unwrap();
        assert_eq!(largest.dimension(), u32::MAX);
        assert_eq!(largest.len(), TriangularInterleaver::MAX_CAPACITY);
        assert_eq!(
            TriangularInterleaver::with_capacity(9_223_372_030_000_000_000)
                .unwrap()
                .dimension(),
            4_294_967_294
        );
        for elements in [TriangularInterleaver::MAX_CAPACITY + 1, u64::MAX] {
            let err = TriangularInterleaver::with_capacity(elements).unwrap_err();
            assert!(
                err.to_string().contains("exceeds the largest"),
                "{elements}: {err}"
            );
        }
    }

    #[test]
    fn paper_size_has_dimension_5000() {
        // 12.5 M elements as in the paper's Table I.
        let il = TriangularInterleaver::with_capacity(12_500_000).unwrap();
        assert_eq!(il.dimension(), 5000);
    }

    #[test]
    fn row_and_column_lengths() {
        let il = TriangularInterleaver::new(5).unwrap();
        assert_eq!(il.row_len(0), 5);
        assert_eq!(il.row_len(4), 1);
        assert_eq!(il.row_len(5), 0);
        assert_eq!(il.column_len(0), 5);
        assert_eq!(il.column_len(4), 1);
        assert!(il.contains(0, 4));
        assert!(!il.contains(0, 5));
        assert!(!il.contains(4, 1));
    }

    #[test]
    fn write_order_matches_write_rank() {
        let il = TriangularInterleaver::new(7).unwrap();
        for (rank, (i, j)) in il.write_order().enumerate() {
            assert_eq!(il.write_rank(i, j), rank as u64);
            assert_eq!(il.write_position(rank as u64), (i, j));
        }
    }

    #[test]
    fn read_order_matches_read_rank() {
        let il = TriangularInterleaver::new(7).unwrap();
        for (rank, (i, j)) in il.read_order().enumerate() {
            assert_eq!(il.read_rank(i, j), rank as u64);
            assert_eq!(il.read_position(rank as u64), (i, j));
        }
    }

    #[test]
    fn small_interleave_by_hand() {
        // n = 3: positions (write order): (0,0)(0,1)(0,2)(1,0)(1,1)(2,0)
        // read order: (0,0)(1,0)(2,0)(0,1)(1,1)(0,2)
        let il = TriangularInterleaver::new(3).unwrap();
        let data = vec![0, 1, 2, 3, 4, 5];
        let interleaved = il.interleave(&data).unwrap();
        assert_eq!(interleaved, vec![0, 3, 5, 1, 4, 2]);
        assert_eq!(il.deinterleave(&interleaved).unwrap(), data);
    }

    #[test]
    fn interleave_rejects_wrong_length() {
        let il = TriangularInterleaver::new(3).unwrap();
        assert!(il.interleave(&[1, 2, 3]).is_err());
        assert!(il.deinterleave(&[1, 2, 3, 4, 5, 6, 7]).is_err());
    }

    #[test]
    fn adjacent_symbols_are_separated() {
        let il = TriangularInterleaver::new(64).unwrap();
        // Within the first row, adjacent input symbols are a full column
        // length apart at the output: symbol j and j+1 are separated by n - j.
        let first_row_sep = il.min_adjacent_separation(Some(2));
        assert_eq!(first_row_sep, 64);
        // Towards the triangle's diagonal the separation shrinks (that corner
        // is protected by the SRAM pre-interleaver instead), but it never
        // vanishes.
        let sep = il.min_adjacent_separation(Some(1000));
        assert!(sep >= 1, "separation vanished: {sep}");
    }

    proptest! {
        #[test]
        fn write_and_read_positions_round_trip(n in 1u32..200, seed in 0u64..1000) {
            let il = TriangularInterleaver::new(n).unwrap();
            let rank = seed % il.len();
            let (i, j) = il.write_position(rank);
            prop_assert!(il.contains(i, j));
            prop_assert_eq!(il.write_rank(i, j), rank);
            let (ri, rj) = il.read_position(rank);
            prop_assert!(il.contains(ri, rj));
            prop_assert_eq!(il.read_rank(ri, rj), rank);
        }

        #[test]
        fn interleave_is_a_permutation(n in 1u32..40) {
            let il = TriangularInterleaver::new(n).unwrap();
            let data: Vec<u64> = (0..il.len()).collect();
            let interleaved = il.interleave(&data).unwrap();
            let mut sorted = interleaved.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, data.clone());
            prop_assert_eq!(il.deinterleave(&interleaved).unwrap(), data);
        }
    }
}
