//! Structure-of-arrays buffers for batched address generation.
//!
//! An [`AddressBatch`] holds decoded `(channel, PhysicalAddress)` tuples as
//! six separate `u32` lanes (channel, rank, bank group, bank, row, column)
//! instead of an array of structs.  The batched decode kernel
//! ([`PermutationMapping::decode_batch`](crate::PermutationMapping::decode_batch))
//! writes each lane in its own tight loop, so a field extraction is a single
//! shift/mask over a contiguous slice — the layout the compiler can keep in
//! registers and auto-vectorize — rather than five scattered stores per
//! element.
//!
//! # Invariants
//!
//! All six lanes always have the same length; every mutation path
//! ([`AddressBatch::push`], [`AddressBatch::append_with`],
//! [`AddressBatch::clear`]) preserves this.
//!
//! # Examples
//!
//! ```
//! use tbi_dram::{AddressBatch, PhysicalAddress};
//!
//! let mut batch = AddressBatch::new();
//! batch.push(1, PhysicalAddress::new(2, 3, 40, 5));
//! assert_eq!(batch.len(), 1);
//! assert_eq!(batch.get(0), (1, PhysicalAddress::new(2, 3, 40, 5)));
//! assert_eq!(batch.rows(), &[40]);
//! ```

use crate::address::PhysicalAddress;

/// Mutable views of the six lanes of a freshly appended [`AddressBatch`]
/// region, handed to batch kernels by [`AddressBatch::append_with`].
///
/// All slices have the same length.  The region is zero-initialised, so
/// kernels may either assign or OR into the lanes, and may leave lanes they
/// do not produce (e.g. the channel lane of a single-channel decode)
/// untouched.
pub struct AddressLanesMut<'a> {
    /// Channel index lane.
    pub channel: &'a mut [u32],
    /// Rank index lane.
    pub rank: &'a mut [u32],
    /// Bank-group index lane.
    pub bank_group: &'a mut [u32],
    /// Bank index lane.
    pub bank: &'a mut [u32],
    /// Row index lane.
    pub row: &'a mut [u32],
    /// Column index lane.
    pub column: &'a mut [u32],
}

/// A growable structure-of-arrays buffer of decoded
/// `(channel, PhysicalAddress)` tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddressBatch {
    channel: Vec<u32>,
    rank: Vec<u32>,
    bank_group: Vec<u32>,
    bank: Vec<u32>,
    row: Vec<u32>,
    column: Vec<u32>,
}

impl AddressBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with `capacity` reserved in every lane.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            channel: Vec::with_capacity(capacity),
            rank: Vec::with_capacity(capacity),
            bank_group: Vec::with_capacity(capacity),
            bank: Vec::with_capacity(capacity),
            row: Vec::with_capacity(capacity),
            column: Vec::with_capacity(capacity),
        }
    }

    /// Number of addresses in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        debug_assert!(
            self.rank.len() == self.channel.len()
                && self.bank_group.len() == self.channel.len()
                && self.bank.len() == self.channel.len()
                && self.row.len() == self.channel.len()
                && self.column.len() == self.channel.len(),
            "lane lengths diverged"
        );
        self.channel.len()
    }

    /// Whether the batch holds no addresses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channel.is_empty()
    }

    /// Empties every lane, keeping the allocations.
    pub fn clear(&mut self) {
        self.channel.clear();
        self.rank.clear();
        self.bank_group.clear();
        self.bank.clear();
        self.row.clear();
        self.column.clear();
    }

    /// Reserves room for `additional` more addresses in every lane.
    pub fn reserve(&mut self, additional: usize) {
        self.channel.reserve(additional);
        self.rank.reserve(additional);
        self.bank_group.reserve(additional);
        self.bank.reserve(additional);
        self.row.reserve(additional);
        self.column.reserve(additional);
    }

    /// Appends one `(channel, address)` tuple.
    pub fn push(&mut self, channel: u32, address: PhysicalAddress) {
        self.channel.push(channel);
        self.rank.push(address.rank);
        self.bank_group.push(address.bank_group);
        self.bank.push(address.bank);
        self.row.push(address.row);
        self.column.push(address.column);
    }

    /// Zero-extends every lane by `len` elements and hands the new region to
    /// `fill` as per-lane mutable slices — the append path of the batch
    /// decode kernels.
    pub fn append_with<F>(&mut self, len: usize, fill: F)
    where
        F: FnOnce(AddressLanesMut<'_>),
    {
        let start = self.len();
        let end = start + len;
        self.channel.resize(end, 0);
        self.rank.resize(end, 0);
        self.bank_group.resize(end, 0);
        self.bank.resize(end, 0);
        self.row.resize(end, 0);
        self.column.resize(end, 0);
        fill(AddressLanesMut {
            channel: &mut self.channel[start..],
            rank: &mut self.rank[start..],
            bank_group: &mut self.bank_group[start..],
            bank: &mut self.bank[start..],
            row: &mut self.row[start..],
            column: &mut self.column[start..],
        });
    }

    /// The `(channel, address)` tuple at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> (u32, PhysicalAddress) {
        (self.channel[index], self.address(index))
    }

    /// The physical address at `index` (without the channel).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn address(&self, index: usize) -> PhysicalAddress {
        PhysicalAddress {
            rank: self.rank[index],
            bank_group: self.bank_group[index],
            bank: self.bank[index],
            row: self.row[index],
            column: self.column[index],
        }
    }

    /// Iterates the batch as `(channel, PhysicalAddress)` tuples.
    pub fn iter(&self) -> impl Iterator<Item = (u32, PhysicalAddress)> + '_ {
        (0..self.len()).map(move |index| self.get(index))
    }

    /// The channel lane.
    #[must_use]
    pub fn channels(&self) -> &[u32] {
        &self.channel
    }

    /// The rank lane.
    #[must_use]
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The bank-group lane.
    #[must_use]
    pub fn bank_groups(&self) -> &[u32] {
        &self.bank_group
    }

    /// The bank lane.
    #[must_use]
    pub fn banks(&self) -> &[u32] {
        &self.bank
    }

    /// The row lane.
    #[must_use]
    pub fn rows(&self) -> &[u32] {
        &self.row
    }

    /// The column lane.
    #[must_use]
    pub fn columns(&self) -> &[u32] {
        &self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut batch = AddressBatch::with_capacity(4);
        assert!(batch.is_empty());
        let a = PhysicalAddress::new(1, 2, 3, 4).with_rank(1);
        let b = PhysicalAddress::new(0, 0, 9, 8);
        batch.push(0, a);
        batch.push(3, b);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.get(0), (0, a));
        assert_eq!(batch.get(1), (3, b));
        assert_eq!(batch.address(1), b);
        let collected: Vec<_> = batch.iter().collect();
        assert_eq!(collected, vec![(0, a), (3, b)]);
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn append_with_zero_fills_and_appends() {
        let mut batch = AddressBatch::new();
        batch.push(7, PhysicalAddress::new(1, 1, 1, 1));
        batch.append_with(3, |lanes| {
            assert_eq!(lanes.channel, &[0, 0, 0]);
            assert_eq!(lanes.row, &[0, 0, 0]);
            lanes.row[1] = 42;
            lanes.column[2] = 5;
        });
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.get(0), (7, PhysicalAddress::new(1, 1, 1, 1)));
        assert_eq!(batch.address(1), PhysicalAddress::default());
        assert_eq!(batch.address(2).row, 42);
        assert_eq!(batch.address(3).column, 5);
        assert_eq!(batch.rows(), &[1, 0, 42, 0]);
        assert_eq!(batch.channels(), &[7, 0, 0, 0]);
    }

    #[test]
    fn lanes_expose_all_fields() {
        let mut batch = AddressBatch::new();
        batch.push(1, PhysicalAddress::new(2, 3, 4, 5).with_rank(6));
        assert_eq!(batch.channels(), &[1]);
        assert_eq!(batch.ranks(), &[6]);
        assert_eq!(batch.bank_groups(), &[2]);
        assert_eq!(batch.banks(), &[3]);
        assert_eq!(batch.rows(), &[4]);
        assert_eq!(batch.columns(), &[5]);
    }
}
