//! Slab-style pooled allocator for in-flight triangular blocks.
//!
//! Admission control bounds how many blocks may be in flight at once; the
//! [`BlockPool`] backs that budget with a fixed slab of [`BlockSlot`]s and
//! a LIFO free list, so admitting and retiring a block never allocates
//! after construction and slot indices stay dense enough to tag requests
//! with a `u32`.

/// State of one in-flight triangular block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSlot {
    /// Owning stream index.
    pub stream: u32,
    /// Arrival cycle of the block (latency epoch for its requests).
    pub arrival: u64,
    /// Absolute deadline cycle (`arrival + deadline_cycles`).
    pub deadline: u64,
    /// Requests of this block not yet completed by the memory system.
    pub remaining: u64,
    /// Largest completion cycle observed for this block so far.
    pub last_completion: u64,
}

/// Fixed-capacity slab of in-flight blocks with a LIFO free list.
///
/// # Examples
///
/// ```
/// use tbi_sched::{BlockPool, BlockSlot};
///
/// let mut pool = BlockPool::new(2);
/// let slot = pool
///     .allocate(BlockSlot { stream: 0, arrival: 0, deadline: 100, remaining: 10, last_completion: 0 })
///     .unwrap();
/// assert!(pool.is_full() == false && pool.in_flight() == 1);
/// pool.release(slot);
/// assert_eq!(pool.in_flight(), 0);
/// ```
#[derive(Debug)]
pub struct BlockPool {
    slots: Vec<BlockSlot>,
    free: Vec<u32>,
}

impl BlockPool {
    /// Creates a pool of `capacity` slots (clamped to at least 1), all
    /// free.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let empty = BlockSlot {
            stream: 0,
            arrival: 0,
            deadline: 0,
            remaining: 0,
            last_completion: 0,
        };
        Self {
            slots: vec![empty; capacity],
            // LIFO: lowest indices come off first, so slot ids stay small
            // under light load.
            free: (0..capacity as u32).rev().collect(),
        }
    }

    /// Total slot count (the in-flight budget).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently allocated.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether every slot is allocated (admission must stall).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Allocates a slot for `block`, returning its index, or `None` when
    /// the pool is exhausted.
    pub fn allocate(&mut self, block: BlockSlot) -> Option<u32> {
        let index = self.free.pop()?;
        self.slots[index as usize] = block;
        Some(index)
    }

    /// Returns `slot` to the free list.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `slot` is already free.
    pub fn release(&mut self, slot: u32) {
        debug_assert!(
            !self.free.contains(&slot),
            "double release of block slot {slot}"
        );
        self.free.push(slot);
    }

    /// The block in `slot`.
    #[must_use]
    pub fn get(&self, slot: u32) -> &BlockSlot {
        &self.slots[slot as usize]
    }

    /// Mutable access to the block in `slot`.
    pub fn get_mut(&mut self, slot: u32) -> &mut BlockSlot {
        &mut self.slots[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(stream: u32) -> BlockSlot {
        BlockSlot {
            stream,
            arrival: 5,
            deadline: 105,
            remaining: 3,
            last_completion: 0,
        }
    }

    #[test]
    fn allocate_until_full_then_release_reuses_slots() {
        let mut pool = BlockPool::new(2);
        let a = pool.allocate(block(0)).unwrap();
        let b = pool.allocate(block(1)).unwrap();
        assert_ne!(a, b);
        assert!(pool.is_full());
        assert!(pool.allocate(block(2)).is_none());
        pool.release(a);
        assert_eq!(pool.in_flight(), 1);
        // LIFO: the just-released slot is handed out again.
        assert_eq!(pool.allocate(block(3)).unwrap(), a);
        assert_eq!(pool.get(a).stream, 3);
        assert_eq!(pool.get(b).stream, 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut pool = BlockPool::new(0);
        assert_eq!(pool.capacity(), 1);
        assert!(pool.allocate(block(0)).is_some());
        assert!(pool.is_full());
    }

    #[test]
    fn get_mut_updates_slot_state() {
        let mut pool = BlockPool::new(1);
        let slot = pool.allocate(block(0)).unwrap();
        pool.get_mut(slot).remaining -= 1;
        pool.get_mut(slot).last_completion = 77;
        assert_eq!(pool.get(slot).remaining, 2);
        assert_eq!(pool.get(slot).last_completion, 77);
    }
}
