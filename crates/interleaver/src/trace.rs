//! DRAM request trace generation for the two interleaver access phases.

use tbi_dram::Request;

use crate::mapping::DramMapping;
use crate::triangular::TriangularInterleaver;

/// The two access phases of a triangular block interleaver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPhase {
    /// Row-wise writing of incoming symbols.
    Write,
    /// Column-wise reading of interleaved symbols.
    Read,
}

impl AccessPhase {
    /// Both phases in their natural order.
    pub const ALL: [AccessPhase; 2] = [AccessPhase::Write, AccessPhase::Read];

    /// Human-readable name ("write" / "read").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccessPhase::Write => "write",
            AccessPhase::Read => "read",
        }
    }
}

impl std::fmt::Display for AccessPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates the burst-level DRAM request stream of an interleaver phase.
///
/// The generator is lazy: requests are produced on the fly so even the
/// paper's 12.5 M-burst interleaver does not need to be materialised.  It
/// is the scalar reference for one channel: one [`DramMapping::map`] call
/// per position, no channel routing.  Simulations run through
/// [`ChannelTraceGenerator`](crate::mapping::ChannelTraceGenerator), whose
/// `1 × 1` stream the tests pin to this one.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::{AccessPhase, MappingKind, TraceGenerator};
/// use tbi_interleaver::triangular::TriangularInterleaver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 1600)?;
/// let mapping = MappingKind::Optimized.build(&config, 64)?;
/// let interleaver = TriangularInterleaver::new(64)?;
/// let gen = TraceGenerator::new(interleaver, mapping.as_ref());
/// let writes: Vec<_> = gen.requests(AccessPhase::Write).collect();
/// assert_eq!(writes.len() as u64, interleaver.len());
/// assert!(writes.iter().all(|r| r.is_write()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
pub struct TraceGenerator<'a> {
    interleaver: TriangularInterleaver,
    mapping: &'a dyn DramMapping,
}

impl std::fmt::Debug for TraceGenerator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceGenerator")
            .field("interleaver", &self.interleaver)
            .field("mapping", &self.mapping.name())
            .finish()
    }
}

impl<'a> TraceGenerator<'a> {
    /// Creates a trace generator for `interleaver` using `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping was built for a smaller index space than the
    /// interleaver dimension.
    #[must_use]
    pub fn new(interleaver: TriangularInterleaver, mapping: &'a dyn DramMapping) -> Self {
        assert!(
            mapping.dimension() >= interleaver.dimension(),
            "mapping dimension {} smaller than interleaver dimension {}",
            mapping.dimension(),
            interleaver.dimension()
        );
        Self {
            interleaver,
            mapping,
        }
    }

    /// The interleaver whose accesses are generated.
    #[must_use]
    pub fn interleaver(&self) -> TriangularInterleaver {
        self.interleaver
    }

    /// Lazily yields the request stream of `phase` in its natural order.
    ///
    /// The returned [`PhaseTrace`] streams one [`Request`] at a time —
    /// nothing is materialised, so even the paper's 12.5 M-burst interleaver
    /// costs O(1) memory, and the DRAM engines consume requests exactly as
    /// fast as they can retire them (back-pressure through a `1 × 1`
    /// [`ChannelRouter`](tbi_dram::ChannelRouter) fed
    /// [`IteratorSource`](tbi_dram::IteratorSource)`(trace)`).
    #[must_use]
    pub fn requests(&self, phase: AccessPhase) -> PhaseTrace<'a> {
        PhaseTrace {
            mapping: self.mapping,
            phase,
            n: self.interleaver.dimension(),
            outer: 0,
            inner: 0,
            remaining: self.interleaver.len(),
        }
    }

    /// Number of requests per phase (equal to the interleaver length).
    #[must_use]
    pub fn requests_per_phase(&self) -> u64 {
        self.interleaver.len()
    }
}

/// A streaming iterator over the burst-level DRAM requests of one interleaver
/// access phase.
///
/// Produced by [`TraceGenerator::requests`].  Write phases walk the triangle
/// row-wise and yield [`Request::write`]s; read phases walk it column-wise
/// and yield [`Request::read`]s.  The iterator is exact-sized and fused.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
/// use tbi_interleaver::triangular::TriangularInterleaver;
/// use tbi_interleaver::{AccessPhase, MappingKind, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 1600)?;
/// let mapping = MappingKind::Optimized.build(&config, 32)?;
/// let interleaver = TriangularInterleaver::new(32)?;
/// let gen = TraceGenerator::new(interleaver, mapping.as_ref());
/// let mut trace = gen.requests(AccessPhase::Read);
/// assert_eq!(trace.len(), interleaver.len() as usize);
/// let first = trace.next().expect("non-empty trace");
/// assert!(!first.is_write());
/// assert_eq!(trace.len() as u64, interleaver.len() - 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct PhaseTrace<'a> {
    mapping: &'a dyn DramMapping,
    phase: AccessPhase,
    n: u32,
    /// Row index (write phase) or column index (read phase).
    outer: u32,
    /// Position within the current row/column, `0..n - outer`.
    inner: u32,
    remaining: u64,
}

impl std::fmt::Debug for PhaseTrace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseTrace")
            .field("mapping", &self.mapping.name())
            .field("phase", &self.phase)
            .field("n", &self.n)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl Iterator for PhaseTrace<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Both phases sweep lines of length `n - outer`; they only differ in
        // which coordinate is the line index.
        let (i, j) = match self.phase {
            AccessPhase::Write => (self.outer, self.inner),
            AccessPhase::Read => (self.inner, self.outer),
        };
        self.inner += 1;
        if self.inner >= self.n - self.outer {
            self.inner = 0;
            self.outer += 1;
        }
        let address = self.mapping.map(i, j);
        Some(match self.phase {
            AccessPhase::Write => Request::write(address),
            AccessPhase::Read => Request::read(address),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // On targets where `usize` cannot hold the 64-bit remaining count
        // (paper-sized traces exceed 2^32 positions on 32-bit hosts), report
        // an honest "at least usize::MAX, upper bound unknown" instead of
        // silently saturating both bounds to a wrong exact size.
        match usize::try_from(self.remaining) {
            Ok(remaining) => (remaining, Some(remaining)),
            Err(_) => (usize::MAX, None),
        }
    }
}

// `len()` must equal the exact element count, which only fits in `usize` on
// 64-bit targets; 32-bit consumers get the honest `size_hint` above instead.
#[cfg(target_pointer_width = "64")]
impl ExactSizeIterator for PhaseTrace<'_> {}

impl std::iter::FusedIterator for PhaseTrace<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ChannelMapping, ChannelTraceGenerator, MappingKind};
    use std::collections::HashSet;
    use tbi_dram::{DramConfig, DramStandard};

    fn setup(n: u32) -> (DramConfig, TriangularInterleaver) {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let interleaver = TriangularInterleaver::new(n).unwrap();
        (config, interleaver)
    }

    #[test]
    fn phases_have_names() {
        assert_eq!(AccessPhase::Write.to_string(), "write");
        assert_eq!(AccessPhase::Read.to_string(), "read");
        assert_eq!(AccessPhase::ALL.len(), 2);
    }

    #[test]
    fn write_and_read_traces_cover_the_same_addresses() {
        let (config, interleaver) = setup(48);
        for kind in MappingKind::ALL {
            let mapping = kind.build(&config, 48).unwrap();
            let gen = TraceGenerator::new(interleaver, mapping.as_ref());
            let writes: HashSet<_> = gen
                .requests(AccessPhase::Write)
                .map(|r| r.address)
                .collect();
            let reads: HashSet<_> = gen.requests(AccessPhase::Read).map(|r| r.address).collect();
            assert_eq!(writes, reads, "{kind}");
            assert_eq!(writes.len() as u64, interleaver.len(), "{kind}");
        }
    }

    #[test]
    fn request_kinds_match_phase() {
        let (config, interleaver) = setup(16);
        let mapping = MappingKind::RowMajor.build(&config, 16).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        assert!(gen.requests(AccessPhase::Write).all(|r| r.is_write()));
        assert!(gen.requests(AccessPhase::Read).all(|r| !r.is_write()));
        assert_eq!(gen.requests_per_phase(), interleaver.len());
    }

    #[test]
    fn phase_trace_matches_the_reference_index_orders() {
        let (config, interleaver) = setup(33);
        let mapping = MappingKind::Optimized.build(&config, 33).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let writes: Vec<_> = gen.requests(AccessPhase::Write).collect();
        let expected: Vec<_> = interleaver
            .write_order()
            .map(|(i, j)| Request::write(mapping.map(i, j)))
            .collect();
        assert_eq!(writes, expected);
        let reads: Vec<_> = gen.requests(AccessPhase::Read).collect();
        let expected: Vec<_> = interleaver
            .read_order()
            .map(|(i, j)| Request::read(mapping.map(i, j)))
            .collect();
        assert_eq!(reads, expected);
    }

    #[test]
    fn phase_trace_is_exact_sized_and_fused() {
        let (config, interleaver) = setup(12);
        let mapping = MappingKind::RowMajor.build(&config, 12).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let mut trace = gen.requests(AccessPhase::Write);
        let mut remaining = interleaver.len() as usize;
        assert_eq!(trace.len(), remaining);
        while trace.next().is_some() {
            remaining -= 1;
            assert_eq!(trace.len(), remaining);
        }
        assert_eq!(trace.len(), 0);
        assert!(trace.next().is_none(), "fused after exhaustion");
        assert!(trace.next().is_none());
    }

    #[test]
    fn size_hint_is_exact_at_every_step() {
        let (config, interleaver) = setup(12);
        let mapping = MappingKind::RowMajor.build(&config, 12).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let mut trace = gen.requests(AccessPhase::Write);
        let mut expected = interleaver.len() as usize;
        assert_eq!(trace.size_hint(), (expected, Some(expected)));
        while trace.next().is_some() {
            expected -= 1;
            let (lower, upper) = trace.size_hint();
            assert_eq!(lower, expected, "lower bound must stay exact");
            assert_eq!(upper, Some(expected), "upper bound must stay exact");
        }
        assert_eq!(trace.size_hint(), (0, Some(0)));
    }

    #[test]
    fn fill_batch_yields_the_iterator_sequence() {
        // The batched single-channel trace that drives every simulation
        // emits exactly the scalar `PhaseTrace` sequence, whatever the
        // slice size.
        let (config, interleaver) = setup(37);
        for kind in MappingKind::ALL {
            let mapping = kind.build(&config, 37).unwrap();
            let channel = ChannelMapping::new(kind, &config, 37).unwrap();
            let gen = TraceGenerator::new(interleaver, mapping.as_ref());
            let channel_gen = ChannelTraceGenerator::new(&channel);
            for phase in AccessPhase::ALL {
                let scalar: Vec<_> = gen.requests(phase).collect();
                for max in [1usize, 64, 1000] {
                    let mut trace = channel_gen.channel_requests(phase, 0);
                    let mut batched = Vec::new();
                    while trace.fill_batch(&mut batched, max) > 0 {}
                    assert_eq!(batched, scalar, "{kind} {phase} max={max}");
                    assert_eq!(trace.fill_batch(&mut batched, max), 0, "stays exhausted");
                }
            }
        }
    }

    #[test]
    fn fill_batch_and_next_can_be_mixed() {
        let (config, interleaver) = setup(29);
        let mapping = MappingKind::Optimized.build(&config, 29).unwrap();
        let channel = ChannelMapping::new(MappingKind::Optimized, &config, 29).unwrap();
        let gen = TraceGenerator::new(interleaver, mapping.as_ref());
        let scalar: Vec<_> = gen.requests(AccessPhase::Read).collect();
        let mut trace = ChannelTraceGenerator::new(&channel).channel_requests(AccessPhase::Read, 0);
        let mut mixed = Vec::new();
        while mixed.len() < scalar.len() {
            if let Some(request) = trace.next() {
                mixed.push(request);
            } else {
                break;
            }
            trace.fill_batch(&mut mixed, 10);
        }
        assert_eq!(mixed, scalar);
    }

    #[test]
    #[should_panic(expected = "smaller than interleaver dimension")]
    fn mismatched_dimensions_panic() {
        let (config, _) = setup(16);
        let mapping = MappingKind::Optimized.build(&config, 8).unwrap();
        let interleaver = TriangularInterleaver::new(16).unwrap();
        let _ = TraceGenerator::new(interleaver, mapping.as_ref());
    }
}
