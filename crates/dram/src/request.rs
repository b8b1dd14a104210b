//! Read/write burst requests submitted to the memory system.

use crate::address::PhysicalAddress;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read one burst.
    Read,
    /// Write one burst.
    Write,
}

/// A single burst-granular memory request.
///
/// Requests are the unit of work handed to a [`Controller`]; data payloads
/// are not modelled because only timing matters for the bandwidth study.
///
/// [`Controller`]: crate::Controller
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Whether the request reads or writes.
    pub kind: RequestKind,
    /// Target physical address.
    pub address: PhysicalAddress,
}

impl Request {
    /// Creates a read request.
    #[must_use]
    pub fn read(address: PhysicalAddress) -> Self {
        Self {
            kind: RequestKind::Read,
            address,
        }
    }

    /// Creates a write request.
    #[must_use]
    pub fn write(address: PhysicalAddress) -> Self {
        Self {
            kind: RequestKind::Write,
            address,
        }
    }

    /// Whether this is a write request.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.kind == RequestKind::Write
    }
}

/// A pull-driven producer of request batches — the slice-at-a-time
/// counterpart of an `Iterator<Item = Request>` front-end.
///
/// Batched trace generators implement this so the controller fill loop can
/// amortize per-request mapping work over whole slices (see
/// [`ChannelRouter::run_phase_sources_threaded`](crate::ChannelRouter::run_phase_sources_threaded));
/// scalar iterators reach the same loop through [`IteratorSource`] (a `1 × 1`
/// router fed `vec![IteratorSource(trace)]` drives one scalar trace).  The
/// requests produced across successive `fill` calls must form the same
/// sequence the equivalent scalar iterator would yield, so driver statistics
/// stay bit-identical between the two paths.
pub trait RequestSource {
    /// Appends the next batch of requests to `out` and returns how many were
    /// appended.
    ///
    /// `max` is a sizing hint: sources should aim for roughly `max` requests
    /// but may append more (e.g. to finish an internal chunk) or fewer.
    /// Returning `0` means the source is exhausted; a non-exhausted source
    /// must append at least one request.
    fn fill(&mut self, out: &mut Vec<Request>, max: usize) -> usize;
}

/// Adapts any request iterator into a [`RequestSource`] (each `fill` pulls
/// up to `max` items) — the bridge for scalar trace fronts.
#[derive(Debug, Clone)]
pub struct IteratorSource<I>(pub I);

impl<I: Iterator<Item = Request>> RequestSource for IteratorSource<I> {
    fn fill(&mut self, out: &mut Vec<Request>, max: usize) -> usize {
        let before = out.len();
        out.extend(self.0.by_ref().take(max));
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = PhysicalAddress::new(0, 0, 7, 3);
        assert!(Request::write(a).is_write());
        assert!(!Request::read(a).is_write());
        assert_eq!(Request::read(a).address, a);
    }

    fn numbered(n: u32) -> Vec<Request> {
        (0..n)
            .map(|k| Request::write(PhysicalAddress::new(0, 0, k, 0)))
            .collect()
    }

    #[test]
    fn iterator_source_fills_in_max_sized_slices() {
        let requests = numbered(10);
        let mut source = IteratorSource(requests.iter().copied());
        let mut out = Vec::new();
        assert_eq!(source.fill(&mut out, 4), 4);
        assert_eq!(source.fill(&mut out, 4), 4);
        assert_eq!(source.fill(&mut out, 4), 2);
        assert_eq!(source.fill(&mut out, 4), 0);
        assert_eq!(out, requests);
    }
}
