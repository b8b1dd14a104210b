//! Channel-interleaved mapping variants: striping triangular-block traffic
//! across the channels and ranks of a [`ChannelTopology`].
//!
//! A [`ChannelMapping`] wraps one of the [`MappingKind`] schemes and routes
//! every index-space position to a `(channel, PhysicalAddress)` pair:
//!
//! * **Linear-decode schemes** (row-major, permutations, xorfolds) are a
//!   [`PermutedMapping`] scaled out to the topology: the decoder's own
//!   channel and rank bits select the lane.  For the row-major baseline
//!   (the paper's, [`PermutedMapping::row_major`]) the controller's decode
//!   scheme puts the channel bits at the very bottom (`channel = linear mod
//!   C`) and the rank bits directly above the bank bits — the classic
//!   channel/rank-interleaved controller mapping.
//! * **Coordinate schemes** (bank round-robin, tiled, optimized) rotate
//!   `channel` and `rank` along the diagonal of a coarse *stripe-tile* grid
//!   (`lane = (i/T + j/T) mod (C·R)`), so both the row-wise write phase and
//!   the column-wise read phase spread evenly over all channels while each
//!   channel still sees long contiguous runs (a stripe tile is at least as
//!   tall as the underlying mapping's page tile, so no extra page misses are
//!   introduced).  The column coordinate is compacted per channel
//!   (`j' = (j / (T·C))·T + j mod T`), which keeps the per-channel stream
//!   exactly as page-local as the single-channel stream.
//!
//! Construction validates the topology, so channel and rank counts, and
//! hence every divisor of the router, are powers of two: routing is shifts
//! and masks.
//!
//! With the default `1 × 1` topology every position routes to channel 0,
//! rank 0 and the wrapped scheme's exact single-channel address, so a
//! `1 × 1` run feeds its one controller the scheme's plain
//! [`TraceGenerator`](crate::TraceGenerator) stream.
//!
//! A [`ChannelCursor`] walks one channel's share of an access phase:
//! [`ChannelMapping::route_next`] inverts the router's lane function so the
//! walk visits only that channel's positions, in phase order, and routes
//! each of them once (partitioned address generation in the sense of
//! Chavet et al., *Static Address Generation Easing*).

use tbi_dram::{
    AddressBatch, ChannelTopology, DramConfig, PhysicalAddress, Request, RequestKind, RequestSource,
};

use crate::mapping::permuted::Linearization;
use crate::mapping::{BuiltMapping, DramMapping, MappingKind, PermutedMapping, BATCH_CHUNK};
use crate::trace::AccessPhase;
use crate::triangular::TriangularInterleaver;
use crate::InterleaverError;

/// Default stripe-tile edge in index-space positions (clamped down for
/// small index spaces).  128 is at least four underlying page tiles for
/// every preset geometry, so channel/rank switches always land on page-tile
/// boundaries that were misses anyway.
const STRIPE_TILE: u32 = 128;

/// log2 parameters of the stripe-tile router.
#[derive(Debug, Clone, Copy)]
struct StripeShifts {
    /// log2 of the stripe-tile edge.
    tile: u32,
    /// log2 of the channel count.
    channels: u32,
}

impl StripeShifts {
    /// The `(channel, rank)` lane of `(i, j)`: the stripe-tile diagonal
    /// `(i/T + j/T) mod lanes`, with `lanes_mask` the (power-of-two) lane
    /// count minus one.
    fn lane(self, i: u32, j: u32, lanes_mask: u32) -> u32 {
        ((i >> self.tile) + (j >> self.tile)) & lanes_mask
    }
}

/// How positions are routed to channels/ranks.
enum Router {
    /// Linear decode scaled out to the topology: the decoder's own
    /// channel/rank bits select the lane (see [`PermutedMapping`]).
    Linear { mapping: Box<PermutedMapping> },
    /// Stripe-tile rotation over a wrapped coordinate mapping.
    TileRotate {
        inner: Box<dyn DramMapping>,
        shifts: StripeShifts,
    },
}

/// A channel/rank-aware mapping from index-space positions to
/// `(channel, PhysicalAddress)` pairs.
///
/// # Examples
///
/// ```
/// use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
/// use tbi_interleaver::mapping::ChannelMapping;
/// use tbi_interleaver::MappingKind;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?
///     .with_topology(ChannelTopology::new(2, 1));
/// let mapping = ChannelMapping::new(MappingKind::Optimized, &config, 1024)?;
/// let (c0, _) = mapping.route(0, 0);
/// let (c1, _) = mapping.route(0, 128);
/// // Neighbouring stripe tiles land on different channels.
/// assert_ne!(c0, c1);
/// # Ok(())
/// # }
/// ```
pub struct ChannelMapping {
    router: Router,
    topology: ChannelTopology,
    dimension: u32,
    label: String,
}

impl std::fmt::Debug for ChannelMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelMapping")
            .field("scheme", &self.label)
            .field("topology", &self.topology)
            .field("dimension", &self.dimension)
            .finish()
    }
}

impl ChannelMapping {
    /// Builds the channel-aware variant of `kind` for `config`'s topology
    /// and an index space of dimension `n`.
    ///
    /// # Errors
    ///
    /// Returns [`InterleaverError::Dram`] if the topology fails
    /// [`ChannelTopology::validate`], and [`InterleaverError`] if `n` is
    /// zero or the index space does not fit the subsystem under this
    /// scheme.
    pub fn new(kind: MappingKind, config: &DramConfig, n: u32) -> Result<Self, InterleaverError> {
        config.topology.validate()?;
        let topology = config.topology;
        let router = match kind.build_on(config, topology, n)? {
            BuiltMapping::Linear(mapping) => Router::Linear { mapping },
            BuiltMapping::Coordinates(inner) => Router::TileRotate {
                inner,
                shifts: StripeShifts {
                    tile: stripe_tile(n, topology.units()).trailing_zeros(),
                    channels: topology.channels.trailing_zeros(),
                },
            },
        };
        Ok(Self {
            router,
            topology,
            dimension: n,
            label: kind.label(),
        })
    }

    /// The wrapped scheme's label ([`MappingKind::label`]).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.label
    }

    /// The channel/rank topology the mapping stripes over.
    #[must_use]
    pub fn topology(&self) -> ChannelTopology {
        self.topology
    }

    /// Dimension `n` of the index space.
    #[must_use]
    pub fn dimension(&self) -> u32 {
        self.dimension
    }

    /// Routes position `(i, j)` to its channel and physical address (the
    /// address's [`rank`](PhysicalAddress::rank) field selects the rank
    /// within that channel).
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if `(i, j)` lies outside the index space.
    #[must_use]
    pub fn route(&self, i: u32, j: u32) -> (u32, PhysicalAddress) {
        debug_assert!(
            i < self.dimension && j < self.dimension,
            "({i},{j}) outside index space"
        );
        match &self.router {
            Router::Linear { mapping } => mapping.route(i, j),
            Router::TileRotate { inner, shifts } => {
                let (lane, j_inner) = self.tile_lane(*shifts, i, j);
                let channel = lane & (self.topology.channels - 1);
                let rank = lane >> shifts.channels;
                (channel, inner.map(i, j_inner).with_rank(rank))
            }
        }
    }

    /// Batched counterpart of [`ChannelMapping::route`]: appends the
    /// `(channel, address)` pair of every position in `coords`, in order, to
    /// `out`.
    ///
    /// The linear-decode router stages linear indices through a stack chunk
    /// and decodes whole slices ([`PermutedMapping::route_batch`]); the
    /// stripe-tile router stages lane indices and compacted inner
    /// coordinates through a stack chunk, maps the inner coordinates with
    /// the wrapped scheme's [`DramMapping::map_batch`] kernel and then
    /// overwrites the channel and rank lanes in two tight per-lane loops.
    /// Results are bit-identical to per-element `route`.
    ///
    /// # Panics
    ///
    /// May panic (in debug builds) if any position lies outside the index
    /// space.
    pub fn route_batch(&self, coords: &[(u32, u32)], out: &mut AddressBatch) {
        match &self.router {
            Router::Linear { mapping } => mapping.route_batch(coords, out),
            Router::TileRotate { inner, shifts } => {
                let channel_mask = self.topology.channels - 1;
                let mut inner_coords = [(0u32, 0u32); BATCH_CHUNK];
                let mut lane = [0u32; BATCH_CHUNK];
                let mut scratch = AddressBatch::with_capacity(coords.len().min(BATCH_CHUNK));
                for chunk in coords.chunks(BATCH_CHUNK) {
                    let staged = &mut inner_coords[..chunk.len()];
                    let lanes_staged = &mut lane[..chunk.len()];
                    for ((slot, lane_slot), &(i, j)) in
                        staged.iter_mut().zip(lanes_staged.iter_mut()).zip(chunk)
                    {
                        let (lane, j_inner) = self.tile_lane(*shifts, i, j);
                        *lane_slot = lane;
                        *slot = (i, j_inner);
                    }
                    scratch.clear();
                    inner.map_batch(staged, &mut scratch);
                    out.append_with(chunk.len(), |lanes| {
                        lanes.bank_group.copy_from_slice(scratch.bank_groups());
                        lanes.bank.copy_from_slice(scratch.banks());
                        lanes.row.copy_from_slice(scratch.rows());
                        lanes.column.copy_from_slice(scratch.columns());
                        let lanes_staged = lanes_staged.iter();
                        let channel_lane = lanes.channel.iter_mut().zip(lanes_staged.clone());
                        let rank_lane = lanes.rank.iter_mut().zip(lanes_staged);
                        channel_lane.for_each(|(slot, &l)| *slot = l & channel_mask);
                        rank_lane.for_each(|(slot, &l)| *slot = l >> shifts.channels);
                    });
                }
            }
        }
    }

    /// Routes the next positions of `cursor`'s walk — only those on the
    /// cursor's channel, in phase order — and appends their `(channel,
    /// address)` pairs to `out`: at most one batch chunk (256) per call.
    /// Returns how many were appended; `0` if and only if the walk is over.
    ///
    /// Each router finds the channel's next position on the current line
    /// without routing the foreign ones in between:
    ///
    /// * the stripe-tile router tests one position per tile, because the
    ///   lane depends only on `(i/T, j/T)`, and skips whole foreign tiles;
    /// * the packed (row-major) linearization jumps by `C` along a row (the
    ///   linear index grows by one per position) and, down a column, steps
    ///   the linear index by `n − i` and tests `linear mod C` (a mask for
    ///   power-of-two `C`);
    /// * the padded linearization routes every position and keeps its own.
    ///
    /// Each owned position is routed once, with the
    /// [`ChannelMapping::route_batch`] kernels, so the appended pairs are
    /// bit-identical to filtering `route` over the whole phase order.  A
    /// cursor for a channel outside the topology owns no position.
    pub fn route_next(&self, cursor: &mut ChannelCursor, out: &mut AddressBatch) -> usize {
        if cursor.channel >= self.topology.channels {
            return 0;
        }
        match &self.router {
            Router::Linear { mapping } => match mapping.linearization {
                Linearization::Packed(triangle) => {
                    let mut linear = [0u64; BATCH_CHUNK];
                    let staged = self.owned_linear(triangle, cursor, &mut linear);
                    mapping.decoder.decode_batch(&linear[..staged], out);
                    staged
                }
                Linearization::Padded { .. } => {
                    let mut staged = 0;
                    while staged < BATCH_CHUNK && cursor.line_len(self.dimension).is_some() {
                        let (i, j) = cursor.position();
                        cursor.inner += 1;
                        let (channel, address) = mapping.route(i, j);
                        if channel == cursor.channel {
                            out.push(channel, address);
                            staged += 1;
                        }
                    }
                    staged
                }
            },
            Router::TileRotate { shifts, .. } => {
                let mut coords = [(0u32, 0u32); BATCH_CHUNK];
                let staged = self.owned_tiles(*shifts, cursor, &mut coords);
                self.route_batch(&coords[..staged], out);
                staged
            }
        }
    }

    /// The stripe-tile router's lane of `(i, j)` and the column the wrapped
    /// mapping sees there, compacted per channel: the lane's channel fixes
    /// `(j/T) mod C` within a tile row, so `j' = (j / (T·C))·T + j mod T`
    /// keeps the routing injective.
    fn tile_lane(&self, shifts: StripeShifts, i: u32, j: u32) -> (u32, u32) {
        let lane = shifts.lane(i, j, self.topology.units() - 1);
        let tile_mask = (1 << shifts.tile) - 1;
        let j_inner = ((j >> (shifts.tile + shifts.channels)) << shifts.tile) | (j & tile_mask);
        (lane, j_inner)
    }

    /// Stages the linear indices of the cursor's next (at most
    /// [`BATCH_CHUNK`]) positions under the packed linearization of
    /// `triangle`, whose decode scheme sets `channel = linear mod C`.
    fn owned_linear(
        &self,
        triangle: TriangularInterleaver,
        cursor: &mut ChannelCursor,
        linear: &mut [u64; BATCH_CHUNK],
    ) -> usize {
        let n = self.dimension;
        let channels = u64::from(self.topology.channels);
        let channel = u64::from(cursor.channel);
        let mask = channels - 1;
        let mut staged = 0;
        while staged < BATCH_CHUNK {
            let Some(len) = cursor.line_len(n) else {
                break;
            };
            match cursor.phase {
                AccessPhase::Write => {
                    // Row `outer` is a run of consecutive linear indices, so
                    // the channel owns every C-th one.
                    let row_start = triangle.write_rank(cursor.outer, 0);
                    let row_end = row_start + u64::from(len);
                    let here = row_start + u64::from(cursor.inner);
                    let mut l = here + (channel.wrapping_sub(here) & mask);
                    while l < row_end && staged < BATCH_CHUNK {
                        linear[staged] = l;
                        staged += 1;
                        l += channels;
                    }
                    cursor.inner = (l.min(row_end) - row_start) as u32;
                }
                AccessPhase::Read => {
                    // Down column `outer`, linear(i + 1, j) =
                    // linear(i, j) + n − i.  Staging is branch-free: every
                    // index is written, only owned ones advance the count.
                    let mut l = triangle.write_rank(cursor.inner, cursor.outer);
                    let mut i = cursor.inner;
                    while i < len && staged < BATCH_CHUNK {
                        linear[staged] = l;
                        staged += usize::from(l & mask == channel);
                        l += u64::from(n - i);
                        i += 1;
                    }
                    cursor.inner = i;
                }
            }
        }
        staged
    }

    /// Stages the coordinates of the cursor's next (at most [`BATCH_CHUNK`])
    /// positions under the stripe-tile router.  The lane depends only on the
    /// tile coordinates, so ownership is tested once per tile and a foreign
    /// tile is skipped whole.
    fn owned_tiles(
        &self,
        shifts: StripeShifts,
        cursor: &mut ChannelCursor,
        coords: &mut [(u32, u32); BATCH_CHUNK],
    ) -> usize {
        let n = self.dimension;
        let channel_mask = self.topology.channels - 1;
        let lanes_mask = self.topology.units() - 1;
        let tile_mask = (1 << shifts.tile) - 1;
        let mut staged = 0;
        while staged < BATCH_CHUNK {
            while cursor.inner == cursor.run_end {
                let Some(len) = cursor.line_len(n) else {
                    return staged;
                };
                let tile_end = ((cursor.inner | tile_mask) + 1).min(len);
                let (i, j) = cursor.position();
                if shifts.lane(i, j, lanes_mask) & channel_mask == cursor.channel {
                    cursor.run_end = tile_end;
                } else {
                    cursor.inner = tile_end;
                    cursor.run_end = tile_end;
                }
            }
            let take = ((cursor.run_end - cursor.inner) as usize).min(BATCH_CHUNK - staged);
            let (outer, inner) = (cursor.outer, cursor.inner);
            let slots = coords[staged..staged + take].iter_mut().zip(inner..);
            match cursor.phase {
                AccessPhase::Write => slots.for_each(|(slot, k)| *slot = (outer, k)),
                AccessPhase::Read => slots.for_each(|(slot, k)| *slot = (k, outer)),
            }
            cursor.inner += take as u32;
            staged += take;
        }
        staged
    }
}

/// Where one channel's walk through one access phase stands.
///
/// A fresh cursor starts at the phase's first position; each
/// [`ChannelMapping::route_next`] call advances it past the positions it
/// routes (and the foreign positions before them).  The state is a handful
/// of integers, so a walk stays pull-driven and O(1) in memory however many
/// channels or blocks are in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelCursor {
    phase: AccessPhase,
    channel: u32,
    /// Row (write phase) or column (read phase) being walked.
    outer: u32,
    /// Next offset to visit on that line, `0..n - outer`.
    inner: u32,
    /// Stripe-tile router: offsets `inner..run_end` of the current line are
    /// known to route to `channel`.
    run_end: u32,
}

impl ChannelCursor {
    /// A cursor at the start of `phase` for `channel`.
    #[must_use]
    pub fn new(phase: AccessPhase, channel: u32) -> Self {
        Self {
            phase,
            channel,
            outer: 0,
            inner: 0,
            run_end: 0,
        }
    }

    /// The access phase being walked.
    #[must_use]
    pub fn phase(&self) -> AccessPhase {
        self.phase
    }

    /// The index-space position at the cursor.
    fn position(&self) -> (u32, u32) {
        match self.phase {
            AccessPhase::Write => (self.outer, self.inner),
            AccessPhase::Read => (self.inner, self.outer),
        }
    }

    /// Moves past finished lines and returns the current line's length,
    /// or `None` once all `n` lines of the phase are walked.
    fn line_len(&mut self, n: u32) -> Option<u32> {
        while self.outer < n {
            let len = n - self.outer;
            if self.inner < len {
                return Some(len);
            }
            self.outer += 1;
            self.inner = 0;
            self.run_end = 0;
        }
        None
    }
}

/// Stripe-tile edge: [`STRIPE_TILE`] for large index spaces, shrunk (to at
/// least 16) when the index space is too small to give every (channel,
/// rank) lane a few tiles per line.
fn stripe_tile(n: u32, lanes: u32) -> u32 {
    let mut tile = STRIPE_TILE;
    while tile > 16 && n / tile < 2 * lanes {
        tile /= 2;
    }
    tile
}

/// Streams the requests of one access phase that route to one channel, in
/// phase order — the per-channel front-end FIFO of a channel-interleaved
/// interleaver buffer.
///
/// The trace steps a [`ChannelCursor`] through
/// [`ChannelMapping::route_next`], so it visits and routes only its own
/// channel's positions: a phase costs one route per position in total,
/// however many channels split it.  Every channel's stream stays
/// independently pull-driven (O(1) memory, per-channel back-pressure, no
/// cross-channel buffering).
///
/// Produced by [`ChannelTraceGenerator::channel_requests`].
pub struct ChannelTrace<'a> {
    mapping: &'a ChannelMapping,
    cursor: ChannelCursor,
    /// The last [`ChannelMapping::route_next`] slice (reused across calls).
    routed: AddressBatch,
    /// Index of the first entry of `routed` not yet handed out.
    next: usize,
}

impl ChannelTrace<'_> {
    /// Appends at least `max` of this channel's remaining `phase` requests
    /// to `out` (fewer when the trace ends first; possibly a few more, up to
    /// the batch-chunk granularity) and returns how many were appended.
    ///
    /// Positions are routed in [`ChannelMapping::route_next`] slices of the
    /// channel's own positions, so the per-request mapping cost is one
    /// batched route.  The appended sequence is exactly the iterator's —
    /// mixing `next` and `fill_batch` calls is allowed and never reorders or
    /// drops requests.
    ///
    /// Returns `0` if and only if the trace is exhausted.
    pub fn fill_batch(&mut self, out: &mut Vec<Request>, max: usize) -> usize {
        let before = out.len();
        loop {
            let kind = self.kind();
            out.extend((self.next..self.routed.len()).map(|index| Request {
                kind,
                address: self.routed.address(index),
            }));
            self.next = self.routed.len();
            if out.len() - before >= max || !self.route_more() {
                return out.len() - before;
            }
        }
    }

    /// Routes the next slice into `routed`; `false` once the walk is over.
    fn route_more(&mut self) -> bool {
        self.routed.clear();
        self.next = 0;
        self.mapping.route_next(&mut self.cursor, &mut self.routed) > 0
    }

    fn kind(&self) -> RequestKind {
        match self.cursor.phase() {
            AccessPhase::Write => RequestKind::Write,
            AccessPhase::Read => RequestKind::Read,
        }
    }
}

impl RequestSource for ChannelTrace<'_> {
    fn fill(&mut self, out: &mut Vec<Request>, max: usize) -> usize {
        self.fill_batch(out, max)
    }
}

impl Iterator for ChannelTrace<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.next == self.routed.len() && !self.route_more() {
            return None;
        }
        let address = self.routed.address(self.next);
        self.next += 1;
        Some(Request {
            kind: self.kind(),
            address,
        })
    }
}

impl std::iter::FusedIterator for ChannelTrace<'_> {}

/// Generates per-channel request streams for a [`ChannelMapping`].
///
/// # Examples
///
/// ```
/// use tbi_dram::{ChannelTopology, DramConfig, DramStandard};
/// use tbi_interleaver::mapping::{ChannelMapping, ChannelTraceGenerator};
/// use tbi_interleaver::{AccessPhase, MappingKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?
///     .with_topology(ChannelTopology::new(2, 1));
/// let mapping = ChannelMapping::new(MappingKind::Optimized, &config, 512)?;
/// let generator = ChannelTraceGenerator::new(&mapping);
/// let total: usize = (0..2)
///     .map(|c| generator.channel_requests(AccessPhase::Write, c).count())
///     .sum();
/// assert_eq!(total as u64, 512 * 513 / 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
pub struct ChannelTraceGenerator<'a> {
    mapping: &'a ChannelMapping,
    len: u64,
}

impl<'a> ChannelTraceGenerator<'a> {
    /// Creates a generator for `mapping`'s triangular index space.
    #[must_use]
    pub fn new(mapping: &'a ChannelMapping) -> Self {
        let n = u64::from(mapping.dimension());
        Self {
            mapping,
            len: n * (n + 1) / 2,
        }
    }

    /// The stream of `phase` requests routed to `channel`, in phase order.
    #[must_use]
    pub fn channel_requests(&self, phase: AccessPhase, channel: u32) -> ChannelTrace<'a> {
        ChannelTrace {
            mapping: self.mapping,
            cursor: ChannelCursor::new(phase, channel),
            routed: AddressBatch::new(),
            next: 0,
        }
    }

    /// Total number of requests per phase across all channels.
    #[must_use]
    pub fn requests_per_phase(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use tbi_dram::{BitPermutation, DramStandard};

    fn config(channels: u32, ranks: u32) -> DramConfig {
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(channels, ranks))
    }

    #[test]
    fn single_topology_reproduces_the_plain_mapping() {
        let cfg = config(1, 1);
        let n = 300;
        for kind in MappingKind::ALL {
            let channel_mapping = ChannelMapping::new(kind, &cfg, n).unwrap();
            let plain = kind.build(&cfg, n).unwrap();
            for i in 0..n {
                for j in 0..(n - i) {
                    let (channel, address) = channel_mapping.route(i, j);
                    assert_eq!(channel, 0, "{kind} ({i},{j})");
                    assert_eq!(address, plain.map(i, j), "{kind} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn routing_is_injective_per_channel_and_covers_all_channels() {
        let n = 400u32;
        for (channels, ranks) in [(2, 1), (4, 1), (2, 2), (1, 2)] {
            let cfg = config(channels, ranks);
            for kind in MappingKind::ALL {
                let mapping = ChannelMapping::new(kind, &cfg, n).unwrap();
                let mut seen: HashSet<(u32, PhysicalAddress)> = HashSet::new();
                let mut per_channel: HashMap<u32, u64> = HashMap::new();
                for i in 0..n {
                    for j in 0..(n - i) {
                        let (channel, address) = mapping.route(i, j);
                        assert!(channel < channels, "{kind} channel {channel}");
                        assert!(
                            address.is_valid_for_ranks(&cfg.geometry, ranks),
                            "{kind} invalid address {address} at ({i},{j})"
                        );
                        assert!(
                            seen.insert((channel, address)),
                            "{kind} collision at ({i},{j}) on channel {channel}: {address}"
                        );
                        *per_channel.entry(channel).or_default() += 1;
                    }
                }
                let total: u64 = per_channel.values().sum();
                assert_eq!(total, u64::from(n) * u64::from(n + 1) / 2);
                let max = *per_channel.values().max().unwrap();
                let min = per_channel.values().copied().min().unwrap_or(0);
                assert_eq!(
                    per_channel.len() as u32,
                    channels,
                    "{kind} must use every channel"
                );
                assert!(
                    max < 2 * min.max(1),
                    "{kind} {channels}x{ranks} imbalanced: min {min}, max {max}"
                );
            }
        }
    }

    #[test]
    fn invalid_topologies_are_rejected_for_every_kind() {
        let tiled = MappingKind::GeneralTiled {
            tile_h: 8,
            tile_w: 8,
        };
        for (channels, ranks) in [(3, 1), (1, 3), (6, 2), (0, 1)] {
            let cfg = config(channels, ranks);
            for kind in MappingKind::ALL.into_iter().chain([tiled]) {
                assert!(
                    matches!(
                        ChannelMapping::new(kind, &cfg, 200),
                        Err(InterleaverError::Dram(_))
                    ),
                    "{kind} on {channels}x{ranks}"
                );
            }
        }
    }

    #[test]
    fn multi_rank_row_major_uses_every_rank() {
        let cfg = config(1, 2);
        let mapping = ChannelMapping::new(MappingKind::RowMajor, &cfg, 200).unwrap();
        let ranks: HashSet<u32> = (0..200)
            .flat_map(|i| (0..(200 - i)).map(move |j| (i, j)))
            .map(|(i, j)| mapping.route(i, j).1.rank)
            .collect();
        assert_eq!(ranks, HashSet::from([0, 1]));
    }

    #[test]
    fn row_major_capacity_scales_with_channels_and_ranks() {
        // A size that overflows one channel must fit once channels/ranks
        // multiply the capacity (row-major stores positions compactly).
        let mut small = config(1, 1);
        small.geometry.rows = 1 << 6;
        let n = 600u32; // ~180k positions; one channel holds 128k bursts.
        assert!(matches!(
            ChannelMapping::new(MappingKind::RowMajor, &small, n),
            Err(InterleaverError::CapacityExceeded { .. })
        ));
        let mut scaled = small.clone();
        scaled.topology = ChannelTopology::new(2, 1);
        assert!(ChannelMapping::new(MappingKind::RowMajor, &scaled, n).is_ok());
    }

    #[test]
    fn both_phases_rotate_channels_within_a_few_tiles() {
        let cfg = config(2, 1);
        let mapping = ChannelMapping::new(MappingKind::Optimized, &cfg, 1024).unwrap();
        // Along a row and along a column, a window of 2 stripe tiles must
        // touch both channels.
        let row_channels: HashSet<u32> = (0..256).map(|j| mapping.route(0, j).0).collect();
        let col_channels: HashSet<u32> = (0..256).map(|i| mapping.route(i, 0).0).collect();
        assert_eq!(row_channels.len(), 2);
        assert_eq!(col_channels.len(), 2);
    }

    #[test]
    fn channel_traces_partition_the_phase_trace() {
        let cfg = config(2, 2);
        let mapping = ChannelMapping::new(MappingKind::Optimized, &cfg, 96).unwrap();
        let generator = ChannelTraceGenerator::new(&mapping);
        for phase in AccessPhase::ALL {
            // Channels are separate address spaces, so uniqueness holds per
            // (channel, address) pair — not across channels.
            let mut union: Vec<(u32, tbi_dram::PhysicalAddress)> = Vec::new();
            for channel in 0..2 {
                union.extend(
                    generator
                        .channel_requests(phase, channel)
                        .map(move |r| (channel, r.address)),
                );
            }
            assert_eq!(union.len() as u64, generator.requests_per_phase());
            let distinct: HashSet<_> = union.iter().collect();
            assert_eq!(distinct.len(), union.len(), "{phase}: duplicate addresses");
        }
    }

    #[test]
    fn route_batch_matches_scalar_route_for_every_router() {
        let n = 200u32;
        // Permutations with channel bits exercise the padded linearization's
        // batched path; ALL covers row-major and TileRotate.
        for (channels, ranks) in [(1, 1), (2, 1), (2, 2), (8, 1)] {
            let cfg = config(channels, ranks);
            let permutation =
                BitPermutation::for_scheme(cfg.decode_scheme, &cfg.geometry, cfg.topology).unwrap();
            let mut kinds: Vec<MappingKind> = MappingKind::ALL.to_vec();
            kinds.push(MappingKind::Permutation(permutation));
            for kind in kinds {
                let mapping = ChannelMapping::new(kind, &cfg, n).unwrap();
                let coords: Vec<(u32, u32)> = (0..n)
                    .flat_map(|i| (0..(n - i)).map(move |j| (i, j)))
                    .collect();
                let mut batch = tbi_dram::AddressBatch::new();
                mapping.route_batch(&coords, &mut batch);
                assert_eq!(batch.len(), coords.len());
                for (index, &(i, j)) in coords.iter().enumerate() {
                    assert_eq!(
                        batch.get(index),
                        mapping.route(i, j),
                        "{kind} {channels}x{ranks} at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn channel_trace_fill_batch_matches_the_iterator() {
        let cfg = config(2, 2);
        for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
            let mapping = ChannelMapping::new(kind, &cfg, 96).unwrap();
            let generator = ChannelTraceGenerator::new(&mapping);
            for phase in AccessPhase::ALL {
                for channel in 0..2 {
                    let scalar: Vec<_> = generator.channel_requests(phase, channel).collect();
                    let mut trace = generator.channel_requests(phase, channel);
                    let mut batched = Vec::new();
                    while trace.fill_batch(&mut batched, 100) > 0 {}
                    assert_eq!(batched, scalar, "{kind} {phase} channel {channel}");
                }
            }
        }
    }

    #[test]
    fn stripe_tile_shrinks_for_small_index_spaces() {
        assert_eq!(stripe_tile(5000, 2), 128);
        assert_eq!(stripe_tile(200, 4), 16);
        assert!(stripe_tile(40, 8) >= 16);
    }
}
