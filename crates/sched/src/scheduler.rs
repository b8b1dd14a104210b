//! The multi-tenant stream scheduler.
//!
//! [`StreamScheduler`] multiplexes many tenant streams onto the shared
//! channels of one [`ChannelRouter`] under the router's laggard-first
//! clock.  Each scheduler step:
//!
//! 1. **admits** arrived blocks, earliest `(arrival, stream)` first from a
//!    heap holding each stream's next block, while the in-flight
//!    [`BlockPool`] has free slots (admission control / backpressure),
//! 2. **fills** every channel's free queue slots from the channel's ready
//!    streams, which are kept ordered the way the active policy picks
//!    ([`SchedPolicyKind`]), so a pick is one ordered-set lookup rather
//!    than a pass over every ready stream,
//! 3. **advances** the laggard channel — the channel whose clock is
//!    furthest behind ([`ChannelRouter::laggard_channel`]) — until it can
//!    accept again, or, when every channel is idle before the next block
//!    arrives, idles every channel until that arrival, and
//! 4. **collects** completions from the controllers' observational logs,
//!    attributing each to its block via per-`(channel, bank)` FIFO tags
//!    (per-bank service is strictly FIFO under FR-FCFS — only queue heads
//!    receive column commands — so the tag queues mirror retirement order
//!    exactly).
//!
//! No step passes over every stream, so the host cost of a request does
//! not grow with the stream count beyond the ordered sets' logarithm.
//!
//! With a single stream every policy always picks the sole candidate and
//! serves whole free batches, so the enqueue sequence — and therefore the
//! DRAM statistics — are bit-identical to
//! [`ChannelRouter::run_phase_sources`] over the equivalent per-channel
//! traces.  Tests pin this on both timing engines.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::latency::{jain_fairness, LatencyHistogram};
use crate::policy::{ReadySet, SchedPolicyKind};
use crate::pool::{BlockPool, BlockSlot};
use crate::spec::{QosClass, SchedConfig, StreamSpec};
use crate::SchedError;
use tbi_dram::{
    AddressBatch, ChannelRouter, CombinedStats, ControllerConfig, DeviceGeometry, DramConfig,
    Request,
};
use tbi_interleaver::mapping::{ChannelCursor, ChannelMapping};
use tbi_interleaver::AccessPhase;

/// Target queue depth (requests) a per-channel refill generates at once.
/// Generation is batched and cheap; the target bounds per-stream queue
/// memory with thousands of streams while amortising the routing calls.
const GEN_CHUNK: usize = 512;

/// A generated request waiting in a stream's per-channel queue, tagged
/// with its block's pool slot.
#[derive(Debug, Clone, Copy)]
struct Tagged {
    request: Request,
    slot: u32,
}

/// Per-channel generation cursor of one stream: which admitted block it is
/// walking and where this channel's walk through that block stands.
///
/// The walk is the [`ChannelCursor`] a `ChannelTrace` steps, so it visits
/// only this channel's positions and yields exactly the trace's sequence —
/// what makes the single-stream case bit-identical to the phase drivers.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCursor {
    /// Index into the stream's admitted-block list of the **next** block
    /// to start once the current one is exhausted.
    idx: usize,
    /// Pool slot of the block being generated.
    slot: u32,
    /// This channel's walk through that block (`None` before the first).
    walk: Option<ChannelCursor>,
}

/// Runtime state of one stream.
struct StreamState {
    mapping: ChannelMapping,
    /// Row displacement of this stream's buffer (virtual placement:
    /// tenants share banks but occupy rotated row regions).
    row_offset: u32,
    /// Generated-but-not-yet-enqueued requests, one queue per channel.
    queues: Vec<VecDeque<Tagged>>,
    cursors: Vec<PhaseCursor>,
    /// Admitted blocks in admission order: `(block number, pool slot)`.
    /// Entries stay listed after retirement; cursors only read entries at
    /// or past their own index, which retirement never reaches.
    admitted: Vec<(u64, u32)>,
    /// Next block number to admit.
    next_block: u64,
    latency: LatencyHistogram,
    blocks_completed: u64,
    deadline_misses: u64,
}

/// Per-tenant results of a scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant identity from the stream's [`StreamSpec`].
    pub tenant: String,
    /// The stream's QoS class.
    pub qos: QosClass,
    /// Completed requests (equals the histogram's sample count).
    pub requests: u64,
    /// Completed triangular blocks.
    pub blocks: u64,
    /// Blocks whose last request completed after the QoS deadline.
    pub deadline_misses: u64,
    /// Request latency distribution (block arrival → data burst end).
    pub latency: LatencyHistogram,
}

impl TenantReport {
    /// Whether the tenant's latency sum overflowed `u64` — when `true`, the
    /// histogram's mean is a lower bound, not the true mean (see
    /// [`LatencyHistogram::is_saturated`]).
    #[must_use]
    pub fn latency_saturated(&self) -> bool {
        self.latency.is_saturated()
    }
}

/// Aggregate results of a scheduler run.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedReport {
    /// Policy that produced this run.
    pub policy: SchedPolicyKind,
    /// Combined DRAM statistics of the run window (same shape as a
    /// [`ChannelRouter::run_phase_sources`] result).
    pub stats: CombinedStats,
    /// Per-tenant latency and completion accounting, in stream order.
    pub tenants: Vec<TenantReport>,
}

impl SchedReport {
    /// Jain fairness index over the tenants' mean request latencies
    /// (1.0 = every tenant saw the same mean latency).
    #[must_use]
    pub fn fairness_index(&self) -> f64 {
        let means: Vec<f64> = self.tenants.iter().map(|t| t.latency.mean()).collect();
        jain_fairness(&means)
    }

    /// Largest per-tenant p50 latency.
    #[must_use]
    pub fn worst_p50(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.latency.p50())
            .max()
            .unwrap_or(0)
    }

    /// Largest per-tenant p99 latency.
    #[must_use]
    pub fn worst_p99(&self) -> u64 {
        self.tenants
            .iter()
            .map(|t| t.latency.p99())
            .max()
            .unwrap_or(0)
    }

    /// Total completed requests across tenants.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }

    /// Total deadline misses across tenants.
    #[must_use]
    pub fn total_deadline_misses(&self) -> u64 {
        self.tenants.iter().map(|t| t.deadline_misses).sum()
    }
}

/// Tenant-aware streaming scheduler over a [`ChannelRouter`].
///
/// # Examples
///
/// ```
/// use tbi_dram::{ChannelTopology, ControllerConfig, DramConfig, DramStandard};
/// use tbi_interleaver::InterleaverSpec;
/// use tbi_sched::{SchedConfig, SchedPolicyKind, StreamScheduler, StreamSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?
///     .with_topology(ChannelTopology::new(2, 1));
/// let streams = vec![
///     StreamSpec::new("tenant-a", InterleaverSpec::from_burst_count(2_000)),
///     StreamSpec::new("tenant-b", InterleaverSpec::from_burst_count(2_000)),
/// ];
/// let scheduler = StreamScheduler::new(
///     config,
///     ControllerConfig::default(),
///     streams,
///     SchedConfig::new(SchedPolicyKind::RoundRobin),
/// )?;
/// let report = scheduler.run();
/// assert_eq!(report.tenants.len(), 2);
/// assert!(report.total_requests() > 0);
/// # Ok(())
/// # }
/// ```
pub struct StreamScheduler {
    router: ChannelRouter,
    specs: Vec<StreamSpec>,
    streams: Vec<StreamState>,
    pool: BlockPool,
    /// Completion-attribution FIFOs: `tags[channel][flat_bank]` mirrors the
    /// per-bank enqueue order as `(stream, slot)` pairs.
    tags: Vec<Vec<VecDeque<(u32, u32)>>>,
    /// Streams with at least one generated request queued, per channel,
    /// in the policy's pick order.
    ready: ReadySet,
    /// Each stream's next unadmitted block as `(arrival, stream)`,
    /// earliest first.
    arrivals: BinaryHeap<Reverse<(u64, u32)>>,
    geometry: DeviceGeometry,
    channels: u32,
    /// Shared scratch for the batched routing kernel.
    scratch: AddressBatch,
    /// Worker threads for the final per-channel drain
    /// ([`SchedConfig::threads`]).
    drain_threads: usize,
}

impl StreamScheduler {
    /// Builds a scheduler for `streams` on the memory system described by
    /// `config`/`ctrl`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoStreams`] for an empty stream list, and
    /// propagates configuration or sizing errors from the router and the
    /// per-stream channel mappings.
    pub fn new(
        config: DramConfig,
        ctrl: ControllerConfig,
        streams: Vec<StreamSpec>,
        sched: SchedConfig,
    ) -> Result<Self, SchedError> {
        if streams.is_empty() {
            return Err(SchedError::NoStreams);
        }
        let mut router = ChannelRouter::new(config.clone(), ctrl)?;
        let channels = router.channels();
        let geometry = config.geometry;
        let flat_banks = (config.topology.ranks * geometry.total_banks()) as usize;
        for channel in 0..channels {
            router.controller_mut(channel).set_completion_logging(true);
        }
        let stride = (geometry.rows / streams.len() as u32).max(1);
        let states = streams
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                let mapping = ChannelMapping::new(spec.mapping, &config, spec.spec.dimension())?;
                Ok(StreamState {
                    mapping,
                    row_offset: (index as u32).wrapping_mul(stride) % geometry.rows,
                    queues: (0..channels).map(|_| VecDeque::new()).collect(),
                    cursors: vec![PhaseCursor::default(); channels as usize],
                    admitted: Vec::new(),
                    next_block: 0,
                    latency: LatencyHistogram::new(),
                    blocks_completed: 0,
                    deadline_misses: 0,
                })
            })
            .collect::<Result<Vec<_>, SchedError>>()?;
        let budget = sched.budget_for(streams.len());
        let arrivals = streams
            .iter()
            .enumerate()
            .filter(|(_, spec)| spec.blocks > 0)
            .map(|(index, spec)| Reverse((spec.arrival.arrival_cycle(0), index as u32)))
            .collect();
        Ok(Self {
            router,
            ready: ReadySet::new(sched.policy, streams.len(), channels),
            specs: streams,
            streams: states,
            pool: BlockPool::new(budget),
            tags: (0..channels as usize)
                .map(|_| vec![VecDeque::new(); flat_banks])
                .collect(),
            arrivals,
            geometry,
            channels,
            scratch: AddressBatch::new(),
            drain_threads: sched.threads.max(1),
        })
    }

    /// Runs all streams to completion and returns the per-tenant and
    /// combined-DRAM results.
    ///
    /// The loop is the laggard-first schedule: fill free slots in channel
    /// order, step the laggard until it can accept again, repeat; finally
    /// drain every controller.  Projected onto one channel it is the
    /// router's per-channel drive, which is why a single stream reproduces
    /// [`ChannelRouter::run_phase_sources`] exactly.
    #[must_use]
    pub fn run(mut self) -> SchedReport {
        loop {
            self.admit_eligible();
            self.fill_channels();
            match self.router.laggard_channel() {
                Some(channel) => {
                    let controller = self.router.controller_mut(channel);
                    controller.step();
                    while !controller.can_accept() && controller.pending_requests() > 0 {
                        controller.step();
                    }
                }
                None => {
                    // Every channel is idle, so every admitted block has
                    // retired and the next block arrives in the future:
                    // idle the channels until it does, or stop.
                    debug_assert_eq!(self.pool.in_flight(), 0);
                    let Some(&Reverse((arrival, _))) = self.arrivals.peek() else {
                        break;
                    };
                    for channel in 0..self.channels {
                        self.router.controller_mut(channel).advance_idle_to(arrival);
                    }
                }
            }
            self.collect_completions();
        }
        // The admission loop above is inherently sequential (policy picks
        // observe cross-channel state), but once every stream is exhausted
        // the remaining per-channel drains are independent: run them on
        // worker threads when configured.  `drain_all` is bit-identical to
        // the per-channel loop for any thread count, and completions stay
        // in each controller's private log until `collect_completions`
        // walks the channels in index order, so report ordering is
        // unaffected.
        self.router.drain_all(self.drain_threads);
        self.collect_completions();
        self.report()
    }

    /// Number of requests per block of stream `s` — the full triangular
    /// index space of its mapping's dimension.
    fn per_block_requests(&self, stream: usize) -> u64 {
        let n = u64::from(self.streams[stream].mapping.dimension());
        n * (n + 1) / 2
    }

    /// The shared clock floor: the slowest channel's current cycle.
    fn clock(&self) -> u64 {
        (0..self.channels)
            .map(|c| self.router.controller(c).now())
            .min()
            .unwrap_or(0)
    }

    /// Admits blocks that have arrived by the shared clock, earliest
    /// `(arrival, stream)` first, while the pool has free slots.
    fn admit_eligible(&mut self) {
        if self.pool.is_full() || self.arrivals.is_empty() {
            return;
        }
        let clock = self.clock();
        while !self.pool.is_full() {
            match self.arrivals.peek() {
                Some(&Reverse((arrival, stream))) if arrival <= clock => {
                    self.arrivals.pop();
                    self.admit(stream, arrival);
                }
                _ => break,
            }
        }
    }

    /// Admits stream `stream`'s next block, which arrives at `arrival`:
    /// allocates a pool slot, appends it to the stream's admitted list,
    /// queues the stream's following block for admission and wakes any
    /// stalled channel cursors.
    fn admit(&mut self, stream: u32, arrival: u64) {
        let s = stream as usize;
        let per_block = self.per_block_requests(s);
        let spec = &self.specs[s];
        let block = self.streams[s].next_block;
        let deadline = arrival.saturating_add(spec.qos.deadline_cycles());
        let slot = self
            .pool
            .allocate(BlockSlot {
                stream,
                arrival,
                deadline,
                remaining: per_block,
                last_completion: 0,
            })
            .expect("admit is only called with pool capacity available");
        let state = &mut self.streams[s];
        state.admitted.push((block, slot));
        state.next_block += 1;
        if state.next_block < spec.blocks {
            self.arrivals.push(Reverse((
                spec.arrival.arrival_cycle(state.next_block),
                stream,
            )));
        }
        let rows = self.geometry.rows;
        for channel in 0..self.channels as usize {
            let state = &mut self.streams[s];
            if state.queues[channel].is_empty() {
                Self::refill_channel(state, &self.specs[s], channel, rows, &mut self.scratch);
            }
            self.rekey(channel, stream);
        }
    }

    /// Re-keys `stream` in `channel`'s ready set from the head of its
    /// queue there, or removes it once that queue is empty.
    fn rekey(&mut self, channel: usize, stream: u32) {
        match self.streams[stream as usize].queues[channel].front() {
            Some(head) => {
                let deadline = self.pool.get(head.slot).deadline;
                self.ready.insert(channel as u32, stream, deadline);
            }
            None => self.ready.remove(channel as u32, stream),
        }
    }

    /// Generates at least [`GEN_CHUNK`] more of `state`'s requests for
    /// `channel` (fewer once its admitted blocks run out), stepping each
    /// admitted block's channel walk in order and displacing rows by the
    /// stream's offset.
    fn refill_channel(
        state: &mut StreamState,
        spec: &StreamSpec,
        channel: usize,
        rows: u32,
        scratch: &mut AddressBatch,
    ) {
        let StreamState {
            mapping,
            row_offset,
            queues,
            cursors,
            admitted,
            ..
        } = state;
        let row_offset = *row_offset;
        let cursor = &mut cursors[channel];
        let queue = &mut queues[channel];
        let before = queue.len();
        while queue.len() - before < GEN_CHUNK {
            scratch.clear();
            let routed = match &mut cursor.walk {
                Some(walk) => mapping.route_next(walk, scratch),
                None => 0,
            };
            let Some(walk) = cursor.walk.filter(|_| routed > 0) else {
                // The block's walk is over (or none has started yet).
                let Some(&(block, slot)) = admitted.get(cursor.idx) else {
                    break;
                };
                let phase = spec.pattern.phase(block);
                cursor.walk = Some(ChannelCursor::new(phase, channel as u32));
                cursor.slot = slot;
                cursor.idx += 1;
                continue;
            };
            for index in 0..routed {
                let mut address = scratch.address(index);
                address.row = (address.row + row_offset) % rows;
                let request = match walk.phase() {
                    AccessPhase::Write => Request::write(address),
                    AccessPhase::Read => Request::read(address),
                };
                queue.push_back(Tagged {
                    request,
                    slot: cursor.slot,
                });
            }
        }
    }

    /// Fills every channel's free queue slots from the ready streams the
    /// policy selects, tagging each enqueued request for completion
    /// attribution.
    fn fill_channels(&mut self) {
        let rows = self.geometry.rows;
        for channel in 0..self.channels as usize {
            loop {
                let free = self.router.controller(channel as u32).free_slots();
                if free == 0 {
                    break;
                }
                let Some(picked) = self.ready.pick(channel as u32) else {
                    break;
                };
                let weight = self.specs[picked as usize].weight();
                let serve = free.min(self.ready.quantum(weight));
                let mut served = 0u64;
                while (served as usize) < serve {
                    let Some(tagged) = self.streams[picked as usize].queues[channel].pop_front()
                    else {
                        break;
                    };
                    let flat = tagged.request.address.flat_bank(&self.geometry) as usize;
                    let accepted = self
                        .router
                        .controller_mut(channel as u32)
                        .enqueue(tagged.request);
                    debug_assert!(accepted, "enqueue within free_slots cannot fail");
                    self.tags[channel][flat].push_back((picked, tagged.slot));
                    served += 1;
                    if self.streams[picked as usize].queues[channel].is_empty() {
                        Self::refill_channel(
                            &mut self.streams[picked as usize],
                            &self.specs[picked as usize],
                            channel,
                            rows,
                            &mut self.scratch,
                        );
                    }
                }
                self.ready.on_served(picked, served, weight);
                self.rekey(channel, picked);
                if served == 0 {
                    break;
                }
            }
        }
    }

    /// Drains every controller's completion log and attributes each
    /// retirement to its block through the per-bank tag FIFOs, recording
    /// latency and releasing retired blocks back to the pool.
    fn collect_completions(&mut self) {
        for channel in 0..self.channels as usize {
            for completion in self
                .router
                .controller_mut(channel as u32)
                .drain_completions()
            {
                let (stream, slot) = self.tags[channel][completion.flat_bank as usize]
                    .pop_front()
                    .expect("every completion has a tagged enqueue");
                let block = self.pool.get_mut(slot);
                debug_assert_eq!(block.stream, stream);
                let latency = completion.data_end.saturating_sub(block.arrival);
                block.remaining -= 1;
                block.last_completion = block.last_completion.max(completion.data_end);
                let retired = block.remaining == 0;
                let missed = retired && block.last_completion > block.deadline;
                let state = &mut self.streams[stream as usize];
                state.latency.record(latency);
                if retired {
                    state.blocks_completed += 1;
                    if missed {
                        state.deadline_misses += 1;
                    }
                    self.pool.release(slot);
                }
            }
        }
    }

    /// Builds the final report from the router's statistics window and the
    /// per-stream accounting.
    fn report(self) -> SchedReport {
        let stats = self.router.stats();
        let tenants = self
            .specs
            .into_iter()
            .zip(self.streams)
            .map(|(spec, state)| TenantReport {
                tenant: spec.tenant,
                qos: spec.qos,
                requests: state.latency.count(),
                blocks: state.blocks_completed,
                deadline_misses: state.deadline_misses,
                latency: state.latency,
            })
            .collect();
        SchedReport {
            policy: self.ready.kind(),
            stats,
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArrivalModel, PhasePattern};
    use tbi_dram::{ChannelTopology, DramStandard};
    use tbi_interleaver::InterleaverSpec;

    fn config(channels: u32) -> DramConfig {
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(channels, 1))
    }

    fn run_with(config: DramConfig, streams: Vec<StreamSpec>, sched: SchedConfig) -> SchedReport {
        StreamScheduler::new(config, ControllerConfig::default(), streams, sched)
            .unwrap()
            .run()
    }

    #[test]
    fn empty_stream_list_is_rejected() {
        let err = StreamScheduler::new(
            config(2),
            ControllerConfig::default(),
            Vec::new(),
            SchedConfig::new(SchedPolicyKind::RoundRobin),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, SchedError::NoStreams));
    }

    #[test]
    fn every_request_completes_and_blocks_retire() {
        let spec = InterleaverSpec::from_burst_count(1_500);
        let streams = vec![
            StreamSpec::new("a", spec).with_blocks(2),
            StreamSpec::new("b", spec)
                .with_qos(QosClass::Premium)
                .with_pattern(PhasePattern::Alternating)
                .with_blocks(3),
        ];
        let per_block = streams[0].requests_per_block();
        let report = run_with(
            config(2),
            streams,
            SchedConfig::new(SchedPolicyKind::WeightedShare),
        );
        assert_eq!(report.tenants[0].requests, 2 * per_block);
        assert_eq!(report.tenants[1].requests, 3 * per_block);
        assert_eq!(report.tenants[0].blocks, 2);
        assert_eq!(report.tenants[1].blocks, 3);
        assert_eq!(report.stats.aggregate().completed_requests, 5 * per_block);
        for tenant in &report.tenants {
            assert!(tenant.latency.p99() >= tenant.latency.p50());
            assert!(tenant.latency.max() > 0);
        }
        let fairness = report.fairness_index();
        assert!(fairness > 0.0 && fairness <= 1.0);
    }

    #[test]
    fn periodic_arrivals_admit_after_idle_and_complete() {
        let spec = InterleaverSpec::from_burst_count(300);
        // An interval far beyond a block's service time leaves every
        // channel idle before each later block arrives.
        let streams = vec![StreamSpec::new("periodic", spec)
            .with_blocks(3)
            .with_arrival(ArrivalModel::Periodic {
                interval_cycles: 50_000_000,
            })];
        let report = run_with(config(2), streams, SchedConfig::new(SchedPolicyKind::Edf));
        assert_eq!(report.tenants[0].blocks, 3);
        assert_eq!(
            report.tenants[0].requests,
            report.tenants[0].latency.count()
        );
        // The channels idle until each block arrives, so no request is
        // served before its block exists.
        assert!(report.tenants[0].latency.min() > 0);
        for stats in report.stats.per_channel() {
            assert!(stats.elapsed_cycles > 100_000_000, "{stats:?}");
        }
    }

    #[test]
    fn tight_pool_budget_still_completes_all_work() {
        let spec = InterleaverSpec::from_burst_count(800);
        let streams = vec![
            StreamSpec::new("a", spec).with_blocks(4),
            StreamSpec::new("b", spec).with_blocks(4),
        ];
        let per_block = streams[0].requests_per_block();
        let report = run_with(
            config(2),
            streams,
            SchedConfig::new(SchedPolicyKind::RoundRobin).with_max_in_flight(1),
        );
        assert_eq!(report.total_requests(), 8 * per_block);
        assert_eq!(report.tenants[0].blocks, 4);
        assert_eq!(report.tenants[1].blocks, 4);
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let spec = InterleaverSpec::from_burst_count(1_000);
        let build = || {
            vec![
                StreamSpec::new("a", spec)
                    .with_qos(QosClass::Premium)
                    .with_blocks(2),
                StreamSpec::new("b", spec).with_blocks(2),
                StreamSpec::new("c", spec)
                    .with_qos(QosClass::BestEffort)
                    .with_pattern(PhasePattern::Read)
                    .with_blocks(2),
            ]
        };
        for policy in SchedPolicyKind::ALL {
            let first = run_with(config(2), build(), SchedConfig::new(policy));
            let second = run_with(config(2), build(), SchedConfig::new(policy));
            assert_eq!(first, second, "{policy}");
        }
    }

    #[test]
    fn best_effort_deadlines_never_miss_and_premium_can() {
        let spec = InterleaverSpec::from_burst_count(4_000);
        let streams = vec![
            StreamSpec::new("premium", spec)
                .with_qos(QosClass::Premium)
                .with_blocks(2),
            StreamSpec::new("background", spec)
                .with_qos(QosClass::BestEffort)
                .with_blocks(2),
        ];
        let report = run_with(config(1), streams, SchedConfig::new(SchedPolicyKind::Edf));
        assert_eq!(report.tenants[1].deadline_misses, 0);
        assert_eq!(
            report.total_deadline_misses(),
            report.tenants[0].deadline_misses
        );
    }
}
