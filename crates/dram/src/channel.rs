//! Multi-channel scale-out: one [`Controller`] per channel.
//!
//! DRAM channels are fully independent — each has its own command/address
//! bus, data bus and controller — so a multi-channel subsystem multiplies
//! peak bandwidth by the channel count.  The [`ChannelRouter`] owns one
//! [`Controller`] per channel of the configuration's
//! [`ChannelTopology`](crate::ChannelTopology) and feeds each channel from
//! its own [`RequestSource`].
//!
//! Every phase runs through one saturating loop per channel: admit exactly
//! the free queue slots from a slice pulled off the channel's source, step
//! the controller until it can accept again, repeat, then drain.  The
//! router is also the single-channel driver: a `1 × 1` router fed
//! `vec![IteratorSource(trace)]` runs one controller over one trace.
//! Aggregation happens in [`CombinedStats`]: byte counts and
//! command counts sum across channels, while the elapsed time of the
//! subsystem is the **maximum** over the per-channel elapsed times (the
//! slowest channel finishes last).
//!
//! # Threaded drive mode
//!
//! Because the channels share no state, a channel's statistics depend only
//! on its own request stream — not on sibling traffic, nor on the order in
//! which channels are driven.  [`ChannelRouter::run_phase_sources_threaded`]
//! therefore drives the channels on worker threads and reassembles the
//! per-channel [`Stats`] in channel order at the join: the result is
//! **bit-identical for any thread count**.  The per-channel loop is also
//! the projection of the laggard-first global schedule (always advance the
//! channel whose clock is furthest behind) onto one channel;
//! `tests/parallel_differential.rs` keeps that schedule as its oracle, and
//! the `tbi_sched` stream scheduler, whose picks look across channels,
//! still drives that way through [`ChannelRouter::laggard_channel`] and
//! [`ChannelRouter::controller_mut`].  See `docs/ARCHITECTURE.md` for the
//! worker protocol and its determinism invariants.

use crate::controller::{Controller, ControllerConfig};
use crate::error::ConfigError;
use crate::request::RequestSource;
use crate::standards::DramConfig;
use crate::stats::Stats;

/// Per-channel statistics of one measurement window plus aggregation
/// helpers.
///
/// # Examples
///
/// ```
/// use tbi_dram::channel::CombinedStats;
/// use tbi_dram::Stats;
///
/// let mut fast = Stats::new();
/// fast.elapsed_cycles = 100;
/// fast.data_bus_busy_cycles = 90;
/// let mut slow = Stats::new();
/// slow.elapsed_cycles = 120;
/// slow.data_bus_busy_cycles = 84;
/// let combined = CombinedStats::new(vec![fast, slow]);
/// assert_eq!(combined.aggregate().elapsed_cycles, 120);
/// assert_eq!(combined.aggregate().data_bus_busy_cycles, 174);
/// assert!((combined.utilization() - 174.0 / 240.0).abs() < 1e-12);
/// assert!((combined.utilization_spread() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CombinedStats {
    per_channel: Vec<Stats>,
}

impl CombinedStats {
    /// Wraps per-channel statistics (one entry per channel, channel order).
    #[must_use]
    pub fn new(per_channel: Vec<Stats>) -> Self {
        Self { per_channel }
    }

    /// The per-channel statistics in channel order.
    #[must_use]
    pub fn per_channel(&self) -> &[Stats] {
        &self.per_channel
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.per_channel.len()
    }

    /// Aggregated statistics: every counter sums across channels except
    /// `elapsed_cycles`, which is the maximum (channels run concurrently, so
    /// the subsystem finishes when the slowest channel does).
    ///
    /// The reduction uses only commutative, associative operations
    /// (unsigned sums and an unsigned max), so the result is independent of
    /// the order in which per-channel entries are visited — a property the
    /// threaded drive mode relies on and a unit test pins.  The
    /// `per_channel` vector itself is always assembled in channel order by
    /// [`ChannelRouter::stats`], regardless of which worker thread finished
    /// first.
    ///
    /// For a single channel this returns that channel's statistics
    /// unchanged.
    #[must_use]
    pub fn aggregate(&self) -> Stats {
        let mut total = Stats::new();
        let mut max_elapsed = 0u64;
        for stats in &self.per_channel {
            total.merge(stats);
            max_elapsed = max_elapsed.max(stats.elapsed_cycles);
        }
        total.elapsed_cycles = max_elapsed;
        total
    }

    /// Aggregate data-bus utilization in `[0, 1]`: total busy cycles over
    /// `channels × max elapsed` — the fraction of the subsystem's combined
    /// bus-time that carried data.  Idle tail cycles of faster channels count
    /// against it, exactly as they would in hardware.
    ///
    /// Like [`CombinedStats::aggregate`], the computation reduces with a sum
    /// and a max only, so it is independent of per-channel visiting order
    /// (threading-order-independent by construction).
    ///
    /// Returns exactly `0.0` (never NaN) when the set is empty or no channel
    /// has elapsed cycles, so zero-traffic windows serialize cleanly.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let elapsed = self.aggregate().elapsed_cycles;
        if elapsed == 0 || self.per_channel.is_empty() {
            return 0.0;
        }
        let busy: u64 = self
            .per_channel
            .iter()
            .map(|s| s.data_bus_busy_cycles)
            .sum();
        busy as f64 / (elapsed as f64 * self.per_channel.len() as f64)
    }

    /// Spread (max − min) of the per-channel bus utilizations: 0 for a
    /// single channel or a perfectly balanced stripe, larger when the
    /// channel-interleaved mapping leaves some channels under-loaded.
    ///
    /// Edge cases are defined (and pinned by tests) so no NaN can leak into
    /// serialized records: an empty set and a single channel both yield
    /// exactly `0.0`, and a zero-traffic channel (zero elapsed cycles)
    /// contributes a utilization of `0.0` — so one idle channel next to one
    /// busy channel yields the busy channel's utilization as the spread.
    #[must_use]
    pub fn utilization_spread(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for stats in &self.per_channel {
            // `bus_utilization` defines 0/0 as 0.0, keeping idle channels
            // finite here.
            let u = stats.bus_utilization();
            min = min.min(u);
            max = max.max(u);
        }
        if self.per_channel.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Aggregate achieved bandwidth in Gbit/s: the subsystem-wide
    /// utilization scaled by the combined peak of all channel buses.
    #[must_use]
    pub fn aggregate_bandwidth_gbps(&self, clock_mhz: f64, bus_width_bits: u32) -> f64 {
        self.utilization()
            * clock_mhz
            * 1.0e6
            * 2.0
            * f64::from(bus_width_bits)
            * self.per_channel.len() as f64
            / 1.0e9
    }
}

/// One [`Controller`] per channel, each fed from its own request source.
///
/// # Examples
///
/// ```
/// use tbi_dram::channel::ChannelRouter;
/// use tbi_dram::{ChannelTopology, ControllerConfig, DramConfig, DramStandard};
/// use tbi_dram::{IteratorSource, Request};
///
/// # fn main() -> Result<(), tbi_dram::ConfigError> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?
///     .with_topology(ChannelTopology::new(2, 1));
/// let mut router = ChannelRouter::new(config.clone(), ControllerConfig::default())?;
/// // Stripe 4096 sequential bursts across both channels.
/// let decoder = config.linear_decoder()?;
/// let sources = (0..2u64)
///     .map(|c| {
///         IteratorSource(
///             (0..4096u64)
///                 .filter(move |i| i % 2 == c)
///                 .map(move |i| Request::write(decoder.decode(i / 2).1)),
///         )
///     })
///     .collect();
/// let stats = router.run_phase_sources_threaded(sources, 2);
/// assert_eq!(stats.aggregate().completed_requests, 4096);
/// assert!(stats.utilization() > 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ChannelRouter {
    controllers: Vec<Controller>,
}

impl ChannelRouter {
    /// Creates one controller per channel of `config.topology`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the DRAM or controller configuration is
    /// invalid.
    pub fn new(config: DramConfig, ctrl: ControllerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let controllers = (0..config.topology.channels)
            .map(|_| Controller::new(config.clone(), ctrl))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { controllers })
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.controllers.len() as u32
    }

    /// The controller of channel `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn controller(&self, channel: u32) -> &Controller {
        &self.controllers[channel as usize]
    }

    /// Mutable access to the controller of channel `channel` — the seam
    /// external drive loops (e.g. the `tbi_sched` stream scheduler) use to
    /// enqueue requests, step the laggard and drain completion logs.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn controller_mut(&mut self, channel: u32) -> &mut Controller {
        &mut self.controllers[channel as usize]
    }

    /// The channel whose local clock is furthest behind among channels with
    /// pending requests — the next channel a laggard-first drive advances —
    /// or `None` when no channel has pending work.
    #[must_use]
    pub fn laggard_channel(&self) -> Option<u32> {
        self.controllers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.pending_requests() > 0)
            .min_by_key(|(_, c)| c.now())
            .map(|(channel, _)| channel as u32)
    }

    /// The DRAM configuration shared by every channel.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        self.controllers[0].config()
    }

    /// Feeds one [`RequestSource`] per channel through that channel's
    /// controller, keeping its queue saturated, then drains every channel
    /// and returns the per-channel statistics of the window.
    ///
    /// The channels are driven in channel order on `threads` workers
    /// (clamped to `1..=channels`; one thread drives them inline on the
    /// calling thread).  Channels never read each other's state, so the
    /// result is **bit-identical for any `threads` value**: it does not
    /// depend on the thread count, the channel-to-worker assignment or the
    /// order in which workers finish, and with completion logging enabled
    /// the per-channel completion logs are identical too.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the channel count.
    pub fn run_phase_sources_threaded<S: RequestSource + Send>(
        &mut self,
        sources: Vec<S>,
        threads: usize,
    ) -> CombinedStats {
        let threads = threads.clamp(1, self.controllers.len().max(1));
        if threads == 1 {
            return self.run_phase_sources(sources);
        }
        assert_sources(sources.len(), self.controllers.len());
        // Contiguous chunks of channels per worker: the chunking only
        // balances the load, each channel's work is independent of it.
        let chunk = self.controllers.len().div_ceil(threads);
        let mut sources = sources.into_iter();
        std::thread::scope(|scope| {
            for controllers in self.controllers.chunks_mut(chunk) {
                let chunk_sources: Vec<S> = sources.by_ref().take(controllers.len()).collect();
                scope.spawn(move || {
                    for (controller, source) in controllers.iter_mut().zip(chunk_sources) {
                        drive_channel(controller, source);
                    }
                });
            }
        });
        self.stats()
    }

    /// [`ChannelRouter::run_phase_sources_threaded`] on one thread: drives
    /// the channels inline, in channel order.  Unlike the threaded entry
    /// point it accepts sources that cannot cross threads.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the channel count.
    ///
    /// # Examples
    ///
    /// Stream a saturated sequence of writes through a single DDR4-3200
    /// channel:
    ///
    /// ```
    /// use tbi_dram::{ChannelRouter, ControllerConfig, DramConfig, DramStandard};
    /// use tbi_dram::{IteratorSource, Request};
    ///
    /// # fn main() -> Result<(), tbi_dram::ConfigError> {
    /// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?;
    /// let mut router = ChannelRouter::new(config.clone(), ControllerConfig::default())?;
    /// let decoder = config.linear_decoder()?;
    /// let trace = (0..4096).map(|i| Request::write(decoder.decode(i).1));
    /// let stats = router.run_phase_sources(vec![IteratorSource(trace)]).aggregate();
    /// assert_eq!(stats.completed_requests, 4096);
    /// assert!(stats.bus_utilization() > 0.8);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_phase_sources<S: RequestSource>(&mut self, sources: Vec<S>) -> CombinedStats {
        assert_sources(sources.len(), self.controllers.len());
        for (controller, source) in self.controllers.iter_mut().zip(sources) {
            drive_channel(controller, source);
        }
        self.stats()
    }

    /// Drains every channel to completion, optionally in parallel.
    ///
    /// Draining is a per-channel operation (step until idle, then finalize
    /// the elapsed window), so running the drains on `threads` workers
    /// produces bit-identical controller state to draining each channel in
    /// channel order.  External drive loops whose *decision* phase is
    /// inherently sequential — the `tbi_sched` stream scheduler's policy
    /// loop — use this to parallelize their final drain segment.
    pub fn drain_all(&mut self, threads: usize) {
        let threads = threads.clamp(1, self.controllers.len().max(1));
        if threads <= 1 {
            for controller in &mut self.controllers {
                controller.drain();
            }
            return;
        }
        let chunk = self.controllers.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for controllers in self.controllers.chunks_mut(chunk) {
                scope.spawn(move || {
                    for controller in controllers {
                        controller.drain();
                    }
                });
            }
        });
    }

    /// Snapshot of every channel's current statistics window.
    #[must_use]
    pub fn stats(&self) -> CombinedStats {
        CombinedStats::new(self.controllers.iter().map(|c| c.stats().clone()).collect())
    }

    /// Resets every channel's statistics window (bank and queue state are
    /// preserved, so a write phase can be followed by a measured read
    /// phase).
    pub fn reset_stats(&mut self) {
        for controller in &mut self.controllers {
            controller.reset_stats();
        }
    }
}

fn assert_sources(sources: usize, channels: usize) {
    assert_eq!(sources, channels, "one request source per channel required");
}

/// Requests a drive pulls from its source per refill.
const REFILL: usize = 4096;

/// Drives one channel through a phase — the crate's only fill-and-step
/// loop, shared by [`ChannelRouter`]'s inline and threaded drives.
///
/// Each pass admits exactly the controller's free queue slots from a slice
/// pulled off `source` ([`REFILL`] requests at a time), then steps the
/// controller until it can accept again: while the queue is full no
/// request can arrive, so stepping on is indistinguishable from
/// re-entering the loop.  The source is never asked again after its first
/// `fill` returning 0; the loop ends when a pass leaves the channel with no
/// pending work, and the controller then drains.  The admitted sequence is
/// the source's sequence whatever its slice sizes, so the statistics do not
/// depend on how the source batches its work.
pub(crate) fn drive_channel<S: RequestSource>(controller: &mut Controller, mut source: S) {
    let mut slice = Vec::with_capacity(REFILL);
    let mut next = 0;
    let mut exhausted = false;
    loop {
        let mut free = controller.free_slots();
        while free > 0 && !exhausted {
            if next == slice.len() {
                slice.clear();
                next = 0;
                exhausted = source.fill(&mut slice, REFILL) == 0;
                continue;
            }
            let admit = free.min(slice.len() - next);
            for &request in &slice[next..next + admit] {
                let accepted = controller.enqueue(request);
                debug_assert!(accepted, "enqueue within free_slots cannot fail");
            }
            next += admit;
            free -= admit;
        }
        if controller.pending_requests() == 0 {
            break;
        }
        controller.step();
        while !controller.can_accept() && controller.pending_requests() > 0 {
            controller.step();
        }
    }
    controller.drain();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::RefreshMode;
    use crate::geometry::ChannelTopology;
    use crate::request::{IteratorSource, Request};
    use crate::standards::DramStandard;
    use std::cell::Cell;

    fn config(channels: u32, ranks: u32) -> DramConfig {
        DramConfig::preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .with_topology(ChannelTopology::new(channels, ranks))
    }

    fn sequential(config: &DramConfig, n: u64) -> impl Iterator<Item = Request> + Send {
        let decoder = config.linear_decoder().unwrap();
        (0..n).map(move |i| Request::write(decoder.decode(i).1))
    }

    fn sources<I: Iterator<Item = Request>>(traces: Vec<I>) -> Vec<IteratorSource<I>> {
        traces.into_iter().map(IteratorSource).collect()
    }

    /// Runs `trace` through a fresh `1 × 1` router: one phase window.
    fn single_channel<I: Iterator<Item = Request>>(
        cfg: &DramConfig,
        ctrl: ControllerConfig,
        trace: I,
    ) -> Stats {
        let mut router = ChannelRouter::new(cfg.clone(), ctrl).unwrap();
        router.run_phase_sources(sources(vec![trace])).aggregate()
    }

    #[test]
    fn single_channel_router_matches_a_plain_controller_loop_bit_exactly() {
        // The reference admits one request at a time and steps whenever the
        // queue rejects one: no slices, no free-slot batching.
        let cfg = config(1, 1);
        let n = 20_000u64;
        let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let combined = router.run_phase_sources(sources(vec![sequential(&cfg, n)]));
        let mut controller = Controller::new(cfg.clone(), ControllerConfig::default()).unwrap();
        for request in sequential(&cfg, n) {
            while !controller.enqueue(request) {
                controller.step();
            }
        }
        controller.drain();
        let reference = controller.stats().clone();
        assert_eq!(combined.per_channel(), std::slice::from_ref(&reference));
        assert_eq!(combined.aggregate(), reference);
    }

    #[test]
    fn single_channel_phase_completes_every_request() {
        let cfg = DramConfig::preset(DramStandard::Ddr3, 1600).unwrap();
        let n = 10_000u64;
        let stats = single_channel(&cfg, ControllerConfig::default(), sequential(&cfg, n));
        assert_eq!(stats.completed_requests, n);
        assert_eq!(stats.write_bursts, n);
        assert_eq!(stats.read_bursts, 0);
    }

    #[test]
    fn sequential_writes_then_reads_measured_separately() {
        let cfg = DramConfig::preset(DramStandard::Ddr4, 1600).unwrap();
        let decoder = cfg.linear_decoder().unwrap();
        let n = 5_000u64;
        let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let write_stats = router
            .run_phase_sources(sources(vec![sequential(&cfg, n)]))
            .aggregate();
        router.reset_stats();
        let read_stats = router
            .run_phase_sources(sources(vec![
                (0..n).map(|i| Request::read(decoder.decode(i).1))
            ]))
            .aggregate();
        assert_eq!(write_stats.write_bursts, n);
        assert_eq!(read_stats.read_bursts, n);
        assert!(write_stats.bus_utilization() > 0.5);
        assert!(read_stats.bus_utilization() > 0.5);
    }

    #[test]
    fn random_pattern_is_slower_than_sequential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
        let decoder = cfg.linear_decoder().unwrap();
        let n = 20_000u64;
        let ctrl = ControllerConfig {
            refresh_mode: Some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        };
        let seq = single_channel(
            &cfg,
            ctrl,
            (0..n).map(|i| Request::read(decoder.decode(i).1)),
        );
        let mut rng = StdRng::seed_from_u64(7);
        let total = cfg.geometry.total_bursts();
        let rnd = single_channel(
            &cfg,
            ctrl,
            (0..n).map(|_| Request::read(decoder.decode(rng.gen_range(0..total)).1)),
        );
        assert!(
            seq.bus_utilization() > rnd.bus_utilization(),
            "sequential {} should beat random {}",
            seq.bus_utilization(),
            rnd.bus_utilization()
        );
        assert!(rnd.row_hit_rate() < seq.row_hit_rate());
    }

    #[test]
    fn two_channels_double_completed_work_at_similar_elapsed_time() {
        let n = 20_000u64;
        let single_cfg = config(1, 1);
        let mut single =
            ChannelRouter::new(single_cfg.clone(), ControllerConfig::default()).unwrap();
        let single_stats = single.run_phase_sources(sources(vec![sequential(&single_cfg, n)]));

        let dual_cfg = config(2, 1);
        let mut dual = ChannelRouter::new(dual_cfg.clone(), ControllerConfig::default()).unwrap();
        let dual_stats = dual.run_phase_sources(sources(vec![
            sequential(&dual_cfg, n),
            sequential(&dual_cfg, n),
        ]));

        assert_eq!(
            dual_stats.aggregate().completed_requests,
            2 * single_stats.aggregate().completed_requests
        );
        // Each channel runs the same stream, so the (max) elapsed time stays
        // flat and the aggregate bandwidth doubles.
        assert_eq!(
            dual_stats.aggregate().elapsed_cycles,
            single_stats.aggregate().elapsed_cycles
        );
        let single_bw = single_stats.aggregate_bandwidth_gbps(single_cfg.clock_mhz(), 64);
        let dual_bw = dual_stats.aggregate_bandwidth_gbps(dual_cfg.clock_mhz(), 64);
        assert!(
            dual_bw > 1.95 * single_bw,
            "aggregate bandwidth should double: {single_bw} vs {dual_bw}"
        );
        assert_eq!(dual_stats.utilization_spread(), 0.0);
    }

    #[test]
    fn per_channel_stats_are_independent_of_sibling_traffic() {
        // Channel 0 gets the same stream in both runs; channel 1's load must
        // not change channel 0's statistics.
        let cfg = config(2, 1);
        let n = 8_000u64;
        let run = |sibling: u64| {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            let traces = vec![sequential(&cfg, n), sequential(&cfg, sibling)];
            router.run_phase_sources(sources(traces)).per_channel()[0].clone()
        };
        assert_eq!(run(0), run(3 * n));
    }

    #[test]
    fn dual_rank_channel_completes_and_pays_rank_switches() {
        // Two bus-saturating streams that rotate bank groups identically;
        // one stays on rank 0, the other also flips the rank every access
        // and must pay the tRTRS bubble on top, while still completing
        // everything.
        use crate::address::PhysicalAddress;
        let cfg = config(1, 2);
        let n = 400u64;
        let addr = |i: u64, alternate: bool| {
            let rank = if alternate { (i % 2) as u32 } else { 0 };
            PhysicalAddress::new((i % 4) as u32, 0, 0, (i / 4) as u32).with_rank(rank)
        };
        let run = |alternate: bool| {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            router
                .run_phase_sources(sources(vec![
                    (0..n).map(move |i| Request::write(addr(i, alternate)))
                ]))
                .aggregate()
        };
        let same = run(false);
        let alternating = run(true);
        assert_eq!(same.completed_requests, n);
        assert_eq!(alternating.completed_requests, n);
        assert!(
            alternating.elapsed_cycles > same.elapsed_cycles,
            "rank alternation must pay switch bubbles: {} vs {}",
            alternating.elapsed_cycles,
            same.elapsed_cycles
        );
    }

    #[test]
    fn empty_combined_stats_are_zero() {
        let empty = CombinedStats::default();
        assert_eq!(empty.utilization(), 0.0);
        assert_eq!(empty.utilization_spread(), 0.0);
        assert_eq!(empty.aggregate(), Stats::new());
    }

    #[test]
    fn single_channel_combined_stats_are_the_channel_stats() {
        let mut stats = Stats::new();
        stats.elapsed_cycles = 500;
        stats.data_bus_busy_cycles = 400;
        stats.completed_requests = 100;
        let combined = CombinedStats::new(vec![stats.clone()]);
        assert_eq!(combined.aggregate(), stats);
        assert_eq!(combined.utilization_spread(), 0.0);
        assert!((combined.utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_channels_never_produce_nan() {
        // An idle channel (zero elapsed cycles) next to a busy one: every
        // derived metric must stay finite, with the idle channel counting as
        // utilization 0.
        let mut busy = Stats::new();
        busy.elapsed_cycles = 200;
        busy.data_bus_busy_cycles = 150;
        let combined = CombinedStats::new(vec![busy, Stats::new()]);
        assert!(combined.utilization().is_finite());
        assert!((combined.utilization() - 150.0 / 400.0).abs() < 1e-12);
        assert!((combined.utilization_spread() - 0.75).abs() < 1e-12);
        assert!(combined.aggregate_bandwidth_gbps(1600.0, 64).is_finite());
        assert_eq!(combined.aggregate().elapsed_cycles, 200);

        // All channels idle: everything is exactly zero.
        let idle = CombinedStats::new(vec![Stats::new(), Stats::new()]);
        assert_eq!(idle.utilization(), 0.0);
        assert_eq!(idle.utilization_spread(), 0.0);
        assert_eq!(idle.aggregate_bandwidth_gbps(1600.0, 64), 0.0);
    }

    #[test]
    fn combined_stats_reduction_is_order_independent() {
        // The aggregate/utilization/spread reductions use only commutative,
        // associative operations (sums, max, min), so any permutation of the
        // per-channel entries yields identical derived metrics.  This is the
        // property that makes the threaded drive mode safe: it never matters
        // which worker finishes first, only that `stats()` assembles the
        // vector in channel order.
        let mut a = Stats::new();
        a.elapsed_cycles = 120;
        a.data_bus_busy_cycles = 84;
        a.completed_requests = 7;
        let mut b = Stats::new();
        b.elapsed_cycles = 100;
        b.data_bus_busy_cycles = 90;
        b.row_hits = 3;
        let mut c = Stats::new();
        c.elapsed_cycles = 50;
        c.data_bus_busy_cycles = 10;
        c.stall_cycles = 5;
        let reference = CombinedStats::new(vec![a.clone(), b.clone(), c.clone()]);
        let permutations = [
            vec![a.clone(), c.clone(), b.clone()],
            vec![b.clone(), a.clone(), c.clone()],
            vec![b.clone(), c.clone(), a.clone()],
            vec![c.clone(), a.clone(), b.clone()],
            vec![c, b, a],
        ];
        for permuted in permutations {
            let combined = CombinedStats::new(permuted);
            assert_eq!(combined.aggregate(), reference.aggregate());
            assert_eq!(combined.utilization(), reference.utilization());
            assert_eq!(
                combined.utilization_spread(),
                reference.utilization_spread()
            );
            assert_eq!(
                combined.aggregate_bandwidth_gbps(1600.0, 64),
                reference.aggregate_bandwidth_gbps(1600.0, 64)
            );
        }
    }

    #[test]
    fn threaded_run_phase_is_bit_identical_for_any_thread_count() {
        // Four channels with deliberately unbalanced streams; every thread
        // count (including one that does not divide the channel count) must
        // reproduce the inline one-thread CombinedStats bit-exactly.
        let cfg = config(4, 1);
        let lengths = [9_000u64, 500, 4_321, 7];
        let traces = |cfg: &DramConfig| -> Vec<_> {
            lengths
                .iter()
                .map(|&n| IteratorSource(sequential(cfg, n)))
                .collect()
        };
        let mut inline = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let reference = inline.run_phase_sources(traces(&cfg));
        for threads in [1usize, 2, 3, 4, 16] {
            let mut threaded =
                ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            let stats = threaded.run_phase_sources_threaded(traces(&cfg), threads);
            assert_eq!(stats, reference, "threads={threads}");
        }
    }

    #[test]
    fn threaded_run_phase_preserves_completion_log_ordering() {
        // With completion logging on, the per-channel completion logs (the
        // per-request ordering the stream scheduler observes) must match the
        // inline drive exactly, channel by channel.
        let cfg = config(2, 1);
        let n = 3_000u64;
        let run = |threads: Option<usize>| {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            for channel in 0..2 {
                router.controller_mut(channel).set_completion_logging(true);
            }
            let traces = sources(vec![sequential(&cfg, n), sequential(&cfg, n / 3)]);
            let stats = match threads {
                None => router.run_phase_sources(traces),
                Some(t) => router.run_phase_sources_threaded(traces, t),
            };
            let logs: Vec<Vec<_>> = (0..2)
                .map(|c| router.controller_mut(c).drain_completions().collect())
                .collect();
            (stats, logs)
        };
        let (reference_stats, reference_logs) = run(None);
        for threads in [1usize, 2, 5] {
            let (stats, logs) = run(Some(threads));
            assert_eq!(stats, reference_stats, "threads={threads}");
            assert_eq!(logs, reference_logs, "threads={threads}");
        }
    }

    #[test]
    fn drain_all_threaded_matches_sequential_drain() {
        // Partially-filled queues drained in parallel must finalize exactly
        // the same per-channel windows as channel-order drains.
        let cfg = config(4, 1);
        let build = || {
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            for channel in 0..4u32 {
                for request in sequential(&cfg, 16 * (u64::from(channel) + 1)) {
                    assert!(router.controller_mut(channel).enqueue(request));
                }
            }
            router
        };
        let mut reference = build();
        reference.drain_all(1);
        for threads in [2usize, 3, 4] {
            let mut threaded = build();
            threaded.drain_all(threads);
            assert_eq!(threaded.stats(), reference.stats(), "threads={threads}");
        }
    }

    #[test]
    fn completion_logging_is_observational_and_complete() {
        let cfg = config(1, 1);
        let n = 5_000u64;
        let mut plain = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let plain_stats = plain.run_phase_sources(sources(vec![sequential(&cfg, n)]));

        let mut logged = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        logged.controller_mut(0).set_completion_logging(true);
        let logged_stats = logged.run_phase_sources(sources(vec![sequential(&cfg, n)]));
        assert_eq!(plain_stats, logged_stats, "logging must not perturb timing");

        let completions: Vec<_> = logged.controller_mut(0).drain_completions().collect();
        assert_eq!(completions.len() as u64, n);
        let geometry = cfg.geometry;
        let flat_banks = geometry.total_banks();
        for completion in &completions {
            assert!(completion.flat_bank < flat_banks);
            assert!(completion.data_end > 0);
        }
        // The log drains destructively.
        assert_eq!(logged.controller_mut(0).drain_completions().count(), 0);
    }

    /// Truncates an inner source after `limit` requests and then reports
    /// exhaustion (`fill` returning 0) even though the inner source could
    /// continue — the mid-phase cut-off of the exhaustion-semantics tests.
    struct TruncatedSource<S> {
        inner: S,
        limit: usize,
    }

    impl<S: RequestSource> RequestSource for TruncatedSource<S> {
        fn fill(&mut self, out: &mut Vec<Request>, max: usize) -> usize {
            if self.limit == 0 {
                return 0;
            }
            let before = out.len();
            let take = self.limit.min(max);
            self.inner.fill(out, take);
            out.truncate(before + self.limit.min(out.len() - before));
            let appended = out.len() - before;
            self.limit -= appended;
            appended
        }
    }

    #[test]
    fn mid_phase_source_exhaustion_terminates_and_matches_iterator_path() {
        // One channel's source dries up mid-phase (fill returns 0 after 1000
        // requests while the sibling channel still has work): the run must
        // terminate cleanly and stay bit-identical to scalar iterators
        // truncated at the same point.
        let cfg = config(2, 1);
        let n = 6_000u64;
        let cut = 1_000usize;
        let mut scalar = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let scalar_stats = scalar.run_phase_sources(vec![
            IteratorSource(Box::new(sequential(&cfg, n)) as Box<dyn Iterator<Item = Request>>),
            IteratorSource(Box::new(sequential(&cfg, n).take(cut))),
        ]);
        let mut batched = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let batched_stats = batched.run_phase_sources(vec![
            TruncatedSource {
                inner: IteratorSource(sequential(&cfg, n)),
                limit: usize::MAX,
            },
            TruncatedSource {
                inner: IteratorSource(sequential(&cfg, n)),
                limit: cut,
            },
        ]);
        assert_eq!(scalar_stats, batched_stats);
        assert_eq!(
            batched_stats.per_channel()[1].completed_requests,
            cut as u64
        );
    }

    /// Appends the scripted slice sizes in order, whatever `max` asks for,
    /// and counts its `fill` calls; a 0 entry reports exhaustion even when
    /// later entries remain.
    struct ScriptedSource<'a, I> {
        inner: I,
        slices: std::vec::IntoIter<usize>,
        calls: &'a Cell<usize>,
    }

    impl<I: Iterator<Item = Request>> RequestSource for ScriptedSource<'_, I> {
        fn fill(&mut self, out: &mut Vec<Request>, _max: usize) -> usize {
            self.calls.set(self.calls.get() + 1);
            let before = out.len();
            let size = self.slices.next().unwrap_or(0);
            out.extend(self.inner.by_ref().take(size));
            out.len() - before
        }
    }

    #[test]
    fn drive_admits_the_same_sequence_for_any_source_slice_size() {
        // Slices smaller than a queue, straddling the free-slot boundary,
        // and larger than the drive's own refill (a source may overshoot
        // `max`) all admit the source's sequence unchanged.
        let cfg = config(1, 1);
        let n = 12_000u64;
        let mut reference = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let expected = reference.run_phase_sources(sources(vec![sequential(&cfg, n)]));
        for size in [1usize, 7, 65, REFILL + 255, 3 * REFILL] {
            let calls = Cell::new(0);
            let source = ScriptedSource {
                inner: sequential(&cfg, n),
                slices: vec![size; n as usize].into_iter(),
                calls: &calls,
            };
            let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
            assert_eq!(
                router.run_phase_sources(vec![source]),
                expected,
                "slice size {size}"
            );
        }
    }

    #[test]
    fn drive_never_refills_after_the_source_reports_exhaustion() {
        // The source serves 5 then 3 requests, then reports exhaustion; a
        // later slice must never be requested or admitted.
        let cfg = config(1, 1);
        let calls = Cell::new(0);
        let source = ScriptedSource {
            inner: sequential(&cfg, 100),
            slices: vec![5, 3, 0, 4].into_iter(),
            calls: &calls,
        };
        let mut router = ChannelRouter::new(cfg.clone(), ControllerConfig::default()).unwrap();
        let stats = router.run_phase_sources(vec![source]);
        assert_eq!(stats.aggregate().completed_requests, 8);
        assert_eq!(calls.get(), 3);
    }
}
