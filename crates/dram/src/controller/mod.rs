//! The memory controller: transaction queues, command scheduling, timing
//! enforcement and refresh.
//!
//! The controller models a single-channel DRAM controller with per-bank
//! transaction queues, an FR-FCFS (first-ready, first-come-first-served)
//! scheduler under an open-page policy (a row stays open until a request to
//! another row of its bank or a refresh closes it), and a refresh engine.  It
//! issues at most one command per cycle while enforcing the JEDEC constraints
//! defined in [`TimingParams`](crate::TimingParams).
//!
//! ## Timing engines
//!
//! Every scheduling decision is one **pick**: among the candidate commands
//! (refresh work, then each bank's head request) the one with the smallest
//! `(max(ready, now), priority, seq)`, the first candidate considered winning
//! a tie.  The pick names the cycle `at` at which that command becomes
//! issuable.
//!
//! Time can be advanced in two ways (see [`TimingEngine`]):
//!
//! * **Event-driven** ([`Controller::advance`], the default) — one pick per
//!   *state transition*, from the incremental scheduler of the `event`
//!   module or, where that does not apply, from the full scan.  One step
//!   acts on either pick: it jumps the clock to `at` and issues the command,
//!   or stops at a refresh deadline that comes first.
//! * **Cycle-accurate** ([`Controller::tick`]) — the classic reference loop
//!   that spends exactly one device clock cycle per call: it takes the full
//!   scan's pick every cycle and issues it only when `at` is that cycle.  It
//!   is kept as the ground truth for tests that pin cycle-level behaviour.
//!
//! Both engines share the pick rule and the issue function; the only
//! difference is how the clock reaches the next decision point.  Because the
//! candidate set can only change when a command issues, when a refresh
//! deadline passes, or when a request arrives, the two engines make identical
//! decisions at identical cycles and produce bit-identical [`Stats`] — a
//! property pinned by the cross-engine golden tests (see
//! `tests/integration_engines.rs` at the workspace root).
//!
//! Most users drive the controller through a
//! [`ChannelRouter`](crate::ChannelRouter) (a `1 × 1` router for one channel)
//! rather than using it directly.

mod event;
mod queue;
mod refresh;

pub use queue::{CommandQueues, QueuedRequest};
pub use refresh::{RefreshEngine, RefreshMode};

use crate::bank::BankArray;
use crate::command::{Command, CommandKind};
use crate::error::ConfigError;
use crate::request::{Request, RequestKind};
use crate::standards::DramConfig;
use crate::stats::Stats;

/// Command scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulingPolicy {
    /// First-ready, first-come-first-served: the oldest *issuable* command
    /// wins, allowing reordering across banks.
    #[default]
    FrFcfs,
    /// Strict in-order service of the oldest request (no cross-bank
    /// reordering); useful as an ablation baseline.
    Fcfs,
}

/// How the controller advances its clock between scheduling decisions.
///
/// Both engines execute the *same* scheduler and therefore produce
/// bit-identical [`Stats`]; the event engine merely skips the cycles in
/// which the cycle engine would find nothing to do.  See the
/// [module documentation](self) for the invariants behind this guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingEngine {
    /// Cycle-accurate reference: one device clock cycle per step
    /// ([`Controller::tick`]).
    Cycle,
    /// Event-driven: jump directly to the next cycle at which any state
    /// transition can occur ([`Controller::advance`]).
    #[default]
    Event,
}

impl TimingEngine {
    /// Short lowercase name (`"cycle"` / `"event"`), e.g. for CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TimingEngine::Cycle => "cycle",
            TimingEngine::Event => "event",
        }
    }
}

impl std::fmt::Display for TimingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Controller configuration knobs.
///
/// The controller always runs the open-page policy.  Each option below is
/// one that a run, an oracle or a reference selects:
///
/// * `scheduling`: FCFS is the order under which the row-buffer oracle
///   (`tbi_interleaver::analysis`) is exact;
/// * `engine`: the cycle engine is the reference that `engine_speed` and
///   the differential tests compare the event engine against;
/// * `refresh_mode`: all three modes run (the presets' defaults and refresh
///   switched off);
/// * `queue_capacity`: a number, not a code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Total number of outstanding requests accepted by the transaction
    /// queues.
    pub queue_capacity: usize,
    /// Scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Refresh mode; `None` selects the standard's default
    /// ([`DramConfig::default_refresh`]).
    pub refresh_mode: Option<RefreshMode>,
    /// Clock-advancement strategy used by [`Controller::step`] (and thereby
    /// by every [`ChannelRouter`](crate::ChannelRouter) drive).
    pub engine: TimingEngine,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            scheduling: SchedulingPolicy::FrFcfs,
            refresh_mode: None,
            engine: TimingEngine::Event,
        }
    }
}

/// The scheduler's pick: the candidate with the smallest
/// `(max(ready, now), priority, seq)`.  Barring a refresh deadline before
/// `at`, `command` is what the controller issues at cycle `at` (`>= now`);
/// if it is a column command, the head request of `flat_bank` retires.
#[derive(Debug, Clone, Copy)]
struct Pick {
    at: u64,
    command: Command,
    flat_bank: usize,
}

/// The last column command on the channel; `group` is the **rank-qualified**
/// bank-group index (`rank * bank_groups + bank_group`), so same-group timing
/// (tCCD_L / tWTR_L) only applies within one rank.
#[derive(Debug, Clone, Copy)]
struct LastColumn {
    time: u64,
    group: u32,
}

/// One retired request, recorded by the opt-in completion log (see
/// [`Controller::set_completion_logging`]).
///
/// Requests of one bank retire in FIFO order (FR-FCFS only reorders *across*
/// banks), so a driver that mirrors its enqueues in per-bank FIFOs can
/// attribute each completion to the exact request that caused it from
/// `flat_bank` alone — the hook the stream scheduler's per-tenant latency
/// accounting is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Cycle at which the request's data burst leaves the bus (its
    /// contribution to [`Stats::elapsed_cycles`]).
    pub data_end: u64,
    /// Rank-qualified flat bank index of the retired request (see
    /// [`PhysicalAddress::flat_bank`](crate::PhysicalAddress::flat_bank)).
    pub flat_bank: u32,
}

/// A single-channel DRAM memory controller.
///
/// With a multi-rank [`ChannelTopology`](crate::ChannelTopology) the
/// controller serves `ranks * total_banks` banks; ranks replicate the bank
/// space and share the data bus, paying
/// [`TimingParams::t_rank_to_rank`](crate::TimingParams::t_rank_to_rank)
/// whenever consecutive data bursts come from different ranks.  Same-group
/// timings (tCCD_L, tRRD_L, tWTR_L) apply only within one rank's bank
/// groups.
#[derive(Debug, Clone)]
pub struct Controller {
    config: DramConfig,
    ctrl: ControllerConfig,
    // SoA-packed bank lanes: the scheduler scans touch one lane at a time,
    // so the hot loops stay on dense cache lines (see `BankArray`).
    banks: BankArray,
    queues: CommandQueues,
    refresh: RefreshEngine,
    stats: Stats,
    now: u64,
    window_start: u64,
    last_completion: u64,
    // Channel-level timing state.  Per-group state is indexed by the
    // rank-qualified group (`rank * bank_groups + bank_group`).
    last_act_any: Option<u64>,
    last_act_per_group: Vec<Option<u64>>,
    // Four-activate-window ring: slot `act_count & 3` is the next to be
    // overwritten and therefore holds the 4th-last ACT once `act_count >= 4`.
    act_ring: [u64; 4],
    act_count: u64,
    last_column: Option<LastColumn>,
    /// `(data end, rank-qualified group)` of the last write.
    last_write_data_end: Option<(u64, u32)>,
    data_bus_free_at: u64,
    last_data_was_write: Option<bool>,
    /// Rank of the last data burst (drives the rank-to-rank bus bubble;
    /// always `Some(0)`-or-`None` on single-rank channels, where the bubble
    /// can never apply).
    last_data_rank: Option<u32>,
    // Incremental head-candidate cache of the event engine (see `event`);
    // `head_addr` holds the candidates' target addresses out of line so the
    // selection scan array stays compact.
    head_cand: Vec<event::HeadCandidate>,
    head_addr: Vec<crate::address::PhysicalAddress>,
    // Per-(class, bank group) channel floor table with class-level dirty
    // tracking (column and activate floors are invalidated independently).
    floors: [u64; 32],
    floors_col_dirty: bool,
    floors_act_dirty: bool,
    // `fast_path_configured()` evaluated once at construction.
    fast_path_ok: bool,
    // Opt-in completion log (empty and disabled unless a driver asks for
    // it); purely observational, so enabling it cannot perturb scheduling
    // decisions or statistics.
    completion_log: Vec<Completion>,
    log_completions: bool,
}

impl Controller {
    /// Creates a controller for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the DRAM configuration or the controller
    /// configuration is invalid.
    pub fn new(config: DramConfig, ctrl: ControllerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        if ctrl.queue_capacity == 0 {
            return Err(ConfigError::InvalidController {
                field: "queue_capacity",
                reason: "must be at least 1".to_string(),
            });
        }
        // One controller serves every rank of its channel: the bank space is
        // replicated per rank, flat bank indices are rank-qualified.
        let ranks = config.topology.ranks as usize;
        let total_banks = config.geometry.total_banks() as usize * ranks;
        let refresh_mode = ctrl.refresh_mode.unwrap_or(config.default_refresh);
        let refresh = RefreshEngine::new(refresh_mode, &config.timing, total_banks as u32);
        let mut controller = Self {
            banks: BankArray::new(total_banks),
            queues: CommandQueues::new(total_banks, ctrl.queue_capacity),
            refresh,
            stats: Stats::new(),
            now: 0,
            window_start: 0,
            last_completion: 0,
            last_act_any: None,
            last_act_per_group: vec![None; config.geometry.bank_groups as usize * ranks],
            act_ring: [0; 4],
            act_count: 0,
            last_column: None,
            last_write_data_end: None,
            data_bus_free_at: 0,
            last_data_was_write: None,
            last_data_rank: None,
            head_cand: vec![event::HeadCandidate::default(); total_banks],
            head_addr: vec![crate::address::PhysicalAddress::default(); total_banks],
            floors: [0; 32],
            floors_col_dirty: true,
            floors_act_dirty: true,
            fast_path_ok: false,
            completion_log: Vec::new(),
            log_completions: false,
            config,
            ctrl,
        };
        controller.fast_path_ok = controller.fast_path_configured();
        Ok(controller)
    }

    /// The DRAM configuration simulated by this controller.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The effective refresh mode.
    #[must_use]
    pub fn refresh_mode(&self) -> RefreshMode {
        self.refresh.mode()
    }

    /// Current simulation time in device clock cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of requests currently queued.
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.queues.len()
    }

    /// Whether another request can be accepted right now.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queues.has_space()
    }

    /// Number of requests that can be accepted right now.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.queues.free_slots()
    }

    /// Statistics for the current measurement window.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Enables or disables the completion log.
    ///
    /// While enabled, every retired request appends a [`Completion`] entry
    /// (in retirement order) for the driver to collect via
    /// [`Controller::drain_completions`].  Logging is purely observational:
    /// it never changes scheduling decisions, timing or [`Stats`], so runs
    /// with and without the log are bit-identical.
    pub fn set_completion_logging(&mut self, enabled: bool) {
        self.log_completions = enabled;
        if !enabled {
            self.completion_log.clear();
        }
    }

    /// Removes and returns all logged completions accumulated since the last
    /// drain, in retirement order.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.completion_log.drain(..)
    }

    /// Resets the statistics window to the current cycle.  Bank and queue
    /// state are preserved, so a write phase can be followed by a read phase
    /// with an independent measurement.
    pub fn reset_stats(&mut self) {
        self.stats = Stats::new();
        self.window_start = self.now;
        self.last_completion = self.now;
    }

    /// Enqueues a request.  Returns `false` if the transaction queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the request address is outside the configured geometry (in
    /// debug builds).
    pub fn enqueue(&mut self, request: Request) -> bool {
        debug_assert!(
            request
                .address
                .is_valid_for_ranks(&self.config.geometry, self.config.topology.ranks),
            "request address {} outside geometry/topology",
            request.address
        );
        let flat = request.address.flat_bank(&self.config.geometry) as usize;
        let pushed = self.queues.push(flat, request);
        if pushed && self.queues.bank_len(flat) == 1 {
            // The request became the head of a previously empty bank.
            self.reclassify_bank(flat);
        }
        pushed
    }

    /// Advances the controller by one step of the configured
    /// [`TimingEngine`]: one cycle under [`TimingEngine::Cycle`], one state
    /// transition under [`TimingEngine::Event`].
    ///
    /// Returns `true` if any work remains (queued requests or owed refresh).
    pub fn step(&mut self) -> bool {
        match self.ctrl.engine {
            TimingEngine::Cycle => self.tick(),
            TimingEngine::Event => self.advance(),
        }
    }

    /// Advances the controller by exactly **one device clock cycle**, issuing
    /// at most one command (the cycle-accurate reference engine).
    ///
    /// This is the `tick()`-compatible shim kept for tests that pin
    /// cycle-level behaviour; bulk simulation goes through [`Self::advance`]
    /// (or [`Self::step`], which dispatches on the configured engine).
    ///
    /// Returns `true` if any work remains (queued requests or owed refresh).
    pub fn tick(&mut self) -> bool {
        self.refresh.tick(self.now);
        match self.schedule() {
            Some(pick) if pick.at == self.now => self.issue(pick.command, pick.flat_bank),
            Some(_) => self.stats.stall_cycles += 1,
            None => {}
        }
        self.now += 1;
        !self.queues.is_empty() || self.refresh.is_pending()
    }

    /// Advances the controller to the **next state transition** (the
    /// event-driven engine).
    ///
    /// If a command is issuable at the current cycle it is issued, exactly as
    /// under [`Self::tick`].  Otherwise the clock jumps directly to the
    /// earlier of (a) the cycle at which the pick becomes issuable and (b)
    /// the next refresh deadline.  In case (a) the pick is issued in the
    /// same step — nothing can change the candidate set before then.  In
    /// case (b) the step ends without issuing so the next decision sees the
    /// refresh obligation, exactly like the per-cycle engine would.
    ///
    /// Returns `true` if any work remains (queued requests or owed refresh).
    pub fn advance(&mut self) -> bool {
        self.refresh.tick(self.now);
        // Incremental scheduler: O(1)-maintained per-bank candidates
        // combined with per-step channel floors (see `event`).  An owed
        // *per-bank* refresh is a single extra O(1) candidate; only
        // all-bank refresh drains need the full scan.
        let pending = self.refresh.is_pending();
        let pick = if self.fast_path_ok && (!pending || self.refresh.mode() == RefreshMode::PerBank)
        {
            self.schedule_fast(pending)
        } else {
            self.schedule()
        };
        self.act_on(pick)
    }

    /// The event engine's one step on a pick of either scheduler: an idle
    /// cycle without a pick, otherwise a jump to the pick's cycle and its
    /// issue, or a stop at a refresh deadline that comes first.
    fn act_on(&mut self, pick: Option<Pick>) -> bool {
        let Some(pick) = pick else {
            // Nothing queued or owed: one idle cycle, like the cycle engine.
            self.now += 1;
            return false;
        };
        if pick.at > self.now {
            // Between `now` and `at` the candidate set can only change at a
            // refresh deadline: never jump past one, stop there and rescan.
            let due = self.refresh.next_due();
            if due <= pick.at {
                self.stats.stall_cycles += due - self.now;
                self.now = due;
                return true;
            }
            self.stats.stall_cycles += pick.at - self.now;
            self.now = pick.at;
        }
        self.issue(pick.command, pick.flat_bank);
        self.now += 1;
        !self.queues.is_empty() || self.refresh.is_pending()
    }

    /// Runs until all queued requests have been issued and all owed refreshes
    /// have been performed, using the configured [`TimingEngine`].
    pub fn drain(&mut self) {
        while self.step() {}
        // Account for the tail of the last data burst.
        self.finalize_elapsed();
    }

    /// Advances a controller with no queued requests to cycle `target`,
    /// exactly as repeated [`Self::step`] calls would: while nothing is
    /// owed it jumps to the earlier of `target` and the next refresh
    /// deadline, and it steps through owed refreshes.  Like those calls, a
    /// step that issues may end past `target`.
    pub fn advance_idle_to(&mut self, target: u64) {
        debug_assert!(
            self.queues.is_empty(),
            "advance_idle_to needs an empty queue"
        );
        while self.now < target {
            self.refresh.tick(self.now);
            if self.refresh.is_pending() {
                self.step();
            } else {
                self.now = target.min(self.refresh.next_due());
            }
        }
    }

    fn finalize_elapsed(&mut self) {
        let end = self.last_completion.max(self.window_start);
        self.stats.elapsed_cycles = end - self.window_start;
    }

    // ----------------------------------------------------------------- //
    // Scheduling
    // ----------------------------------------------------------------- //

    /// The full scheduler scan: the pick over every candidate, or `None`
    /// when nothing is queued or owed.
    fn schedule(&self) -> Option<Pick> {
        let now = self.now;
        // `(at, priority, seq)` of the best candidate so far, and its pick;
        // the strict `<` keeps the first candidate considered on a tie.
        let mut best: Option<((u64, u8, u64), Pick)> = None;
        let mut consider = |priority: u8, seq: u64, ready: u64, command: Command, flat_bank| {
            let at = ready.max(now);
            if best.map_or(true, |(key, _)| (at, priority, seq) < key) {
                let pick = Pick {
                    at,
                    command,
                    flat_bank,
                };
                best = Some(((at, priority, seq), pick));
            }
        };

        // Refresh handling gets dedicated candidates.
        let (block_all_acts, blocked_bank) = match (self.refresh.is_pending(), self.refresh.mode())
        {
            (true, RefreshMode::AllBank) => (true, None),
            (true, RefreshMode::PerBank) => (false, Some(self.refresh.target_bank() as usize)),
            _ => (false, None),
        };

        if self.refresh.is_pending() {
            match self.refresh.mode() {
                RefreshMode::AllBank => {
                    // Precharge any open bank, then refresh when everything is idle.
                    if self.banks.all_idle() {
                        let ready = self.banks.max_act_allowed_at().unwrap_or(now);
                        let cmd = Command {
                            kind: CommandKind::RefreshAll,
                            address: Default::default(),
                        };
                        consider(0, 0, ready, cmd, 0);
                    } else {
                        for i in 0..self.banks.len() {
                            if !self.banks.is_idle(i) {
                                let pre = Command::precharge(self.bank_address(i));
                                consider(0, i as u64, self.banks.pre_allowed_at(i), pre, i);
                            }
                        }
                    }
                }
                RefreshMode::PerBank => {
                    let target = self.refresh.target_bank() as usize;
                    let addr = self.bank_address(target);
                    if self.banks.is_idle(target) {
                        let cmd = Command {
                            kind: CommandKind::RefreshBank,
                            address: addr,
                        };
                        consider(0, 0, self.banks.act_allowed_at(target), cmd, target);
                    } else {
                        let pre = Command::precharge(addr);
                        consider(0, 0, self.banks.pre_allowed_at(target), pre, target);
                    }
                }
                RefreshMode::Disabled => {}
            }
        }

        // Regular request service.
        let oldest = self.queues.oldest_seq();
        for flat_bank in self.queues.active_banks() {
            if block_all_acts && self.banks.is_idle(flat_bank) {
                // During an all-bank refresh drain no new rows may be opened.
                continue;
            }
            let head = self.queues.head(flat_bank).expect("active bank has a head");
            if self.ctrl.scheduling == SchedulingPolicy::Fcfs && Some(head.seq) != oldest {
                continue;
            }
            let addr = head.request.address;
            let bank = self.banks.get(flat_bank);
            let is_write = head.request.is_write();

            if bank.is_row_open(addr.row) {
                let ready = self.earliest_column(flat_bank, &addr, is_write);
                let cmd = if is_write {
                    Command::write(addr)
                } else {
                    Command::read(addr)
                };
                consider(1, head.seq, ready, cmd, flat_bank);
            } else if bank.is_idle() {
                if blocked_bank == Some(flat_bank) {
                    // This bank is about to be refreshed; do not reopen it.
                    continue;
                }
                let ready = self.earliest_activate(flat_bank, self.qualified_group(&addr));
                consider(2, head.seq, ready, Command::activate(addr), flat_bank);
            } else {
                // Row conflict: precharge first.
                let pre = Command::precharge(addr);
                consider(3, head.seq, bank.pre_allowed_at, pre, flat_bank);
            }
        }

        // Work pending always yields at least one candidate: every active
        // bank produces a hit/activate/precharge candidate and a pending
        // refresh produces a refresh or drain-precharge candidate.
        debug_assert!(best.is_some() || (self.queues.is_empty() && !self.refresh.is_pending()));
        best.map(|(_, pick)| pick)
    }

    fn bank_address(&self, flat_bank: usize) -> crate::address::PhysicalAddress {
        let banks_per_group = self.config.geometry.banks_per_group;
        let per_rank = self.config.geometry.total_banks();
        let rank = flat_bank as u32 / per_rank;
        let within = flat_bank as u32 % per_rank;
        crate::address::PhysicalAddress {
            rank,
            bank_group: within / banks_per_group,
            bank: within % banks_per_group,
            row: self.banks.open_row_of(flat_bank).unwrap_or(0),
            column: 0,
        }
    }

    /// The rank-qualified bank-group index of an address
    /// (`rank * bank_groups + bank_group`): the index into
    /// `last_act_per_group` and the unit within which "same bank group"
    /// timings (tCCD_L, tRRD_L, tWTR_L) apply.
    fn qualified_group(&self, addr: &crate::address::PhysicalAddress) -> u32 {
        addr.rank * self.config.geometry.bank_groups + addr.bank_group
    }

    // ----------------------------------------------------------------- //
    // Timing
    // ----------------------------------------------------------------- //

    /// Earliest cycle an ACT command may be issued to `flat_bank`, combining
    /// the bank's own `act_allowed_at` with the channel-level activation-rate
    /// limits (`t_rrd_s`/`t_rrd_l`/`t_faw`).  `group` is the rank-qualified
    /// bank-group index.
    fn earliest_activate(&self, flat_bank: usize, group: u32) -> u64 {
        let t = &self.config.timing;
        let mut ready = self.banks.act_allowed_at(flat_bank);
        if let Some(last) = self.last_act_any {
            ready = ready.max(t.act_ready_after_act(last, false));
        }
        if let Some(Some(last)) = self.last_act_per_group.get(group as usize) {
            ready = ready.max(t.act_ready_after_act(*last, true));
        }
        if self.act_count >= 4 {
            let fourth_last = self.act_ring[(self.act_count & 3) as usize];
            ready = ready.max(t.act_ready_after_faw(fourth_last));
        }
        ready
    }

    /// Earliest cycle a RD/WR command may be issued to `flat_bank`, combining
    /// the bank's own `col_allowed_at` with the channel-level column-gap,
    /// write-to-read, data-bus and rank-switch constraints.
    fn earliest_column(
        &self,
        flat_bank: usize,
        addr: &crate::address::PhysicalAddress,
        is_write: bool,
    ) -> u64 {
        let t = &self.config.timing;
        let group = self.qualified_group(addr);
        let mut ready = self.banks.col_allowed_at(flat_bank);
        if let Some(col) = self.last_column {
            ready = ready.max(t.column_ready_after_column(col.time, col.group == group));
        }
        if !is_write {
            if let Some((wr_data_end, wr_group)) = self.last_write_data_end {
                ready = ready.max(t.read_ready_after_write_data(wr_data_end, wr_group == group));
            }
        }
        // Data bus availability: the command must not start its data burst
        // before the bus is free, plus a turnaround bubble on direction
        // changes and a rank-to-rank bubble when the bus hands over between
        // ranks (never on single-rank channels).
        let latency = t.column_latency(is_write);
        let mut bus_free = self.data_bus_free_at;
        if let Some(last_write) = self.last_data_was_write {
            if last_write != is_write {
                bus_free += t.t_bus_turn;
            }
        }
        if let Some(last_rank) = self.last_data_rank {
            if last_rank != addr.rank {
                bus_free += t.t_rank_to_rank;
            }
        }
        ready = ready.max(bus_free.saturating_sub(latency));
        ready
    }

    // ----------------------------------------------------------------- //
    // Issue
    // ----------------------------------------------------------------- //

    fn issue(&mut self, command: Command, flat_bank: usize) {
        let t = &self.config.timing;
        let burst = self.config.geometry.burst_cycles();
        let now = self.now;
        match command.kind {
            CommandKind::Activate => {
                let group = self.qualified_group(&command.address);
                self.banks
                    .record_activate(flat_bank, now, command.address.row, t);
                self.last_act_any = Some(now);
                self.last_act_per_group[group as usize] = Some(now);
                self.act_ring[(self.act_count & 3) as usize] = now;
                self.act_count += 1;
                self.stats.activates += 1;
                if let Some(head) = self.queues.head_mut(flat_bank) {
                    head.caused_activate = true;
                }
            }
            CommandKind::Precharge => {
                self.banks.record_precharge(flat_bank, now, t);
                self.stats.precharges += 1;
                if let Some(head) = self.queues.head_mut(flat_bank) {
                    head.caused_conflict = true;
                }
            }
            CommandKind::Read | CommandKind::Write => {
                let is_write = command.kind == CommandKind::Write;
                if is_write {
                    self.banks.record_write(flat_bank, now, burst, t);
                } else {
                    self.banks.record_read(flat_bank, now, t);
                }
                let group = self.qualified_group(&command.address);
                let latency = t.column_latency(is_write);
                let data_start = now + latency;
                let data_end = data_start + burst;
                self.data_bus_free_at = data_end;
                self.last_data_was_write = Some(is_write);
                self.last_data_rank = Some(command.address.rank);
                self.last_column = Some(LastColumn { time: now, group });
                if is_write {
                    self.last_write_data_end = Some((data_end, group));
                }
                self.stats.data_bus_busy_cycles += burst;
                self.last_completion = self.last_completion.max(data_end);

                let entry = self
                    .queues
                    .pop(flat_bank)
                    .expect("column command without a queued request");
                debug_assert_eq!(entry.request.address, command.address);
                debug_assert_eq!(entry.request.is_write(), is_write);
                self.stats.completed_requests += 1;
                if self.log_completions {
                    self.completion_log.push(Completion {
                        data_end,
                        flat_bank: flat_bank as u32,
                    });
                }
                match entry.request.kind {
                    RequestKind::Read => self.stats.read_bursts += 1,
                    RequestKind::Write => self.stats.write_bursts += 1,
                }
                // Branchless row-class accounting: the class alternates
                // erratically in conflict-heavy phases, so a branch chain
                // here mispredicts on the hottest per-command path.
                let conflict = u64::from(entry.caused_conflict);
                let empty = u64::from(!entry.caused_conflict & entry.caused_activate);
                self.stats.row_conflicts += conflict;
                self.stats.row_empties += empty;
                self.stats.row_hits += 1 - conflict - empty;
            }
            CommandKind::RefreshAll => {
                self.banks.record_refresh_all(now, t.t_rfc_ab);
                self.stats.refreshes_all_bank += 1;
                self.refresh.complete_one();
            }
            CommandKind::RefreshBank => {
                let busy = if t.t_rfc_pb > 0 {
                    t.t_rfc_pb
                } else {
                    t.t_rfc_ab
                };
                self.banks.record_refresh(flat_bank, now, busy);
                self.stats.refreshes_per_bank += 1;
                self.refresh.complete_one();
            }
        }
        // Keep the event engine's head-candidate cache in sync: single-bank
        // commands only mutate their own bank, an all-bank refresh mutates
        // every bank.  Channel-level state is not cached per candidate, but
        // the per-class floor table derived from it is — mark the classes
        // this command shifted.
        if command.kind == CommandKind::RefreshAll {
            self.reclassify_all_banks();
        } else {
            self.reclassify_bank(flat_bank);
        }
        match command.kind {
            CommandKind::Read | CommandKind::Write => self.floors_col_dirty = true,
            CommandKind::Activate => self.floors_act_dirty = true,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::PhysicalAddress;
    use crate::standards::{DramConfig, DramStandard};

    fn controller(standard: DramStandard, rate: u32) -> Controller {
        let config = DramConfig::preset(standard, rate).unwrap();
        Controller::new(config, ControllerConfig::default()).unwrap()
    }

    fn no_refresh() -> ControllerConfig {
        ControllerConfig {
            refresh_mode: Some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn rejects_zero_queue_capacity() {
        let config = DramConfig::preset(DramStandard::Ddr4, 1600).unwrap();
        let ctrl = ControllerConfig {
            queue_capacity: 0,
            ..ControllerConfig::default()
        };
        assert!(Controller::new(config, ctrl).is_err());
    }

    #[test]
    fn enqueue_respects_backpressure() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let mut c = Controller::new(config, ControllerConfig::default()).unwrap();
        let mut accepted = 0u64;
        for i in 0..1_000u64 {
            if c.enqueue(Request::write(decoder.decode(i).1)) {
                accepted += 1;
            }
        }
        assert!(
            accepted <= 64,
            "default queue capacity should bound acceptance"
        );
        c.drain();
        assert_eq!(c.stats().completed_requests, accepted);
    }

    #[test]
    fn single_write_completes() {
        let mut c = controller(DramStandard::Ddr4, 3200);
        assert!(c.enqueue(Request::write(PhysicalAddress::new(0, 0, 10, 3))));
        c.drain();
        let stats = c.stats();
        assert_eq!(stats.completed_requests, 1);
        assert_eq!(stats.write_bursts, 1);
        assert_eq!(stats.activates, 1);
        assert_eq!(stats.row_empties, 1);
        assert!(stats.elapsed_cycles > 0);
    }

    #[test]
    fn same_row_accesses_hit_the_row_buffer() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let mut c = Controller::new(config, no_refresh()).unwrap();
        for col in 0..16 {
            assert!(c.enqueue(Request::read(PhysicalAddress::new(0, 0, 5, col))));
        }
        c.drain();
        assert_eq!(c.stats().completed_requests, 16);
        assert_eq!(c.stats().activates, 1);
        assert_eq!(c.stats().row_hits, 15);
        assert_eq!(c.stats().row_empties, 1);
    }

    #[test]
    fn row_conflicts_force_precharge_and_activate() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let mut c = Controller::new(config, no_refresh()).unwrap();
        for i in 0..8u32 {
            // Alternate between two rows of the same bank.
            let row = i % 2;
            assert!(c.enqueue(Request::read(PhysicalAddress::new(0, 0, row, 0))));
        }
        c.drain();
        assert_eq!(c.stats().completed_requests, 8);
        assert_eq!(c.stats().activates, 8);
        assert_eq!(c.stats().row_conflicts, 7);
        assert_eq!(c.stats().row_empties, 1);
    }

    #[test]
    fn bank_group_interleaving_is_faster_than_same_bank_group() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        // Same bank group, different banks: limited by tCCD_L.
        let mut same = Controller::new(config.clone(), no_refresh()).unwrap();
        // Different bank groups: limited by tCCD_S only.
        let mut diff = Controller::new(config.clone(), no_refresh()).unwrap();
        let n = 4096u64;
        let run = |c: &mut Controller, rotate_groups: bool| {
            let mut produced = 0u64;
            while produced < n || c.pending_requests() > 0 {
                while produced < n && c.can_accept() {
                    let lane = (produced % 4) as u32;
                    let col = ((produced / 4) % 128) as u32;
                    let row = (produced / 512) as u32;
                    let addr = if rotate_groups {
                        PhysicalAddress::new(lane, 0, row, col)
                    } else {
                        PhysicalAddress::new(0, lane, row, col)
                    };
                    assert!(c.enqueue(Request::write(addr)));
                    produced += 1;
                }
                c.tick();
            }
            c.drain();
        };
        run(&mut same, false);
        run(&mut diff, true);
        assert!(
            diff.stats().elapsed_cycles < same.stats().elapsed_cycles,
            "bank-group interleaving must be faster: {} vs {}",
            diff.stats().elapsed_cycles,
            same.stats().elapsed_cycles
        );
        assert!(diff.stats().bus_utilization() > 0.9);
    }

    #[test]
    fn sequential_stream_saturates_the_bus_without_refresh() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let mut c = Controller::new(config.clone(), no_refresh()).unwrap();
        let mut produced = 0u64;
        let total = 4096u64;
        while produced < total || c.pending_requests() > 0 {
            while produced < total && c.can_accept() {
                let addr = decoder.decode(produced).1;
                assert!(c.enqueue(Request::write(addr)));
                produced += 1;
            }
            c.tick();
        }
        c.drain();
        assert_eq!(c.stats().completed_requests, total);
        assert!(
            c.stats().bus_utilization() > 0.93,
            "sequential writes should be near peak, got {}",
            c.stats().bus_utilization()
        );
    }

    #[test]
    fn refresh_reduces_utilization_for_all_bank_mode() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let run = |refresh: RefreshMode| {
            let ctrl = ControllerConfig {
                refresh_mode: Some(refresh),
                ..ControllerConfig::default()
            };
            let mut c = Controller::new(config.clone(), ctrl).unwrap();
            let total = 60_000u64;
            let mut produced = 0u64;
            while produced < total || c.pending_requests() > 0 {
                while produced < total && c.can_accept() {
                    let addr = decoder.decode(produced).1;
                    c.enqueue(Request::write(addr));
                    produced += 1;
                }
                c.tick();
            }
            c.drain();
            (c.stats().bus_utilization(), c.stats().refreshes_all_bank)
        };
        let (with_refresh, refreshes) = run(RefreshMode::AllBank);
        let (without_refresh, none) = run(RefreshMode::Disabled);
        assert!(refreshes > 0);
        assert_eq!(none, 0);
        assert!(without_refresh > with_refresh);
        assert!(without_refresh > 0.95);
    }

    #[test]
    fn per_bank_refresh_hides_most_of_the_cost() {
        let config = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let run = |refresh: RefreshMode| {
            let ctrl = ControllerConfig {
                refresh_mode: Some(refresh),
                ..ControllerConfig::default()
            };
            let mut c = Controller::new(config.clone(), ctrl).unwrap();
            let total = 60_000u64;
            let mut produced = 0u64;
            while produced < total || c.pending_requests() > 0 {
                while produced < total && c.can_accept() {
                    c.enqueue(Request::write(decoder.decode(produced).1));
                    produced += 1;
                }
                c.tick();
            }
            c.drain();
            c.stats().bus_utilization()
        };
        let per_bank = run(RefreshMode::PerBank);
        let all_bank = run(RefreshMode::AllBank);
        assert!(
            per_bank >= all_bank,
            "per-bank refresh should not be slower: {per_bank} vs {all_bank}"
        );
    }

    #[test]
    fn fcfs_is_not_faster_than_frfcfs() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let run = |policy: SchedulingPolicy| {
            let ctrl = ControllerConfig {
                scheduling: policy,
                refresh_mode: Some(RefreshMode::Disabled),
                ..ControllerConfig::default()
            };
            let mut c = Controller::new(config.clone(), ctrl).unwrap();
            // A conflict-heavy pattern: stride through rows on one bank pair.
            let total = 2_000u64;
            let mut produced = 0u64;
            while produced < total || c.pending_requests() > 0 {
                while produced < total && c.can_accept() {
                    let row = (produced % 64) as u32;
                    let bank = (produced % 2) as u32;
                    c.enqueue(Request::read(PhysicalAddress::new(0, bank, row, 0)));
                    produced += 1;
                }
                c.tick();
            }
            c.drain();
            c.stats().elapsed_cycles
        };
        assert!(run(SchedulingPolicy::FrFcfs) <= run(SchedulingPolicy::Fcfs));
    }

    #[test]
    fn advance_idle_to_matches_repeated_steps() {
        let config = DramConfig::preset(DramStandard::Ddr4, 3200).unwrap();
        let traffic = |c: &mut Controller| {
            for i in 0..24u32 {
                assert!(c.enqueue(Request::write(PhysicalAddress::new(i % 4, i % 3, i % 5, i))));
            }
            while c.step() {}
        };
        for engine in [TimingEngine::Cycle, TimingEngine::Event] {
            for refresh in [
                RefreshMode::AllBank,
                RefreshMode::PerBank,
                RefreshMode::Disabled,
            ] {
                let ctrl = ControllerConfig {
                    engine,
                    refresh_mode: Some(refresh),
                    ..ControllerConfig::default()
                };
                let mut jumped = Controller::new(config.clone(), ctrl).unwrap();
                traffic(&mut jumped);
                // Right after traffic, a short gap, and a gap across several
                // refreshes.
                for gap in [3, 40, 3 * config.timing.t_refi + 17] {
                    let target = jumped.now() + gap;
                    let mut stepped = jumped.clone();
                    while stepped.now() < target {
                        stepped.step();
                    }
                    jumped.advance_idle_to(target);
                    let case = format!("{engine:?} {refresh:?} gap {gap}");
                    assert_eq!(jumped.now(), stepped.now(), "{case}");
                    assert_eq!(jumped.stats(), stepped.stats(), "{case}");
                    traffic(&mut jumped);
                    traffic(&mut stepped);
                    assert_eq!(jumped.now(), stepped.now(), "{case}");
                    assert_eq!(jumped.stats(), stepped.stats(), "{case}");
                }
                let stats = jumped.stats();
                let refreshes = stats.refreshes_all_bank + stats.refreshes_per_bank;
                assert_eq!(refreshes > 0, refresh != RefreshMode::Disabled);
            }
        }
    }

    #[test]
    fn stats_reset_preserves_bank_state() {
        let config = DramConfig::preset(DramStandard::Ddr4, 1600).unwrap();
        let mut c = Controller::new(config, no_refresh()).unwrap();
        c.enqueue(Request::write(PhysicalAddress::new(1, 1, 9, 0)));
        c.drain();
        c.reset_stats();
        assert_eq!(c.stats().completed_requests, 0);
        // The row is still open, so the next access to it is a hit.
        c.enqueue(Request::read(PhysicalAddress::new(1, 1, 9, 1)));
        c.drain();
        assert_eq!(c.stats().row_hits, 1);
    }
}
