//! The event engine's incremental scheduler.
//!
//! The cycle-accurate reference re-derives every bank's candidate command
//! from scratch each cycle.  The event engine cannot afford that: its whole
//! point is that scheduler work scales with *state transitions*, not with
//! simulated cycles.  This module maintains a per-bank **head candidate
//! cache** with the per-bank component of each candidate's earliest-ready
//! cycle.  The cache only changes when the owning bank changes — a request
//! arrives at an empty bank, the bank's head is retired, or a command
//! mutates the bank state — all O(1) events hooked into
//! [`Controller::enqueue`](super::Controller::enqueue) and
//! [`Controller::issue`](super::Controller).
//!
//! Channel-level constraints (tCCD, tRRD, tFAW, write-to-read turnaround,
//! data-bus occupancy) shift the ready cycles of *many* candidates whenever
//! any command issues, so they are deliberately **not** cached: they
//! collapse into one small floor table — indexed by (command class, bank
//! group) — computed once per scheduling decision, making the per-candidate
//! scan a table lookup, a `max` and a packed-key comparison.
//!
//! The fast path picks by the same rule as the full scan: the candidate with
//! the smallest `(max(ready, now), priority, seq)`, packed into one `u128`
//! key.  It is only taken in states where it provably reproduces the full
//! scan's pick: FR-FCFS scheduling, at most 8 **rank-qualified** bank groups
//! (`ranks × bank_groups`, so dual-rank DDR4 still qualifies), and no owed
//! refresh other than the per-bank kind (an owed per-bank refresh adds
//! exactly one priority-0 candidate for its target bank, which the fast path
//! models directly).  Everything else — all-bank refresh drains, FCFS, more
//! than 8 rank-qualified bank groups — takes the full scan that the cycle
//! engine uses.  Either pick goes through the same step of
//! [`Controller::advance`](super::Controller::advance), which jumps the
//! clock, stops at a refresh deadline or issues.  The cross-engine golden
//! tests pin the equivalence.

use crate::address::PhysicalAddress;
use crate::command::Command;

use super::{Controller, Pick, SchedulingPolicy};

/// Command-class indices of the floor table (`floor_idx = class * 8 + bank
/// group`).
const CLASS_READ: u8 = 0;
const CLASS_WRITE: u8 = 1;
const CLASS_ACTIVATE: u8 = 2;
const CLASS_PRECHARGE: u8 = 3;

/// Cached scheduling candidate for the head request of one bank, packed for
/// the branch-light selection scan.  Banks without a queued head hold the
/// `INVALID` sentinel, whose selection key compares above every real
/// candidate, so the scan needs no validity branches.  The winner's target
/// address lives in the controller's parallel `head_addr` array, keeping
/// this struct at 24 bytes so a 32-bank scan touches 12 cache lines.
#[derive(Debug, Clone, Copy)]
pub(super) struct HeadCandidate {
    /// Per-bank component of the earliest-ready cycle (`col_allowed_at`,
    /// `act_allowed_at` or `pre_allowed_at` of the owning bank).
    pub perbank_ready: u64,
    /// `(priority << 56) | seq`: compares like `(priority, seq)` as long as
    /// sequence numbers stay below 2^56 (10^16 requests — unreachable).
    pub prio_seq: u64,
    /// Floor-table index: `class * 8 + bank_group`.
    pub floor_idx: u8,
}

impl HeadCandidate {
    const INVALID: Self = Self {
        perbank_ready: u64::MAX,
        prio_seq: u64::MAX,
        floor_idx: 0,
    };
}

impl Default for HeadCandidate {
    fn default() -> Self {
        Self::INVALID
    }
}

impl Controller {
    /// Whether the incremental fast path may serve scheduling decisions in
    /// the current *configuration* (per-step state such as owed refreshes is
    /// checked in [`Controller::advance`]).
    #[inline]
    pub(super) fn fast_path_configured(&self) -> bool {
        self.ctrl.scheduling == SchedulingPolicy::FrFcfs && self.last_act_per_group.len() <= 8
    }

    /// Derives the candidate for `flat_bank`'s head request from the current
    /// bank state, mirroring the classification of the full scheduler scan.
    fn classify_head(&self, flat_bank: usize) -> Option<(HeadCandidate, PhysicalAddress)> {
        let head = self.queues.head(flat_bank)?;
        let address = head.request.address;
        // Rank-qualified group index, consistent with the floor table rows
        // (on single-rank channels this is the plain bank group).
        let group = (address.rank * self.config.geometry.bank_groups + address.bank_group) as u8;
        let (priority, perbank_ready, class) = if self.banks.is_row_open(flat_bank, address.row) {
            let class = if head.request.is_write() {
                CLASS_WRITE
            } else {
                CLASS_READ
            };
            (1u64, self.banks.col_allowed_at(flat_bank), class)
        } else if self.banks.is_idle(flat_bank) {
            (2, self.banks.act_allowed_at(flat_bank), CLASS_ACTIVATE)
        } else {
            (3, self.banks.pre_allowed_at(flat_bank), CLASS_PRECHARGE)
        };
        debug_assert!(head.seq < 1 << 56, "sequence number overflows the key");
        Some((
            HeadCandidate {
                perbank_ready,
                prio_seq: (priority << 56) | head.seq,
                floor_idx: class * 8 + group,
            },
            address,
        ))
    }

    /// Re-derives the cached candidate of `flat_bank` (called whenever that
    /// bank's queue head or bank state changes).
    pub(super) fn reclassify_bank(&mut self, flat_bank: usize) {
        match self.classify_head(flat_bank) {
            Some((candidate, address)) => {
                self.head_cand[flat_bank] = candidate;
                self.head_addr[flat_bank] = address;
            }
            None => self.head_cand[flat_bank] = HeadCandidate::INVALID,
        }
    }

    /// Rebuilds the entire cache (an all-bank refresh mutates every bank at
    /// once; it is rare).
    pub(super) fn reclassify_all_banks(&mut self) {
        for flat_bank in 0..self.banks.len() {
            self.reclassify_bank(flat_bank);
        }
    }

    /// Rebuilds the read/write rows of the floor table (invalidated by
    /// column commands, which move tCCD/turnaround/bus state).
    ///
    /// Per group the floor takes one of at most four values (same/different
    /// group relative to the last column and the last write), so the rows
    /// are filled with the different-group base and the two special groups
    /// are adjusted afterwards.
    fn rebuild_column_floors(&mut self) {
        let t = &self.config.timing;
        let groups = self.last_act_per_group.len();
        let bank_groups = self.config.geometry.bank_groups as usize;
        debug_assert!(groups <= 8);
        let (mut write_free, mut read_free) = (self.data_bus_free_at, self.data_bus_free_at);
        match self.last_data_was_write {
            Some(true) => read_free += t.t_bus_turn,
            Some(false) => write_free += t.t_bus_turn,
            None => {}
        }
        let (ccd_diff, ccd_same, ccd_group) = match self.last_column {
            Some(col) => (
                t.column_ready_after_column(col.time, false),
                t.column_ready_after_column(col.time, true),
                col.group as usize,
            ),
            None => (0, 0, usize::MAX),
        };
        let (wtr_diff, wtr_same, wtr_group) = match self.last_write_data_end {
            Some((end, group)) => (
                t.read_ready_after_write_data(end, false),
                t.read_ready_after_write_data(end, true),
                group as usize,
            ),
            None => (0, 0, usize::MAX),
        };
        let rd = (CLASS_READ * 8) as usize;
        let wr = (CLASS_WRITE * 8) as usize;
        for g in 0..groups {
            // Groups on a different rank than the last data burst pay the
            // rank-to-rank bus bubble on top of the shared bus floor (the
            // extra is 0 on single-rank channels, where `g / bank_groups`
            // always equals the last data rank).
            let rank_extra = match self.last_data_rank {
                Some(rank) if rank as usize != g / bank_groups => t.t_rank_to_rank,
                _ => 0,
            };
            let bus_floor_read = (read_free + rank_extra).saturating_sub(t.cl);
            let bus_floor_write = (write_free + rank_extra).saturating_sub(t.cwl);
            self.floors[rd + g] = ccd_diff.max(wtr_diff).max(bus_floor_read);
            self.floors[wr + g] = ccd_diff.max(bus_floor_write);
        }
        if ccd_group < groups {
            self.floors[rd + ccd_group] = self.floors[rd + ccd_group].max(ccd_same);
            self.floors[wr + ccd_group] = self.floors[wr + ccd_group].max(ccd_same);
        }
        if wtr_group < groups {
            self.floors[rd + wtr_group] = self.floors[rd + wtr_group].max(wtr_same);
        }
    }

    /// Rebuilds the activate rows of the floor table (invalidated by ACT
    /// commands, which move tRRD/tFAW state).
    fn rebuild_activate_floors(&mut self) {
        let t = &self.config.timing;
        let groups = self.last_act_per_group.len();
        debug_assert!(groups <= 8);
        let act_floor_any = self
            .last_act_any
            .map_or(0, |last| t.act_ready_after_act(last, false));
        let faw_floor = if self.act_count >= 4 {
            t.act_ready_after_faw(self.act_ring[(self.act_count & 3) as usize])
        } else {
            0
        };
        for g in 0..groups {
            let group_floor = match self.last_act_per_group[g] {
                Some(last) => t.act_ready_after_act(last, true),
                None => 0,
            };
            self.floors[(CLASS_ACTIVATE * 8) as usize + g] =
                act_floor_any.max(group_floor).max(faw_floor);
        }
    }

    /// The fast path's pick, or `None` when nothing is queued.
    ///
    /// Caller guarantees: [`Self::fast_path_configured`], and any owed
    /// refresh (`refresh_pending`) is of the **per-bank** kind.  Under those
    /// preconditions the candidate set consists exactly of the cached
    /// per-bank head candidates — plus, while a per-bank refresh is owed,
    /// one priority-0 candidate for the refresh target (REFpb if the bank is
    /// idle, otherwise the precharge clearing it; an idle target's own
    /// request candidate is blocked, exactly as in the full scan).  The pick
    /// is the lexicographic minimum of `(max(ready, now), priority, seq)`
    /// over that set.
    pub(super) fn schedule_fast(&mut self, refresh_pending: bool) -> Option<Pick> {
        // Refresh the per-(class, bank group) channel floor table where the
        // last issued commands invalidated it (column and activate floors
        // shift independently; precharge floors are always 0).  O(bank
        // groups) on invalidation, so the per-candidate scan below is one
        // lookup, one `max` and one packed comparison.
        if self.floors_col_dirty {
            self.rebuild_column_floors();
            self.floors_col_dirty = false;
        }
        if self.floors_act_dirty {
            self.rebuild_activate_floors();
            self.floors_act_dirty = false;
        }
        let floors = &self.floors;

        // While a per-bank refresh is owed, the target's own request
        // candidate is blocked if the bank is idle (it must not be
        // reopened); stash the INVALID sentinel over it for the scan.
        let refresh_target = if refresh_pending {
            self.refresh.target_bank() as usize
        } else {
            usize::MAX
        };
        let mut stashed = HeadCandidate::INVALID;
        if refresh_pending && self.banks.is_idle(refresh_target) {
            stashed =
                std::mem::replace(&mut self.head_cand[refresh_target], HeadCandidate::INVALID);
        }

        // Selection scan: the winner minimizes (max(ready, now), priority,
        // seq), packed into one u128 key so the compare is branch-light.
        // Empty banks hold the INVALID sentinel whose key is u128::MAX, so a
        // straight sequential sweep needs no validity checks.
        let now = self.now;
        let mut best_key = u128::MAX;
        let mut best_bank = usize::MAX;
        for (flat_bank, cand) in self.head_cand.iter().enumerate() {
            let ready = cand
                .perbank_ready
                .max(floors[(cand.floor_idx & 31) as usize])
                .max(now);
            let key = (u128::from(ready) << 64) | u128::from(cand.prio_seq);
            // Written as selects (not an if-block) so the winner update
            // compiles to conditional moves; winner position is erratic and
            // a branch here mispredicts constantly.
            let better = key < best_key;
            best_bank = if better { flat_bank } else { best_bank };
            best_key = if better { key } else { best_key };
        }

        // The per-bank refresh candidate: priority 0, sequence 0, exactly as
        // the full scan's `consider(0, 0, ...)` calls.
        let mut refresh_command = None;
        if refresh_pending {
            let (ready, command) = if self.banks.is_idle(refresh_target) {
                // Restore the stashed request candidate before any return.
                self.head_cand[refresh_target] = stashed;
                (
                    self.banks.act_allowed_at(refresh_target),
                    Command {
                        kind: crate::command::CommandKind::RefreshBank,
                        address: self.bank_address(refresh_target),
                    },
                )
            } else {
                (
                    self.banks.pre_allowed_at(refresh_target),
                    Command::precharge(self.bank_address(refresh_target)),
                )
            };
            let key = u128::from(ready.max(now)) << 64;
            if key < best_key {
                best_key = key;
                best_bank = refresh_target;
                refresh_command = Some(command);
            }
        }

        if best_bank == usize::MAX {
            // No queued work (and no refresh owed, by precondition).
            return None;
        }
        let command = match refresh_command {
            Some(command) => command,
            None => {
                let address = self.head_addr[best_bank];
                match self.head_cand[best_bank].floor_idx >> 3 {
                    CLASS_READ => Command::read(address),
                    CLASS_WRITE => Command::write(address),
                    CLASS_ACTIVATE => Command::activate(address),
                    _ => Command::precharge(address),
                }
            }
        };
        Some(Pick {
            at: (best_key >> 64) as u64,
            command,
            flat_bank: best_bank,
        })
    }
}
