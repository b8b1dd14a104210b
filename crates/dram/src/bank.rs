//! Per-bank state machine and timing bookkeeping.

use crate::timing::TimingParams;

/// State of one DRAM bank: the open row (if any) plus the earliest cycle at
/// which the next activate, column or precharge command may be issued.
///
/// The controller uses these "earliest issue" registers instead of an explicit
/// state enum; a bank is *idle* when [`BankState::open_row`] is `None` and
/// *active* otherwise.  All transition methods take the current cycle and the
/// timing parameter set and update the registers according to JEDEC rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankState {
    /// The currently open row, or `None` if the bank is precharged.
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT command may be issued to this bank.
    pub act_allowed_at: u64,
    /// Earliest cycle a RD/WR command may be issued to this bank.
    pub col_allowed_at: u64,
    /// Earliest cycle a PRE command may be issued to this bank.
    pub pre_allowed_at: u64,
}

impl Default for BankState {
    fn default() -> Self {
        Self::new()
    }
}

impl BankState {
    /// Creates a bank in the precharged (idle) state with no timing debts.
    #[must_use]
    pub fn new() -> Self {
        Self {
            open_row: None,
            act_allowed_at: 0,
            col_allowed_at: 0,
            pre_allowed_at: 0,
        }
    }

    /// Whether the bank currently has `row` open.
    #[must_use]
    pub fn is_row_open(&self, row: u32) -> bool {
        self.open_row == Some(row)
    }

    /// Whether the bank is precharged (no open row).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.open_row.is_none()
    }

    /// Records an ACT command issued at `now` opening `row`.
    pub fn record_activate(&mut self, now: u64, row: u32, t: &TimingParams) {
        debug_assert!(self.open_row.is_none(), "activate on an active bank");
        debug_assert!(now >= self.act_allowed_at, "activate issued too early");
        self.open_row = Some(row);
        self.col_allowed_at = now + t.t_rcd;
        self.pre_allowed_at = self.pre_allowed_at.max(now + t.t_ras);
        self.act_allowed_at = self.act_allowed_at.max(now + t.t_rc);
    }

    /// Records a PRE command issued at `now`.
    pub fn record_precharge(&mut self, now: u64, t: &TimingParams) {
        debug_assert!(now >= self.pre_allowed_at, "precharge issued too early");
        self.open_row = None;
        self.act_allowed_at = self.act_allowed_at.max(now + t.t_rp);
    }

    /// Records a RD command issued at `now`.
    pub fn record_read(&mut self, now: u64, t: &TimingParams) {
        debug_assert!(self.open_row.is_some(), "read on an idle bank");
        debug_assert!(now >= self.col_allowed_at, "read issued too early");
        self.pre_allowed_at = self.pre_allowed_at.max(now + t.t_rtp);
    }

    /// Records a WR command issued at `now` (burst of `burst_cycles`).
    pub fn record_write(&mut self, now: u64, burst_cycles: u64, t: &TimingParams) {
        debug_assert!(self.open_row.is_some(), "write on an idle bank");
        debug_assert!(now >= self.col_allowed_at, "write issued too early");
        // Write recovery starts after the last data beat.
        self.pre_allowed_at = self.pre_allowed_at.max(now + t.cwl + burst_cycles + t.t_wr);
    }

    /// Records a refresh (all-bank or per-bank) that keeps this bank busy for
    /// `busy_cycles` starting at `now`.
    pub fn record_refresh(&mut self, now: u64, busy_cycles: u64) {
        debug_assert!(self.open_row.is_none(), "refresh on an active bank");
        self.act_allowed_at = self.act_allowed_at.max(now + busy_cycles);
    }
}

/// Structure-of-arrays bank state for a whole channel.
///
/// The controller's hottest loops — the event engine's head
/// classification, the all-bank refresh idle scan — each read **one** field
/// of every bank.  Storing the banks as parallel lanes instead of an array
/// of [`BankState`] structs keeps those scans on densely packed cache lines
/// (e.g. the `open_row` lane of a 32-bank channel is two cache lines instead
/// of thirteen).
///
/// The open row is packed as a `u32` lane with [`BankArray::CLOSED`]
/// (`u32::MAX`) marking a precharged bank; JEDEC row counts are far below
/// the sentinel.  All transition methods mirror [`BankState`]'s semantics
/// exactly — a differential unit test pins the equivalence — and
/// [`BankArray::get`] reassembles a by-value [`BankState`] view for the
/// full scheduler scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankArray {
    open_row: Vec<u32>,
    act_allowed_at: Vec<u64>,
    col_allowed_at: Vec<u64>,
    pre_allowed_at: Vec<u64>,
}

impl BankArray {
    /// Sentinel in the `open_row` lane marking a precharged (idle) bank.
    pub const CLOSED: u32 = u32::MAX;

    /// Creates `banks` banks, all precharged with no timing debts.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        Self {
            open_row: vec![Self::CLOSED; banks],
            act_allowed_at: vec![0; banks],
            col_allowed_at: vec![0; banks],
            pre_allowed_at: vec![0; banks],
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// Whether the array holds no banks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// Reassembles the full [`BankState`] of bank `i` by value.
    #[must_use]
    pub fn get(&self, i: usize) -> BankState {
        BankState {
            open_row: self.open_row_of(i),
            act_allowed_at: self.act_allowed_at[i],
            col_allowed_at: self.col_allowed_at[i],
            pre_allowed_at: self.pre_allowed_at[i],
        }
    }

    /// The open row of bank `i`, or `None` when precharged.
    #[must_use]
    pub fn open_row_of(&self, i: usize) -> Option<u32> {
        let row = self.open_row[i];
        (row != Self::CLOSED).then_some(row)
    }

    /// Whether bank `i` currently has `row` open.
    #[must_use]
    pub fn is_row_open(&self, i: usize, row: u32) -> bool {
        debug_assert_ne!(row, Self::CLOSED, "row collides with the CLOSED sentinel");
        self.open_row[i] == row
    }

    /// Whether bank `i` is precharged (no open row).
    #[must_use]
    pub fn is_idle(&self, i: usize) -> bool {
        self.open_row[i] == Self::CLOSED
    }

    /// Whether every bank is precharged (the all-bank refresh gate).
    #[must_use]
    pub fn all_idle(&self) -> bool {
        self.open_row.iter().all(|&row| row == Self::CLOSED)
    }

    /// Earliest cycle an ACT command may be issued to bank `i`.
    #[must_use]
    pub fn act_allowed_at(&self, i: usize) -> u64 {
        self.act_allowed_at[i]
    }

    /// Earliest cycle a RD/WR command may be issued to bank `i`.
    #[must_use]
    pub fn col_allowed_at(&self, i: usize) -> u64 {
        self.col_allowed_at[i]
    }

    /// Earliest cycle a PRE command may be issued to bank `i`.
    #[must_use]
    pub fn pre_allowed_at(&self, i: usize) -> u64 {
        self.pre_allowed_at[i]
    }

    /// The maximum `act_allowed_at` across all banks (when any exist) — the
    /// all-bank refresh ready time.
    #[must_use]
    pub fn max_act_allowed_at(&self) -> Option<u64> {
        self.act_allowed_at.iter().copied().max()
    }

    /// Mirror of [`BankState::record_activate`] for bank `i`.
    pub fn record_activate(&mut self, i: usize, now: u64, row: u32, t: &TimingParams) {
        debug_assert!(self.is_idle(i), "activate on an active bank");
        debug_assert!(now >= self.act_allowed_at[i], "activate issued too early");
        debug_assert_ne!(row, Self::CLOSED, "row collides with the CLOSED sentinel");
        self.open_row[i] = row;
        self.col_allowed_at[i] = now + t.t_rcd;
        self.pre_allowed_at[i] = self.pre_allowed_at[i].max(now + t.t_ras);
        self.act_allowed_at[i] = self.act_allowed_at[i].max(now + t.t_rc);
    }

    /// Mirror of [`BankState::record_precharge`] for bank `i`.
    pub fn record_precharge(&mut self, i: usize, now: u64, t: &TimingParams) {
        debug_assert!(now >= self.pre_allowed_at[i], "precharge issued too early");
        self.open_row[i] = Self::CLOSED;
        self.act_allowed_at[i] = self.act_allowed_at[i].max(now + t.t_rp);
    }

    /// Mirror of [`BankState::record_read`] for bank `i`.
    pub fn record_read(&mut self, i: usize, now: u64, t: &TimingParams) {
        debug_assert!(!self.is_idle(i), "read on an idle bank");
        debug_assert!(now >= self.col_allowed_at[i], "read issued too early");
        self.pre_allowed_at[i] = self.pre_allowed_at[i].max(now + t.t_rtp);
    }

    /// Mirror of [`BankState::record_write`] for bank `i`.
    pub fn record_write(&mut self, i: usize, now: u64, burst_cycles: u64, t: &TimingParams) {
        debug_assert!(!self.is_idle(i), "write on an idle bank");
        debug_assert!(now >= self.col_allowed_at[i], "write issued too early");
        self.pre_allowed_at[i] = self.pre_allowed_at[i].max(now + t.cwl + burst_cycles + t.t_wr);
    }

    /// Mirror of [`BankState::record_refresh`] for bank `i`.
    pub fn record_refresh(&mut self, i: usize, now: u64, busy_cycles: u64) {
        debug_assert!(self.is_idle(i), "refresh on an active bank");
        self.act_allowed_at[i] = self.act_allowed_at[i].max(now + busy_cycles);
    }

    /// Refreshes every bank at `now` (the REFab service path).
    pub fn record_refresh_all(&mut self, now: u64, busy_cycles: u64) {
        for i in 0..self.len() {
            self.record_refresh(i, now, busy_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standards::{DramConfig, DramStandard};

    fn timing() -> TimingParams {
        DramConfig::preset(DramStandard::Ddr4, 3200).unwrap().timing
    }

    #[test]
    fn new_bank_is_idle() {
        let b = BankState::new();
        assert!(b.is_idle());
        assert!(!b.is_row_open(0));
        assert_eq!(b.act_allowed_at, 0);
    }

    #[test]
    fn activate_opens_row_and_sets_timings() {
        let t = timing();
        let mut b = BankState::new();
        b.record_activate(100, 42, &t);
        assert!(b.is_row_open(42));
        assert!(!b.is_row_open(43));
        assert_eq!(b.col_allowed_at, 100 + t.t_rcd);
        assert_eq!(b.pre_allowed_at, 100 + t.t_ras);
        assert_eq!(b.act_allowed_at, 100 + t.t_rc);
    }

    #[test]
    fn precharge_closes_row_and_blocks_activate_for_trp() {
        let t = timing();
        let mut b = BankState::new();
        b.record_activate(0, 7, &t);
        let pre_time = b.pre_allowed_at;
        b.record_precharge(pre_time, &t);
        assert!(b.is_idle());
        assert!(b.act_allowed_at >= pre_time + t.t_rp);
    }

    #[test]
    fn write_extends_precharge_beyond_read() {
        let t = timing();
        let mut rd_bank = BankState::new();
        let mut wr_bank = BankState::new();
        rd_bank.record_activate(0, 1, &t);
        wr_bank.record_activate(0, 1, &t);
        let when = rd_bank.col_allowed_at;
        rd_bank.record_read(when, &t);
        wr_bank.record_write(when, 4, &t);
        assert!(
            wr_bank.pre_allowed_at > rd_bank.pre_allowed_at,
            "write recovery must delay precharge more than read-to-precharge"
        );
    }

    #[test]
    fn refresh_blocks_activation() {
        let t = timing();
        let mut b = BankState::new();
        b.record_refresh(50, t.t_rfc_ab);
        assert_eq!(b.act_allowed_at, 50 + t.t_rfc_ab);
    }

    #[test]
    fn bank_array_mirrors_bank_state_transitions_exactly() {
        // Drive an identical scripted command sequence through the SoA array
        // and a plain Vec<BankState>; every lane must agree after every op.
        let t = timing();
        let banks = 8usize;
        let mut soa = BankArray::new(banks);
        let mut aos: Vec<BankState> = vec![BankState::new(); banks];
        assert_eq!(soa.len(), banks);
        assert!(!soa.is_empty());
        assert!(soa.all_idle());

        let check = |soa: &BankArray, aos: &[BankState], step: &str| {
            for (i, bank) in aos.iter().enumerate() {
                assert_eq!(soa.get(i), *bank, "bank {i} diverged after {step}");
            }
            assert_eq!(
                soa.all_idle(),
                aos.iter().all(BankState::is_idle),
                "all_idle diverged after {step}"
            );
            assert_eq!(
                soa.max_act_allowed_at(),
                aos.iter().map(|b| b.act_allowed_at).max(),
                "max_act_allowed_at diverged after {step}"
            );
        };

        // Deterministic mixed schedule: activate/read/write/precharge across
        // the banks, then precharge the rest, an all-bank refresh and a
        // per-bank refresh.
        let mut now = 0u64;
        for i in 0..banks {
            now += 7;
            let row = (i as u32) * 3 + 1;
            soa.record_activate(i, now, row, &t);
            aos[i].record_activate(now, row, &t);
            check(&soa, &aos, "activate");
            assert!(soa.is_row_open(i, row));
            assert_eq!(soa.open_row_of(i), Some(row));
        }
        for i in 0..banks {
            let when = soa.col_allowed_at(i).max(now);
            if i % 2 == 0 {
                soa.record_read(i, when, &t);
                aos[i].record_read(when, &t);
            } else {
                soa.record_write(i, when, 4, &t);
                aos[i].record_write(when, 4, &t);
            }
            check(&soa, &aos, "column");
        }
        now = (0..banks).map(|i| soa.pre_allowed_at(i)).max().unwrap();
        soa.record_precharge(0, now, &t);
        aos[0].record_precharge(now, &t);
        check(&soa, &aos, "precharge");
        assert!(soa.is_idle(0));

        for (i, bank) in aos.iter_mut().enumerate().skip(1) {
            soa.record_precharge(i, now, &t);
            bank.record_precharge(now, &t);
        }
        check(&soa, &aos, "precharge the rest");
        assert!(soa.all_idle());

        soa.record_refresh_all(now, t.t_rfc_ab);
        for bank in &mut aos {
            bank.record_refresh(now, t.t_rfc_ab);
        }
        check(&soa, &aos, "refresh-all");

        soa.record_refresh(3, now + t.t_rfc_ab, 9);
        aos[3].record_refresh(now + t.t_rfc_ab, 9);
        check(&soa, &aos, "refresh-bank");
    }
}
