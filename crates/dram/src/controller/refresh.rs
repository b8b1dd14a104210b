//! Refresh scheduling.
//!
//! Three modes are modelled:
//!
//! * [`RefreshMode::AllBank`] — a REFab command every `t_refi`, requiring all
//!   banks to be precharged (DDR3/DDR4 style).  The whole device is blocked
//!   for `t_rfc_ab`.
//! * [`RefreshMode::PerBank`] — one bank refreshed every `t_refi / banks`
//!   (LPDDR4/LPDDR5/DDR5 same-bank refresh style).  Other banks keep
//!   transferring data, so most of the refresh cost is hidden.
//! * [`RefreshMode::Disabled`] — no refresh at all.  The paper notes this is
//!   legal when the interleaver data lifetime is shorter than the refresh
//!   period (32–64 ms).

use crate::timing::TimingParams;

/// Refresh policy of the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefreshMode {
    /// All-bank refresh (REFab) every `t_refi`.
    #[default]
    AllBank,
    /// Per-bank (same-bank) refresh, rotating through banks.
    PerBank,
    /// Refresh disabled.
    Disabled,
}

/// Tracks refresh obligations over time.
#[derive(Debug, Clone)]
pub struct RefreshEngine {
    mode: RefreshMode,
    interval: u64,
    next_due: u64,
    pending: u32,
    next_bank: u32,
    total_banks: u32,
}

impl RefreshEngine {
    /// Creates a refresh engine for `total_banks` banks.
    #[must_use]
    pub fn new(mode: RefreshMode, timing: &TimingParams, total_banks: u32) -> Self {
        let interval = match mode {
            RefreshMode::AllBank => timing.t_refi.max(1),
            RefreshMode::PerBank => (timing.t_refi / u64::from(total_banks.max(1))).max(1),
            RefreshMode::Disabled => u64::MAX,
        };
        Self {
            mode,
            interval,
            next_due: interval,
            pending: 0,
            next_bank: 0,
            total_banks,
        }
    }

    /// The refresh mode.
    #[must_use]
    pub fn mode(&self) -> RefreshMode {
        self.mode
    }

    /// Updates the obligation counter for the current cycle.
    pub fn tick(&mut self, now: u64) {
        if self.mode == RefreshMode::Disabled {
            return;
        }
        while now >= self.next_due {
            self.pending += 1;
            self.next_due = self.next_due.saturating_add(self.interval);
        }
    }

    /// Number of refreshes owed right now.
    #[must_use]
    pub fn pending(&self) -> u32 {
        self.pending
    }

    /// Whether a refresh is currently owed.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.pending > 0
    }

    /// The bank targeted by the next per-bank refresh.
    #[must_use]
    pub fn target_bank(&self) -> u32 {
        self.next_bank
    }

    /// Cycle at which the next refresh obligation arises.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Marks one owed refresh as completed.
    pub fn complete_one(&mut self) {
        debug_assert!(self.pending > 0, "completing a refresh that was not owed");
        self.pending = self.pending.saturating_sub(1);
        if self.mode == RefreshMode::PerBank && self.total_banks > 0 {
            self.next_bank = (self.next_bank + 1) % self.total_banks;
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
    fn disabled_mode_never_pends() {
        let t = timing();
        let mut engine = RefreshEngine::new(RefreshMode::Disabled, &t, 16);
        engine.tick(u64::MAX / 2);
        assert!(!engine.is_pending());
    }

    #[test]
    fn all_bank_mode_pends_every_trefi() {
        let t = timing();
        let mut engine = RefreshEngine::new(RefreshMode::AllBank, &t, 16);
        engine.tick(t.t_refi - 1);
        assert_eq!(engine.pending(), 0);
        engine.tick(t.t_refi);
        assert_eq!(engine.pending(), 1);
        engine.tick(3 * t.t_refi);
        assert_eq!(engine.pending(), 3);
        engine.complete_one();
        assert_eq!(engine.pending(), 2);
    }

    #[test]
    fn per_bank_mode_rotates_banks_and_refreshes_more_often() {
        let t = timing();
        let mut engine = RefreshEngine::new(RefreshMode::PerBank, &t, 4);
        // Per-bank interval is a quarter of tREFI.
        engine.tick(t.t_refi);
        assert_eq!(engine.pending(), 4);
        let mut banks = Vec::new();
        for _ in 0..4 {
            banks.push(engine.target_bank());
            engine.complete_one();
        }
        assert_eq!(banks, vec![0, 1, 2, 3]);
        assert_eq!(engine.target_bank(), 0);
    }

    #[test]
    fn next_due_advances() {
        let t = timing();
        let mut engine = RefreshEngine::new(RefreshMode::AllBank, &t, 8);
        let first = engine.next_due();
        engine.tick(first);
        assert_eq!(engine.next_due(), first + t.t_refi);
    }
}
