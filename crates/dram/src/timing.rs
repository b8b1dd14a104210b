//! DRAM timing parameters.
//!
//! All values are expressed in **device clock cycles** (the memory clock, i.e.
//! half the data rate in MT/s).  The presets in [`crate::standards`] convert
//! nanosecond datasheet values to cycles for each speed grade.

use crate::error::ConfigError;

/// The set of JEDEC timing constraints enforced by the controller model.
///
/// Only the constraints that influence sustained bandwidth for streaming
/// read/write patterns are modelled; initialisation, calibration, power-down
/// and self-refresh timings are out of scope.
///
/// # Examples
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard};
///
/// # fn main() -> Result<(), tbi_dram::ConfigError> {
/// let cfg = DramConfig::preset(DramStandard::Ddr4, 3200)?;
/// // The bank-group penalty: consecutive column commands to the same bank
/// // group must be spaced further apart than commands to different groups.
/// assert!(cfg.timing.t_ccd_l >= cfg.timing.t_ccd_s);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// CAS read latency (RL): clock cycles from RD command to first data beat.
    pub cl: u64,
    /// CAS write latency (WL/CWL): cycles from WR command to first data beat.
    pub cwl: u64,
    /// ACT to internal read/write delay.
    pub t_rcd: u64,
    /// PRE to ACT delay on the same bank.
    pub t_rp: u64,
    /// ACT to PRE minimum delay on the same bank.
    pub t_ras: u64,
    /// ACT to ACT minimum delay on the same bank (>= `t_ras + t_rp`).
    pub t_rc: u64,
    /// ACT to ACT delay, different banks, **different** bank groups.
    pub t_rrd_s: u64,
    /// ACT to ACT delay, different banks, **same** bank group.
    pub t_rrd_l: u64,
    /// Four-activate window: at most four ACT commands per `t_faw` cycles.
    pub t_faw: u64,
    /// Column command to column command delay, **different** bank groups.
    pub t_ccd_s: u64,
    /// Column command to column command delay, **same** bank group.
    pub t_ccd_l: u64,
    /// Write recovery time: last write data beat to PRE on the same bank.
    pub t_wr: u64,
    /// Write-to-read turnaround, different bank groups.
    pub t_wtr_s: u64,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: u64,
    /// Read to PRE delay on the same bank.
    pub t_rtp: u64,
    /// All-bank refresh cycle time (REFab busy time).
    pub t_rfc_ab: u64,
    /// Per-bank refresh cycle time (REFpb busy time); 0 if unsupported.
    pub t_rfc_pb: u64,
    /// Average refresh interval.
    pub t_refi: u64,
    /// Extra data-bus idle cycles inserted when the bus switches between
    /// reads and writes (DQ turnaround bubble).
    pub t_bus_turn: u64,
    /// Extra data-bus idle cycles inserted when consecutive data bursts on
    /// one channel come from **different ranks** (tRTRS-style rank-to-rank
    /// switch bubble: the outgoing rank must release the bus before the
    /// incoming rank may drive it).  Never applies on single-rank channels,
    /// so the Table I results are unaffected by its value.
    pub t_rank_to_rank: u64,
}

impl TimingParams {
    /// Validates internal consistency of the timing set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidTiming`] when a derived relationship is
    /// violated (for example `t_rc < t_ras + t_rp`, or a "long" constraint
    /// being shorter than its "short" counterpart).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(ConfigError::InvalidTiming {
                field: "t_rc",
                reason: format!(
                    "t_rc ({}) must be >= t_ras + t_rp ({})",
                    self.t_rc,
                    self.t_ras + self.t_rp
                ),
            });
        }
        if self.t_ccd_l < self.t_ccd_s {
            return Err(ConfigError::InvalidTiming {
                field: "t_ccd_l",
                reason: "t_ccd_l must be >= t_ccd_s".to_string(),
            });
        }
        if self.t_rrd_l < self.t_rrd_s {
            return Err(ConfigError::InvalidTiming {
                field: "t_rrd_l",
                reason: "t_rrd_l must be >= t_rrd_s".to_string(),
            });
        }
        if self.t_wtr_l < self.t_wtr_s {
            return Err(ConfigError::InvalidTiming {
                field: "t_wtr_l",
                reason: "t_wtr_l must be >= t_wtr_s".to_string(),
            });
        }
        if self.t_faw < self.t_rrd_s {
            return Err(ConfigError::InvalidTiming {
                field: "t_faw",
                reason: "t_faw must be >= t_rrd_s".to_string(),
            });
        }
        if self.t_refi > 0 && self.t_rfc_ab >= self.t_refi {
            return Err(ConfigError::InvalidTiming {
                field: "t_rfc_ab",
                reason: "t_rfc_ab must be smaller than t_refi".to_string(),
            });
        }
        for (field, value) in [
            ("cl", self.cl),
            ("cwl", self.cwl),
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_ras", self.t_ras),
            ("t_ccd_s", self.t_ccd_s),
        ] {
            if value == 0 {
                return Err(ConfigError::InvalidTiming {
                    field,
                    reason: "must be non-zero".to_string(),
                });
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------- //
    // Earliest-ready-cycle queries
    //
    // The event-driven engine never polls "can I issue now?" cycle by
    // cycle; instead it asks the timing table directly for the earliest
    // cycle at which a follow-up command satisfies each constraint and
    // jumps the clock there.  These helpers answer those queries.
    // ----------------------------------------------------------------- //

    /// Minimum spacing between two column (RD/WR) commands, depending on
    /// whether both target the **same bank group** (`t_ccd_l`) or different
    /// ones (`t_ccd_s`).
    #[must_use]
    pub fn ccd(&self, same_bank_group: bool) -> u64 {
        if same_bank_group {
            self.t_ccd_l
        } else {
            self.t_ccd_s
        }
    }

    /// Minimum spacing between two ACT commands to different banks,
    /// depending on whether both target the **same bank group** (`t_rrd_l`)
    /// or different ones (`t_rrd_s`).
    #[must_use]
    pub fn rrd(&self, same_bank_group: bool) -> u64 {
        if same_bank_group {
            self.t_rrd_l
        } else {
            self.t_rrd_s
        }
    }

    /// Write-to-read turnaround measured from the last write data beat,
    /// depending on whether the read targets the **same bank group**
    /// (`t_wtr_l`) or a different one (`t_wtr_s`).
    #[must_use]
    pub fn wtr(&self, same_bank_group: bool) -> u64 {
        if same_bank_group {
            self.t_wtr_l
        } else {
            self.t_wtr_s
        }
    }

    /// Command-to-first-data-beat latency of a column command (`cwl` for
    /// writes, `cl` for reads).
    #[must_use]
    pub fn column_latency(&self, is_write: bool) -> u64 {
        if is_write {
            self.cwl
        } else {
            self.cl
        }
    }

    /// Earliest cycle a column command may follow a column command issued at
    /// `last_column_at`.
    #[must_use]
    pub fn column_ready_after_column(&self, last_column_at: u64, same_bank_group: bool) -> u64 {
        last_column_at + self.ccd(same_bank_group)
    }

    /// Earliest cycle a read command may follow a write whose **data** ended
    /// at `write_data_end`.
    #[must_use]
    pub fn read_ready_after_write_data(&self, write_data_end: u64, same_bank_group: bool) -> u64 {
        write_data_end + self.wtr(same_bank_group)
    }

    /// Earliest cycle an ACT command may follow an ACT issued at
    /// `last_act_at` on a *different* bank.
    #[must_use]
    pub fn act_ready_after_act(&self, last_act_at: u64, same_bank_group: bool) -> u64 {
        last_act_at + self.rrd(same_bank_group)
    }

    /// Earliest cycle a fifth ACT may follow the ACT that opened the current
    /// four-activate window at `fourth_last_act_at`.
    #[must_use]
    pub fn act_ready_after_faw(&self, fourth_last_act_at: u64) -> u64 {
        fourth_last_act_at + self.t_faw
    }
}

/// Converts a nanosecond datasheet value to clock cycles at `clock_mhz`,
/// rounding up as JEDEC requires.
#[must_use]
pub fn ns_to_cycles(ns: f64, clock_mhz: f64) -> u64 {
    let cycles = ns * clock_mhz / 1000.0;
    // Guard against floating point representation of exact multiples.
    let rounded = cycles.ceil();
    if (cycles - cycles.round()).abs() < 1e-9 {
        cycles.round() as u64
    } else {
        rounded as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standards::{DramConfig, DramStandard};

    #[test]
    fn ns_conversion_rounds_up() {
        // 13.75 ns at 800 MHz = 11 cycles exactly.
        assert_eq!(ns_to_cycles(13.75, 800.0), 11);
        // 13.76 ns at 800 MHz = 11.008 -> 12 cycles.
        assert_eq!(ns_to_cycles(13.76, 800.0), 12);
        // exact multiples are not inflated
        assert_eq!(ns_to_cycles(10.0, 400.0), 4);
        assert_eq!(ns_to_cycles(0.0, 800.0), 0);
    }

    #[test]
    fn presets_validate() {
        for (standard, rate) in crate::standards::ALL_CONFIGS {
            let cfg = DramConfig::preset(*standard, *rate).expect("preset exists");
            cfg.timing.validate().unwrap_or_else(|e| {
                panic!("timing for {standard:?}-{rate} invalid: {e}");
            });
        }
    }

    #[test]
    fn validate_rejects_rc_smaller_than_ras_plus_rp() {
        let mut t = DramConfig::preset(DramStandard::Ddr4, 1600).unwrap().timing;
        t.t_rc = t.t_ras; // too small
        assert!(matches!(
            t.validate(),
            Err(ConfigError::InvalidTiming { field: "t_rc", .. })
        ));
    }

    #[test]
    fn validate_rejects_short_longer_than_long() {
        let mut t = DramConfig::preset(DramStandard::Ddr4, 1600).unwrap().timing;
        t.t_ccd_s = t.t_ccd_l + 1;
        assert!(t.validate().is_err());
    }
}
