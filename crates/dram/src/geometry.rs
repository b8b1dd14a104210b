//! Device geometry: banks, bank groups, rows, columns and burst length —
//! plus the channel/rank topology scaling one geometry out to a memory
//! subsystem.

use crate::error::ConfigError;

/// Channel/rank scale-out of a DRAM configuration.
///
/// A [`DeviceGeometry`] describes **one rank of one channel**; the topology
/// says how many independent channels the subsystem exposes and how many
/// ranks share each channel's command/data bus.  Channels are fully
/// independent (own bus, own controller — see
/// [`ChannelRouter`](crate::channel::ChannelRouter)); ranks multiply the
/// banks behind one controller and pay a bus-turnaround penalty
/// ([`TimingParams::t_rank_to_rank`](crate::TimingParams::t_rank_to_rank))
/// whenever consecutive data bursts come from different ranks.
///
/// The default `1 × 1` topology reproduces the single-channel, single-rank
/// device of the paper's Table I bit-exactly.
///
/// # Examples
///
/// ```
/// use tbi_dram::ChannelTopology;
///
/// let topology = ChannelTopology::new(2, 2);
/// assert_eq!(topology.units(), 4);
/// assert!(!topology.is_single());
/// assert!(ChannelTopology::default().is_single());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelTopology {
    /// Number of independent channels (each with its own controller and bus).
    pub channels: u32,
    /// Number of ranks sharing each channel's bus.
    pub ranks: u32,
}

impl Default for ChannelTopology {
    fn default() -> Self {
        Self {
            channels: 1,
            ranks: 1,
        }
    }
}

impl ChannelTopology {
    /// Creates a topology of `channels` × `ranks`.
    #[must_use]
    pub fn new(channels: u32, ranks: u32) -> Self {
        Self { channels, ranks }
    }

    /// Whether this is the legacy single-channel, single-rank topology.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.channels == 1 && self.ranks == 1
    }

    /// Total number of (channel, rank) units.
    #[must_use]
    pub fn units(&self) -> u32 {
        self.channels * self.ranks
    }

    /// Validates the topology.
    ///
    /// Channel and rank counts must be non-zero powers of two and stay
    /// within the modelled limits (64 channels, 8 ranks).  This is the one
    /// place the power-of-two rule for channels and ranks lives: every
    /// router and controller constructor calls it, so channel and rank bits
    /// are plain bit slices of the linear address and no routing path
    /// divides.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value, max) in [("channels", self.channels, 64), ("ranks", self.ranks, 8)] {
            if value == 0 || !value.is_power_of_two() || value > max {
                return Err(ConfigError::InvalidGeometry {
                    field,
                    reason: format!("{value} must be a power of two in 1..={max}"),
                });
            }
        }
        Ok(())
    }
}

/// Physical organisation of one DRAM channel.
///
/// The model treats a channel (all devices of one rank accessed in lock-step)
/// as a single logical device: `columns_per_row` counts *bursts* per row, so
/// the page size in bytes is `columns_per_row * burst_bytes()`.
///
/// Standards without bank groups (DDR3, LPDDR4) simply use
/// `bank_groups == 1`.
///
/// # Examples
///
/// ```
/// use tbi_dram::DeviceGeometry;
///
/// let geom = DeviceGeometry {
///     bank_groups: 4,
///     banks_per_group: 4,
///     rows: 1 << 16,
///     columns_per_row: 128,
///     burst_length: 8,
///     bus_width_bits: 64,
/// };
/// assert_eq!(geom.total_banks(), 16);
/// assert_eq!(geom.burst_bytes(), 64);
/// assert_eq!(geom.page_bytes(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceGeometry {
    /// Number of bank groups (1 for standards without bank groups).
    pub bank_groups: u32,
    /// Number of banks inside each bank group.
    pub banks_per_group: u32,
    /// Number of rows (pages) per bank.
    pub rows: u32,
    /// Number of bursts that fit in one open row (page) of one bank.
    pub columns_per_row: u32,
    /// Burst length in beats (8 for DDR3/DDR4, 16 for DDR5/LPDDR4/LPDDR5).
    pub burst_length: u32,
    /// Width of the data bus in bits.
    pub bus_width_bits: u32,
}

impl DeviceGeometry {
    /// Total number of banks in the channel.
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Number of bytes transferred by one burst.
    #[must_use]
    pub fn burst_bytes(&self) -> u32 {
        self.burst_length * self.bus_width_bits / 8
    }

    /// Number of device clock cycles the data bus is occupied by one burst.
    ///
    /// DRAM transfers two beats per clock cycle (double data rate), so this
    /// is `burst_length / 2`.
    #[must_use]
    pub fn burst_cycles(&self) -> u64 {
        u64::from(self.burst_length / 2)
    }

    /// Page (row buffer) size in bytes.
    #[must_use]
    pub fn page_bytes(&self) -> u32 {
        self.columns_per_row * self.burst_bytes()
    }

    /// Total number of addressable bursts in the channel.
    #[must_use]
    pub fn total_bursts(&self) -> u64 {
        u64::from(self.total_banks()) * u64::from(self.rows) * u64::from(self.columns_per_row)
    }

    /// Validates the geometry.
    ///
    /// This is the one place the power-of-two rule for bank groups, banks,
    /// rows and columns lives: JEDEC devices slice their addresses into
    /// bit fields, and the controller, the decoders and the optimized
    /// mapping call this at construction so that every address computation
    /// is a shift and a mask.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] if any field is zero or if a
    /// field that is used for address-bit slicing is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(field: &'static str, value: u32) -> Result<(), ConfigError> {
            if value == 0 || !value.is_power_of_two() {
                return Err(ConfigError::InvalidGeometry {
                    field,
                    reason: format!("{value} must be a non-zero power of two"),
                });
            }
            Ok(())
        }
        pow2("bank_groups", self.bank_groups)?;
        pow2("banks_per_group", self.banks_per_group)?;
        pow2("rows", self.rows)?;
        pow2("columns_per_row", self.columns_per_row)?;
        pow2("burst_length", self.burst_length)?;
        if self.bus_width_bits == 0 || self.bus_width_bits % 8 != 0 {
            return Err(ConfigError::InvalidGeometry {
                field: "bus_width_bits",
                reason: format!("{} must be a non-zero multiple of 8", self.bus_width_bits),
            });
        }
        if self.burst_length < 2 {
            return Err(ConfigError::InvalidGeometry {
                field: "burst_length",
                reason: "burst length must be at least 2 beats".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr4_like() -> DeviceGeometry {
        DeviceGeometry {
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 15,
            columns_per_row: 128,
            burst_length: 8,
            bus_width_bits: 64,
        }
    }

    #[test]
    fn derived_quantities() {
        let g = ddr4_like();
        assert_eq!(g.total_banks(), 16);
        assert_eq!(g.burst_bytes(), 64);
        assert_eq!(g.burst_cycles(), 4);
        assert_eq!(g.page_bytes(), 128 * 64);
        assert_eq!(g.total_bursts(), 16 * (1 << 15) * 128);
    }

    #[test]
    fn validate_accepts_good_geometry() {
        assert!(ddr4_like().validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_power_of_two_banks() {
        let mut g = ddr4_like();
        g.banks_per_group = 3;
        assert!(matches!(
            g.validate(),
            Err(ConfigError::InvalidGeometry {
                field: "banks_per_group",
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_zero_rows() {
        let mut g = ddr4_like();
        g.rows = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_odd_bus_width() {
        let mut g = ddr4_like();
        g.bus_width_bits = 17;
        assert!(matches!(
            g.validate(),
            Err(ConfigError::InvalidGeometry {
                field: "bus_width_bits",
                ..
            })
        ));
    }

    #[test]
    fn topology_validation_rejects_bad_counts() {
        assert!(ChannelTopology::default().validate().is_ok());
        assert!(ChannelTopology::new(4, 2).validate().is_ok());
        for bad in [
            ChannelTopology::new(0, 1),
            ChannelTopology::new(3, 1),
            ChannelTopology::new(128, 1),
            ChannelTopology::new(1, 0),
            ChannelTopology::new(1, 3),
            ChannelTopology::new(1, 16),
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn topology_units_and_single() {
        assert_eq!(ChannelTopology::new(4, 2).units(), 8);
        assert!(ChannelTopology::new(1, 1).is_single());
        assert!(!ChannelTopology::new(2, 1).is_single());
        assert!(!ChannelTopology::new(1, 2).is_single());
    }

    #[test]
    fn no_bank_group_geometry_is_valid() {
        let mut g = ddr4_like();
        g.bank_groups = 1;
        g.banks_per_group = 8;
        assert!(g.validate().is_ok());
        assert_eq!(g.total_banks(), 8);
    }
}
