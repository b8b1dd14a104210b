//! Error types for configuration validation.

use std::error::Error;
use std::fmt;

/// Error returned when a DRAM configuration is inconsistent.
///
/// All geometry and timing values are validated when a
/// [`ChannelRouter`](crate::ChannelRouter) or
/// [`Controller`](crate::Controller) is constructed so that simulation code
/// can rely on invariants such as "burst length is a power of two" or
/// "`t_rc >= t_ras + t_rp`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry field has an invalid value (zero or not a power of two).
    InvalidGeometry {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// A timing parameter is inconsistent with another one.
    InvalidTiming {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// The requested preset (standard + speed grade) is not known.
    UnknownPreset {
        /// Standard name as given by the caller.
        standard: String,
        /// Data rate in MT/s as given by the caller.
        data_rate: u32,
    },
    /// A controller configuration value is invalid.
    InvalidController {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidGeometry { field, reason } => {
                write!(f, "invalid geometry field `{field}`: {reason}")
            }
            ConfigError::InvalidTiming { field, reason } => {
                write!(f, "invalid timing field `{field}`: {reason}")
            }
            ConfigError::UnknownPreset {
                standard,
                data_rate,
            } => write!(f, "unknown DRAM preset {standard}-{data_rate}"),
            ConfigError::InvalidController { field, reason } => {
                write!(f, "invalid controller field `{field}`: {reason}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_field_name() {
        let err = ConfigError::InvalidGeometry {
            field: "banks",
            reason: "must be a power of two".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("banks"));
        assert!(text.contains("power of two"));
    }

    #[test]
    fn unknown_preset_display() {
        let err = ConfigError::UnknownPreset {
            standard: "DDR4".to_string(),
            data_rate: 1234,
        };
        assert_eq!(err.to_string(), "unknown DRAM preset DDR4-1234");
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
    }
}
