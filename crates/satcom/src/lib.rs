//! # tbi-satcom — optical LEO downlink substrate
//!
//! The paper motivates its DRAM mapping with free-space optical downlinks
//! from low-earth-orbit satellites: data rates beyond 100 Gbit/s, channel
//! coherence times above 2 ms, and therefore burst errors that only a *very*
//! large interleaver can break up.  This crate provides the surrounding
//! system so the interleaver can be exercised end to end:
//!
//! * [`gf256`] / [`reed_solomon`] — a GF(2⁸) Reed–Solomon codec
//!   (RS(255, 223) by default), the classic FEC for satellite links;
//! * [`channel`] — burst-error channel models (Gilbert–Elliott and a
//!   coherence-time fading model of the optical channel);
//! * [`profile`] — time-varying downlink passes: elevation/weather segments
//!   that retune the burst channel's state probabilities over the pass;
//! * [`link`] — the end-to-end pipeline
//!   *encode → interleave → channel → de-interleave → decode* with
//!   frame/bit error rate measurement, demonstrating the interleaving gain;
//! * [`budget`] — data-rate ⇄ DRAM-bandwidth budgeting, quantifying how much
//!   a DRAM configuration must be over-provisioned at a given bandwidth
//!   utilization.
//!
//! ## Quick start
//!
//! ```
//! use rand::SeedableRng;
//! use tbi_satcom::channel::GilbertElliott;
//! use tbi_satcom::link::{InterleaverChoice, LinkConfig, LinkSimulation};
//!
//! # fn main() -> Result<(), tbi_satcom::SatcomError> {
//! let config = LinkConfig {
//!     rs_data_len: 223,
//!     rs_code_len: 255,
//!     codewords: 40,
//!     interleaver: InterleaverChoice::Triangular,
//! };
//! let channel = GilbertElliott::optical_downlink(0.02);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let report = LinkSimulation::new(config)?.run(&channel, &mut rng)?;
//! assert!(report.frame_error_rate() <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod channel;
pub mod gf256;
pub mod link;
pub mod profile;
pub mod reed_solomon;

pub use budget::BandwidthBudget;
pub use channel::{CoherenceFading, GilbertElliott, SymbolChannel};
pub use gf256::Gf256;
pub use link::{LinkConfig, LinkReport, LinkSimulation};
pub use profile::{LinkProfile, PassSegment, Weather};
pub use reed_solomon::ReedSolomon;

/// Errors produced by the satcom substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SatcomError {
    /// Reed–Solomon parameters are invalid (e.g. `k >= n` or `n > 255`).
    InvalidCodeParameters {
        /// Explanation of the problem.
        reason: String,
    },
    /// A code word could not be corrected (more errors than the code can fix).
    DecodingFailure {
        /// Number of errors detected by the decoder before giving up.
        detected_errors: usize,
    },
    /// Link or interleaver configuration is inconsistent.
    InvalidLinkConfig {
        /// Explanation of the problem.
        reason: String,
    },
    /// Error propagated from the interleaver crate.
    Interleaver(tbi_interleaver::InterleaverError),
}

impl std::fmt::Display for SatcomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatcomError::InvalidCodeParameters { reason } => {
                write!(f, "invalid Reed-Solomon parameters: {reason}")
            }
            SatcomError::DecodingFailure { detected_errors } => {
                write!(f, "decoding failure with {detected_errors} detected errors")
            }
            SatcomError::InvalidLinkConfig { reason } => {
                write!(f, "invalid link configuration: {reason}")
            }
            SatcomError::Interleaver(e) => write!(f, "interleaver error: {e}"),
        }
    }
}

impl std::error::Error for SatcomError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SatcomError::Interleaver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tbi_interleaver::InterleaverError> for SatcomError {
    fn from(value: tbi_interleaver::InterleaverError) -> Self {
        SatcomError::Interleaver(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let err = SatcomError::InvalidCodeParameters {
            reason: "k >= n".to_string(),
        };
        assert!(err.to_string().contains("k >= n"));
        let err = SatcomError::DecodingFailure {
            detected_errors: 17,
        };
        assert!(err.to_string().contains("17"));
    }

    #[test]
    fn interleaver_errors_convert_with_source() {
        let inner = tbi_interleaver::InterleaverError::InvalidDimension {
            reason: "zero".to_string(),
        };
        let err: SatcomError = inner.into();
        assert!(std::error::Error::source(&err).is_some());
    }
}
