//! # tbi-dram — a timing-faithful DRAM device and memory-controller model
//!
//! This crate is the DRAM substrate the `tbi` workspace uses to study how
//! the access pattern of a *triangular block interleaver* maps onto JEDEC DRAM
//! devices (the paper's DDR3, DDR4, DDR5, LPDDR4 and LPDDR5, plus HBM2, GDDR6
//! and DDR5-3DS).  It plays the role that the DRAMSys simulator plays in the
//! original paper: given a stream of read or write bursts addressed by (bank
//! group, bank, row, column), it simulates one memory controller plus device
//! per channel under the JEDEC timing constraints and reports the achieved
//! **data-bus bandwidth utilization**.
//!
//! Two interchangeable [`TimingEngine`]s advance the clock: the
//! **event-driven** engine (default) jumps from state transition to state
//! transition, while the **cycle-accurate** reference steps one device clock
//! cycle at a time.  They execute the same scheduler and are verified to
//! produce bit-identical statistics; the event engine is simply an order of
//! magnitude faster on interleaver-scale traces (see the
//! [`controller`] module documentation for the invariants).
//!
//! The model enforces the first-order JEDEC timing constraints that determine
//! the difference between "good" and "bad" access patterns:
//!
//! * column-to-column gaps ([`TimingParams::t_ccd_s`] / [`TimingParams::t_ccd_l`],
//!   i.e. the bank-group penalty),
//! * activation-rate limits ([`TimingParams::t_rrd_s`], [`TimingParams::t_rrd_l`],
//!   [`TimingParams::t_faw`]),
//! * row-cycle timings ([`TimingParams::t_rcd`], [`TimingParams::t_rp`],
//!   [`TimingParams::t_ras`], [`TimingParams::t_rc`]),
//! * write-recovery and turnaround ([`TimingParams::t_wr`], [`TimingParams::t_wtr_s`],
//!   [`TimingParams::t_wtr_l`], [`TimingParams::t_rtp`]),
//! * refresh ([`TimingParams::t_rfc_ab`], [`TimingParams::t_refi`]), with
//!   all-bank, per-bank or disabled refresh policies.
//!
//! ## Quick start
//!
//! ```
//! use tbi_dram::{ChannelRouter, ControllerConfig, DramConfig, DramStandard};
//! use tbi_dram::{IteratorSource, Request};
//!
//! # fn main() -> Result<(), tbi_dram::ConfigError> {
//! // A DDR4-3200 single-channel configuration.
//! let config = DramConfig::preset(DramStandard::Ddr4, 3200)?;
//! let mut router = ChannelRouter::new(config.clone(), ControllerConfig::default())?;
//!
//! // Write 1024 sequential bursts (decoded with the default address mapping).
//! let decoder = config.linear_decoder()?;
//! let trace = (0..1024u64).map(|i| Request::write(decoder.decode(i).1));
//! let stats = router.run_phase_sources(vec![IteratorSource(trace)]).aggregate();
//! assert_eq!(stats.completed_requests, 1024);
//! assert!(stats.bus_utilization() > 0.5);
//! # Ok(())
//! # }
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`geometry`] | [`DeviceGeometry`] (banks, bank groups, rows, columns, burst length) and [`ChannelTopology`] (channels × ranks) |
//! | [`channel`] | [`ChannelRouter`]: one controller per channel, each fed from its own request source, with aggregated [`CombinedStats`] |
//! | [`timing`] | [`TimingParams`]: all timing constraints in device clock cycles |
//! | [`standards`] | presets for the paper's ten configurations plus six modern ones (HBM2, GDDR6, DDR5-3DS) |
//! | [`address`] | [`PhysicalAddress`] and the [`DecodeScheme`] field orders of a controller's linear-address decode |
//! | [`batch`] | [`AddressBatch`]: structure-of-arrays buffers for batched address generation |
//! | [`permutation`] | [`BitPermutation`]/[`PermutationMapping`]: the linear-address decoder — the decode schemes and the searchable bit-permutation design space |
//! | [`command`] | the DRAM command set issued by the controller |
//! | [`bank`] | per-bank state machine with earliest-issue bookkeeping |
//! | [`request`] | read/write burst requests |
//! | [`controller`] | transaction queues, the open-page FR-FCFS scheduler, refresh, the two timing engines |
//! | [`stats`] | bandwidth and page hit/miss statistics |
//! | [`energy`] | a DRAMPower-style energy estimate |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bank;
pub mod batch;
pub mod channel;
pub mod command;
pub mod controller;
pub mod energy;
pub mod error;
pub mod geometry;
pub mod permutation;
pub mod request;
pub mod standards;
pub mod stats;
pub mod timing;

pub use address::{DecodeScheme, PhysicalAddress};
pub use bank::{BankArray, BankState};
pub use batch::{AddressBatch, AddressLanesMut};
pub use channel::{ChannelRouter, CombinedStats};
pub use command::{Command, CommandKind};
pub use controller::{
    Completion, Controller, ControllerConfig, RefreshMode, SchedulingPolicy, TimingEngine,
};
pub use energy::{EnergyParams, EnergyReport};
pub use error::ConfigError;
pub use geometry::{ChannelTopology, DeviceGeometry};
pub use permutation::{
    AddressField, BitPermutation, FoldOp, FoldStep, PermutationMapping, XorFold,
};
pub use request::{IteratorSource, Request, RequestKind, RequestSource};
pub use standards::{DramConfig, DramStandard};
pub use stats::Stats;
pub use timing::TimingParams;
