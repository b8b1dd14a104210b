//! The user-facing memory system: a thin driver around [`Controller`].

use crate::channel::drive_channel;
use crate::controller::{Controller, ControllerConfig, TimingEngine};
use crate::energy::{EnergyParams, EnergyReport};
use crate::error::ConfigError;
use crate::request::{IteratorSource, Request};
use crate::standards::DramConfig;
use crate::stats::Stats;

/// A single-channel DRAM memory system (controller + device).
///
/// `MemorySystem` owns a [`Controller`] and provides convenience methods to
/// push request streams through it and read back bandwidth statistics.
///
/// # Examples
///
/// Stream a saturated sequence of writes through a DDR4-3200 channel:
///
/// ```
/// use tbi_dram::{DramConfig, DramStandard, MemorySystem, Request};
///
/// # fn main() -> Result<(), tbi_dram::ConfigError> {
/// let config = DramConfig::preset(DramStandard::Ddr4, 3200)?;
/// let mut system = MemorySystem::new(config.clone())?;
/// let decoder = config.linear_decoder()?;
/// let stats = system.run_trace((0..4096).map(|i| Request::write(decoder.decode(i).1)));
/// assert_eq!(stats.completed_requests, 4096);
/// assert!(stats.bus_utilization() > 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    controller: Controller,
}

impl MemorySystem {
    /// Creates a memory system with the default controller configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the DRAM configuration is invalid.
    pub fn new(config: DramConfig) -> Result<Self, ConfigError> {
        Self::with_controller(config, ControllerConfig::default())
    }

    /// Creates a memory system with an explicit controller configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either configuration is invalid.
    pub fn with_controller(
        config: DramConfig,
        ctrl: ControllerConfig,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            controller: Controller::new(config, ctrl)?,
        })
    }

    /// The DRAM configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        self.controller.config()
    }

    /// Immutable access to the underlying controller.
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Enqueues a request, returning `false` if the controller queue is full.
    pub fn enqueue(&mut self, request: Request) -> bool {
        self.controller.enqueue(request)
    }

    /// The timing engine driving [`Self::run_trace`] /
    /// [`Self::run_to_completion`].
    #[must_use]
    pub fn engine(&self) -> TimingEngine {
        self.controller.controller_config().engine
    }

    /// Advances the simulation by exactly one device clock cycle (the
    /// cycle-accurate reference shim; see [`Controller::tick`]).
    ///
    /// Returns `true` while work remains.
    pub fn tick(&mut self) -> bool {
        self.controller.tick()
    }

    /// Advances the simulation by one step of the configured
    /// [`TimingEngine`] (see [`Controller::step`]).
    ///
    /// Returns `true` while work remains.
    pub fn step(&mut self) -> bool {
        self.controller.step()
    }

    /// Runs until all queued requests and owed refreshes have completed and
    /// returns a snapshot of the statistics window.
    pub fn run_to_completion(&mut self) -> Stats {
        self.controller.drain();
        self.controller.stats().clone()
    }

    /// Feeds an entire request trace through the controller, keeping its
    /// queues saturated (back-pressure is respected), then drains and returns
    /// the statistics for the window.
    ///
    /// This models the paper's measurement setup: the interleaver front-end
    /// always has the next burst ready, so the achieved bandwidth is limited
    /// only by the DRAM.  The trace runs through the same per-channel loop
    /// as [`ChannelRouter`](crate::ChannelRouter), adapted by
    /// [`IteratorSource`].
    pub fn run_trace<I>(&mut self, trace: I) -> Stats
    where
        I: IntoIterator<Item = Request>,
    {
        drive_channel(&mut self.controller, IteratorSource(trace.into_iter()));
        self.controller.stats().clone()
    }

    /// Resets the statistics window (see [`Controller::reset_stats`]).
    pub fn reset_stats(&mut self) {
        self.controller.reset_stats();
    }

    /// Statistics of the current window.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        self.controller.stats()
    }

    /// Energy estimate for the current statistics window using representative
    /// parameters for the configured standard.
    #[must_use]
    pub fn energy_report(&self) -> EnergyReport {
        let params = EnergyParams::for_config(self.config());
        EnergyReport::from_stats(self.stats(), self.config(), &params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::RefreshMode;
    use crate::permutation::PermutationMapping;
    use crate::standards::DramStandard;

    fn system(standard: DramStandard, rate: u32) -> (PermutationMapping, MemorySystem) {
        let config = DramConfig::preset(standard, rate).unwrap();
        let system = MemorySystem::new(config.clone()).unwrap();
        (config.linear_decoder().unwrap(), system)
    }

    #[test]
    fn run_trace_completes_every_request() {
        let (decoder, mut system) = system(DramStandard::Ddr3, 1600);
        let n = 10_000u64;
        let stats = system.run_trace((0..n).map(|i| Request::write(decoder.decode(i).1)));
        assert_eq!(stats.completed_requests, n);
        assert_eq!(stats.write_bursts, n);
        assert_eq!(stats.read_bursts, 0);
    }

    #[test]
    fn sequential_writes_then_reads_measured_separately() {
        let (decoder, mut system) = system(DramStandard::Ddr4, 1600);
        let n = 5_000u64;
        let write_stats = system.run_trace((0..n).map(|i| Request::write(decoder.decode(i).1)));
        system.reset_stats();
        let read_stats = system.run_trace((0..n).map(|i| Request::read(decoder.decode(i).1)));
        assert_eq!(write_stats.write_bursts, n);
        assert_eq!(read_stats.read_bursts, n);
        assert!(write_stats.bus_utilization() > 0.5);
        assert!(read_stats.bus_utilization() > 0.5);
    }

    #[test]
    fn random_pattern_is_slower_than_sequential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let config = DramConfig::preset(DramStandard::Lpddr4, 4266).unwrap();
        let decoder = config.linear_decoder().unwrap();
        let n = 20_000u64;
        let ctrl = ControllerConfig {
            refresh_mode: Some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        };

        let mut seq = MemorySystem::with_controller(config.clone(), ctrl).unwrap();
        let seq_stats = seq.run_trace((0..n).map(|i| Request::read(decoder.decode(i).1)));

        let mut rng = StdRng::seed_from_u64(7);
        let total = config.geometry.total_bursts();
        let mut rnd = MemorySystem::with_controller(config.clone(), ctrl).unwrap();
        let rnd_stats =
            rnd.run_trace((0..n).map(|_| Request::read(decoder.decode(rng.gen_range(0..total)).1)));

        assert!(
            seq_stats.bus_utilization() > rnd_stats.bus_utilization(),
            "sequential {} should beat random {}",
            seq_stats.bus_utilization(),
            rnd_stats.bus_utilization()
        );
        assert!(rnd_stats.row_hit_rate() < seq_stats.row_hit_rate());
    }

    #[test]
    fn energy_report_is_positive_after_traffic() {
        let (decoder, mut system) = system(DramStandard::Ddr5, 6400);
        let _ = system.run_trace((0..2_000u64).map(|i| Request::write(decoder.decode(i).1)));
        let report = system.energy_report();
        assert!(report.total_mj > 0.0);
        assert!(report.nj_per_byte > 0.0);
    }

    #[test]
    fn enqueue_respects_backpressure() {
        let (decoder, mut system) = system(DramStandard::Ddr4, 3200);
        let mut accepted = 0u64;
        for i in 0..1_000u64 {
            if system.enqueue(Request::write(decoder.decode(i).1)) {
                accepted += 1;
            }
        }
        assert!(
            accepted <= 64,
            "default queue capacity should bound acceptance"
        );
        let stats = system.run_to_completion();
        assert_eq!(stats.completed_requests, accepted);
    }
}
