//! Parallel scenario execution with deterministic result ordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::record::Record;
use crate::scenario::Scenario;
use crate::ExpError;

/// Runs a batch of scenarios and collects their records.
///
/// Scenarios are distributed over `std::thread` workers via an atomic work
/// queue; each record is stored at its scenario's index, so the output order
/// equals the input order **regardless of worker count** — a 1-worker and an
/// N-worker run of the same experiment produce identical record vectors.
///
/// # Examples
///
/// ```
/// use tbi_dram::DramStandard;
/// use tbi_interleaver::{InterleaverSpec, MappingKind};
/// use tbi_exp::{Experiment, Scenario};
///
/// # fn main() -> Result<(), tbi_exp::ExpError> {
/// let spec = InterleaverSpec::from_burst_count(2_000);
/// let scenarios = vec![
///     Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::RowMajor, spec)?,
///     Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::Optimized, spec)?,
/// ];
/// let records = Experiment::new(scenarios).with_workers(2).run()?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].mapping, "row-major");
/// assert_eq!(records[1].mapping, "optimized");
/// assert!(records.iter().all(|r| r.min_utilization > 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    scenarios: Vec<Scenario>,
    workers: usize,
}

impl Experiment {
    /// Creates an experiment running `scenarios` on a single worker.
    #[must_use]
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Self {
            scenarios,
            workers: 1,
        }
    }

    /// Sets the worker count; `0` selects the available hardware
    /// parallelism, capped at the scenario count (and at least 1).  The
    /// result order does not depend on this value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = if workers == 0 {
            let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
            parallelism.min(self.scenarios.len()).max(1)
        } else {
            workers
        };
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scenarios in execution (and result) order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Runs every scenario and returns the records in scenario order.
    ///
    /// # Examples
    ///
    /// ```
    /// use tbi_dram::DramStandard;
    /// use tbi_exp::{Experiment, Scenario};
    /// use tbi_interleaver::{InterleaverSpec, MappingKind};
    ///
    /// # fn main() -> Result<(), tbi_exp::ExpError> {
    /// let scenario = Scenario::preset(
    ///     DramStandard::Ddr4,
    ///     3200,
    ///     MappingKind::Optimized,
    ///     InterleaverSpec::from_burst_count(2_000),
    /// )?;
    /// let records = Experiment::new(vec![scenario]).run()?;
    /// assert_eq!(records.len(), 1);
    /// assert!(records[0].min_utilization > 0.5);
    /// assert!(records[0].simulated_cycles > 0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Scenario`] naming the first failing scenario in
    /// scenario order (not completion order, so the reported error is also
    /// deterministic across worker counts).
    pub fn run(&self) -> Result<Vec<Record>, ExpError> {
        let n = self.scenarios.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut slots: Vec<Option<Result<Record, ExpError>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        if self.workers == 1 || n == 1 {
            for (slot, scenario) in slots.iter_mut().zip(&self.scenarios) {
                *slot = Some(run_one(scenario));
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let results = Mutex::new(&mut slots);
            std::thread::scope(|scope| {
                for _ in 0..self.workers.min(n) {
                    scope.spawn(|| loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= n {
                            break;
                        }
                        let outcome = run_one(&self.scenarios[index]);
                        results.lock().expect("result mutex poisoned")[index] = Some(outcome);
                    });
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every scenario index was executed"))
            .collect()
    }
}

/// Runs one scenario, wrapping failures with the scenario's ID and its full
/// axis-value display (so a failing sweep cell is diagnosable from the log).
fn run_one(scenario: &Scenario) -> Result<Record, ExpError> {
    scenario.run().map_err(|source| ExpError::Scenario {
        id: scenario.id(),
        detail: scenario.to_string(),
        source: Box::new(source),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use tbi_dram::DramStandard;
    use tbi_interleaver::{InterleaverSpec, MappingKind};

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .preset(DramStandard::Ddr3, 800)
            .unwrap()
            .preset(DramStandard::Ddr4, 3200)
            .unwrap()
            .sizes([1_000, 3_000])
            .mappings(MappingKind::TABLE1)
    }

    #[test]
    fn empty_experiment_yields_no_records() {
        let records = Experiment::new(Vec::new()).with_workers(4).run().unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let sequential = small_grid().into_experiment().run().unwrap();
        let parallel = small_grid()
            .into_experiment()
            .with_workers(4)
            .run()
            .unwrap();
        assert_eq!(sequential.len(), 8);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn records_follow_scenario_order() {
        let experiment = small_grid().into_experiment().with_workers(3);
        let ids: Vec<String> = experiment.scenarios().iter().map(Scenario::id).collect();
        let records = experiment.run().unwrap();
        let record_ids: Vec<&str> = records.iter().map(|r| r.scenario_id.as_str()).collect();
        assert_eq!(ids, record_ids);
    }

    #[test]
    fn first_failing_scenario_is_reported_in_order() {
        // Index 0 and 2 both fail (the interleaver cannot fit); the reported
        // scenario must be index 0 for any worker count.
        let spec = InterleaverSpec::from_burst_count(100_000_000_000);
        let ok_spec = InterleaverSpec::from_burst_count(1_000);
        let scenarios = vec![
            Scenario::preset(DramStandard::Ddr3, 800, MappingKind::RowMajor, spec).unwrap(),
            Scenario::preset(DramStandard::Ddr3, 800, MappingKind::RowMajor, ok_spec).unwrap(),
            Scenario::preset(DramStandard::Ddr4, 3200, MappingKind::RowMajor, spec).unwrap(),
        ];
        let first_id = scenarios[0].id();
        for workers in [1, 4] {
            let err = Experiment::new(scenarios.clone())
                .with_workers(workers)
                .run()
                .unwrap_err();
            match err {
                ExpError::Scenario { id, .. } => assert_eq!(id, first_id),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn auto_workers_is_at_least_one() {
        let experiment = Experiment::new(Vec::new()).with_workers(0);
        assert!(experiment.workers() >= 1);
        let experiment = small_grid().into_experiment().with_workers(0);
        assert!(experiment.workers() >= 1);
        assert!(experiment.workers() <= 8);
    }

    #[test]
    fn with_workers_clamps_zero() {
        // `0` means all cores, capped at the scenario count: one worker for
        // an empty experiment, never more workers than scenarios.
        assert_eq!(Experiment::new(Vec::new()).with_workers(0).workers(), 1);
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let experiment = small_grid().into_experiment().with_workers(0);
        assert_eq!(experiment.workers(), parallelism.min(8));
    }
}
