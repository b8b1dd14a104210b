//! Shared helpers for the `tbi-bench` table/figure regeneration binaries.
//!
//! The heavy lifting lives in [`tbi_exp`]: the binaries declare a
//! [`SweepGrid`], run it through an [`Experiment`] and
//! format/serialize the resulting [`Record`]s.  This crate only hosts the
//! common command-line surface ([`HarnessOptions`], parsed against each
//! binary's own flag list), the Table-I-style text formatting, the
//! campaign bench's set-up and the perf gate's check table ([`gate`]).

pub mod gate;

use std::path::PathBuf;

use tbi_dram::{ControllerConfig, DramStandard, RefreshMode};
use tbi_exp::{
    serialize, Campaign, CampaignConfig, ExpError, Experiment, Record, RefreshSetting, SweepGrid,
};
use tbi_interleaver::{MappingKind, TriangularInterleaver};
use tbi_satcom::{LinkProfile, Weather};

/// Default interleaver size (in DRAM bursts) used by the harness binaries.
///
/// The paper uses 12.5 M elements; the default here is smaller so that the
/// full table regenerates in seconds.  Utilization converges quickly with
/// size (see the `size_sweep` binary), and `--full` switches to the paper's
/// exact size.
pub const DEFAULT_BURSTS: u64 = 1 << 20;

/// Every shared harness flag, in usage order.  Each binary passes the
/// subset it reads to [`HarnessOptions::parse_for`] and
/// [`HarnessOptions::usage_for`].
pub const ALL_FLAGS: [&str; 8] = [
    "--full",
    "--bursts",
    "--no-refresh",
    "--channels",
    "--ranks",
    "--workers",
    "--threads",
    "--json",
];

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HarnessOptions {
    /// Interleaver size in bursts.
    pub bursts: u64,
    /// Disable refresh (the paper's in-text experiment).
    pub no_refresh: bool,
    /// Worker threads for the experiment run (0 = automatic).
    pub workers: usize,
    /// Worker threads *inside* each scenario, driving the per-channel
    /// controllers (results are bit-identical for any value; default 1).
    pub threads: usize,
    /// Write the records as JSON to this path.
    pub json: Option<PathBuf>,
    /// Independent DRAM channels per configuration (1 = the paper's device).
    pub channels: u32,
    /// Ranks per channel (1 = the paper's device).
    pub ranks: u32,
    /// `--help`/`-h` was requested; the binary should print usage and exit.
    pub help: bool,
}

impl HarnessOptions {
    /// The defaults used when no flags are given.
    #[must_use]
    pub fn new() -> Self {
        Self {
            bursts: DEFAULT_BURSTS,
            no_refresh: false,
            workers: 0,
            threads: 1,
            json: None,
            channels: 1,
            ranks: 1,
            help: false,
        }
    }

    /// Parses options for a binary that accepts only `flags` (a subset of
    /// [`ALL_FLAGS`]).  The same list drives [`HarnessOptions::usage_for`],
    /// so a binary never silently ignores a flag it does not read.
    ///
    /// The shared flags are `--full` (12.5 M bursts as in the paper),
    /// `--bursts <n>`, `--no-refresh`, `--workers <n>`, `--threads <n>`,
    /// `--json <path>`, `--channels <n>` and `--ranks <n>`; `--help`/`-h` is
    /// always accepted, sets [`HarnessOptions::help`] and stops parsing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable error message for unknown flags, shared
    /// flags missing from `flags` (named), positional arguments, malformed
    /// or out-of-range numbers and missing flag values.  Parsing never
    /// panics.
    pub fn parse_for<I: IntoIterator<Item = String>>(
        args: I,
        flags: &[&str],
    ) -> Result<Self, String> {
        let (options, positionals) = Self::parse_with_positionals(args, flags)?;
        match positionals.first() {
            Some(positional) => Err(format!("unexpected argument `{positional}`")),
            None => Ok(options),
        }
    }

    /// As [`HarnessOptions::parse_for`], but returns the arguments that do
    /// not start with `-` (and are not a flag's value) instead of
    /// rejecting them.
    ///
    /// # Errors
    ///
    /// As [`HarnessOptions::parse_for`], except for positional arguments.
    pub fn parse_with_positionals<I: IntoIterator<Item = String>>(
        args: I,
        flags: &[&str],
    ) -> Result<(Self, Vec<String>), String> {
        let mut options = Self::new();
        let mut positionals = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut next_value = |name: &str| {
                iter.next()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--help" | "-h" => {
                    options.help = true;
                    return Ok((options, positionals));
                }
                flag if ALL_FLAGS.contains(&flag) && !flags.contains(&flag) => {
                    return Err(format!("option `{flag}` is not supported by this binary"));
                }
                "--full" => options.bursts = 12_500_000,
                "--no-refresh" => options.no_refresh = true,
                "--bursts" => {
                    let value = next_value("--bursts")?;
                    options.bursts = value
                        .parse()
                        .map_err(|e| format!("invalid burst count `{value}`: {e}"))?;
                    if options.bursts == 0 {
                        return Err("burst count must be non-zero".to_string());
                    }
                    if options.bursts > TriangularInterleaver::MAX_CAPACITY {
                        return Err(format!(
                            "burst count {value} exceeds the largest triangular \
                             interleaver ({} bursts)",
                            TriangularInterleaver::MAX_CAPACITY
                        ));
                    }
                }
                "--workers" => {
                    let value = next_value("--workers")?;
                    options.workers = value
                        .parse()
                        .map_err(|e| format!("invalid worker count `{value}`: {e}"))?;
                    if options.workers == 0 {
                        return Err(
                            "worker count must be at least 1 (omit --workers for all cores)"
                                .to_string(),
                        );
                    }
                }
                "--threads" => {
                    let value = next_value("--threads")?;
                    options.threads = value
                        .parse()
                        .map_err(|e| format!("invalid thread count `{value}`: {e}"))?;
                    if options.threads == 0 {
                        return Err("thread count must be at least 1".to_string());
                    }
                }
                "--channels" => {
                    let value = next_value("--channels")?;
                    options.channels = value
                        .parse()
                        .map_err(|e| format!("invalid channel count `{value}`: {e}"))?;
                    if options.channels == 0 || !options.channels.is_power_of_two() {
                        return Err(format!(
                            "channel count must be a non-zero power of two, got `{value}`"
                        ));
                    }
                }
                "--ranks" => {
                    let value = next_value("--ranks")?;
                    options.ranks = value
                        .parse()
                        .map_err(|e| format!("invalid rank count `{value}`: {e}"))?;
                    if options.ranks == 0 || !options.ranks.is_power_of_two() {
                        return Err(format!(
                            "rank count must be a non-zero power of two, got `{value}`"
                        ));
                    }
                }
                "--json" => options.json = Some(PathBuf::from(next_value("--json")?)),
                other if !other.starts_with('-') => positionals.push(arg),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok((options, positionals))
    }

    /// Parses the process arguments for `binary`, which accepts `flags`
    /// (see [`HarnessOptions::parse_for`]); prints the usage and exits on
    /// `--help` or a bad command line (see [`HarnessOptions::or_exit`]).
    #[must_use]
    pub fn from_env(binary: &str, flags: &[&str]) -> Self {
        Self::or_exit(
            Self::parse_for(std::env::args().skip(1), flags),
            &Self::usage_for(binary, flags),
        )
    }

    /// Unwraps a parse result in a binary's `main`: on `--help` prints
    /// `usage` and exits 0; on an error prints it with `usage` and exits 2.
    #[must_use]
    pub fn or_exit(parsed: Result<Self, String>, usage: &str) -> Self {
        match parsed {
            Ok(options) if options.help => {
                println!("{usage}");
                std::process::exit(0);
            }
            Ok(options) => options,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }

    /// Usage text for a harness binary accepting only a subset of the shared
    /// flags (`flags` lists them by name, e.g. `"--workers"`); `--help` is
    /// always included.
    #[must_use]
    pub fn usage_for(binary: &str, flags: &[&str]) -> String {
        // Usage form and help of each entry of `ALL_FLAGS`, in the same order.
        let known: [(&str, String); 8] = [
            (
                "--full",
                "evaluate the paper's exact 12.5 M-burst interleaver".to_string(),
            ),
            (
                "--bursts <n>",
                format!("interleaver size in DRAM bursts (default {DEFAULT_BURSTS})"),
            ),
            (
                "--no-refresh",
                "disable DRAM refresh (the paper's in-text experiment)".to_string(),
            ),
            (
                "--channels <n>",
                "independent DRAM channels per configuration (default 1)".to_string(),
            ),
            ("--ranks <n>", "ranks per channel (default 1)".to_string()),
            (
                "--workers <n>",
                "worker threads for the sweep (default: all cores)".to_string(),
            ),
            (
                "--threads <n>",
                "worker threads per scenario, driving its channels (default 1)".to_string(),
            ),
            (
                "--json <path>",
                "write the records as JSON to <path>".to_string(),
            ),
        ];
        let selected: Vec<_> = ALL_FLAGS
            .iter()
            .zip(&known)
            .filter(|(name, _)| flags.contains(name))
            .map(|(_, entry)| entry)
            .collect();
        let mut out = format!("usage: {binary}");
        for (form, _) in &selected {
            out.push_str(&format!(" [{form}]"));
        }
        out.push_str(" [--help]\n\noptions:\n");
        for (form, help) in &selected {
            out.push_str(&format!("  {form:<16} {help}\n"));
        }
        out.push_str("  -h, --help       print this help");
        out
    }

    /// The controller configuration implied by the options.
    #[must_use]
    pub fn controller(&self) -> ControllerConfig {
        ControllerConfig {
            refresh_mode: self.no_refresh.then_some(RefreshMode::Disabled),
            ..ControllerConfig::default()
        }
    }

    /// The refresh-axis setting implied by `--no-refresh`.
    #[must_use]
    pub fn refresh_setting(&self) -> RefreshSetting {
        if self.no_refresh {
            RefreshSetting::Disabled
        } else {
            RefreshSetting::Standard
        }
    }

    /// The [`Experiment`] that runs `grid` with the configured thread and
    /// worker counts.
    #[must_use]
    pub fn experiment(&self, grid: SweepGrid) -> Experiment {
        let experiment = grid.threads(self.threads).into_experiment();
        experiment.with_workers(self.workers)
    }

    /// Runs a grid through [`HarnessOptions::experiment`].
    ///
    /// # Errors
    ///
    /// Propagates [`ExpError`] from the first failing scenario.
    pub fn run_grid(&self, grid: SweepGrid) -> Result<Vec<Record>, ExpError> {
        self.experiment(grid).run()
    }

    /// Writes the records to the `--json` path, if one was given, and
    /// reports the written path on standard error.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Io`] if the file cannot be written.
    pub fn write_outputs(&self, records: &[Record]) -> Result<(), ExpError> {
        if let Some(path) = &self.json {
            serialize::write_json(path, records)?;
            eprintln!("wrote {} records to {}", records.len(), path.display());
        }
        Ok(())
    }
}

/// Formats one Table-I-style row: configuration, write/read utilization for
/// the row-major and the optimized mapping records.
#[must_use]
pub fn format_table1_row(label: &str, row_major: &Record, optimized: &Record) -> String {
    format!(
        "{label:<14} {:>8.2} % {:>8.2} % {:>10.2} % {:>8.2} %",
        row_major.write_utilization * 100.0,
        row_major.read_utilization * 100.0,
        optimized.write_utilization * 100.0,
        optimized.read_utilization * 100.0,
    )
}

/// The Table I pair for every preset configuration as a [`SweepGrid`], in
/// the paper's row order: `(row-major, optimized)` adjacent per
/// configuration.
///
/// # Errors
///
/// Propagates [`ExpError`] from [`SweepGrid::all_presets`].
pub fn table1_grid(options: &HarnessOptions) -> Result<SweepGrid, ExpError> {
    Ok(SweepGrid::new()
        .all_presets()?
        .channel_count(options.channels)
        .rank_count(options.ranks)
        .size(options.bursts)
        .mappings(MappingKind::TABLE1)
        .refresh(options.refresh_setting())
        .controller(options.controller()))
}

/// Runs [`table1_grid`] and returns the records in its order.
///
/// # Errors
///
/// Returns [`ExpError`] naming the failing scenario, e.g. when a custom
/// `--bursts` size does not fit one of the presets.
pub fn run_table1(options: &HarnessOptions) -> Result<Vec<Record>, ExpError> {
    options.run_grid(table1_grid(options)?)
}

/// Device axis of the downlink campaign bench: the paper's DDR4 baseline
/// plus the three modern presets with their baked native topologies.
pub const CAMPAIGN_PRESETS: [(DramStandard, u32); 4] = [
    (DramStandard::Ddr4, 3200),
    (DramStandard::Hbm2, 2400),
    (DramStandard::Gddr6, 16000),
    (DramStandard::Ddr5Stacked, 6400),
];

/// Peak pass elevation of the campaign's link profile (degrees).  High
/// enough that the fade rate varies meaningfully over the pass, while the
/// low-elevation edges keep every depth's post-FEC BER nonzero.
pub const CAMPAIGN_PEAK_ELEVATION_DEG: f64 = 45.0;

/// Weather of the campaign's link profile.
pub const CAMPAIGN_WEATHER: Weather = Weather::Clear;

/// The campaign bench's shared pass profile: a clear-sky LEO pass whose
/// edge segments dominate the error budget.
#[must_use]
pub fn campaign_profile() -> LinkProfile {
    LinkProfile::leo_pass(CAMPAIGN_PEAK_ELEVATION_DEG, CAMPAIGN_WEATHER)
}

/// Independent link trials per campaign cell: smooths the error-rate
/// estimates so the depth waterfall is strict at every code rate.
pub const CAMPAIGN_TRIALS: u32 = 8;

/// Builds the campaign the `campaign_sweep` binary runs:
/// [`CAMPAIGN_PRESETS`] × the Table I mapping pair × the default depth and
/// code-rate axes under [`campaign_profile`], with [`CAMPAIGN_TRIALS`]
/// trials per cell and the default campaign seed
/// ([`tbi_exp::campaign::DEFAULT_CAMPAIGN_SEED`]).  The link seeds do not
/// depend on `bursts`, so a smoke-scale run reproduces the committed
/// `BENCH_campaign.json` error statistics exactly, which `perf_gate`
/// relies on.
///
/// # Errors
///
/// Returns [`ExpError::Dram`] if a campaign preset is unknown (which would
/// mean the preset tables and this list drifted apart).
pub fn build_campaign(bursts: u64, workers: usize) -> Result<Campaign, ExpError> {
    let mut config = CampaignConfig::new(campaign_profile())
        .size(bursts)
        .workers(workers)
        .trials(CAMPAIGN_TRIALS);
    for (standard, rate) in CAMPAIGN_PRESETS {
        config = config.preset(standard, rate)?;
    }
    Ok(config.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbi_dram::TimingEngine;

    /// Parses with every shared flag listed, as `table1` does.
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessOptions, String> {
        HarnessOptions::parse_for(args, &ALL_FLAGS)
    }

    #[test]
    fn parse_defaults() {
        let options = parse(Vec::<String>::new()).unwrap();
        assert_eq!(options.bursts, DEFAULT_BURSTS);
        assert!(!options.no_refresh);
        assert_eq!(options.workers, 0);
        assert!(options.json.is_none());
        assert!(!options.help);
    }

    #[test]
    fn parse_flags() {
        let options = parse(["--no-refresh", "--bursts", "4096"].map(String::from)).unwrap();
        assert!(options.no_refresh);
        assert_eq!(options.bursts, 4096);
        let full = parse(["--full"].map(String::from)).unwrap();
        assert_eq!(full.bursts, 12_500_000);
    }

    #[test]
    fn parse_output_and_worker_flags() {
        let options = parse(["--json", "out.json", "--workers", "3"].map(String::from)).unwrap();
        assert_eq!(
            options.json.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert_eq!(options.workers, 3);
    }

    #[test]
    fn parse_threads_flag() {
        assert_eq!(HarnessOptions::new().threads, 1);
        let options = parse(["--threads", "4"].map(String::from)).unwrap();
        assert_eq!(options.threads, 4);
        assert!(parse(["--threads"].map(String::from)).is_err());
        assert!(parse(["--threads", "0"].map(String::from)).is_err());
        assert!(parse(["--threads", "many"].map(String::from)).is_err());
    }

    #[test]
    fn parse_engine_flag() {
        // The timing engine is not a user knob: the event engine serves
        // every run, and only oracles select the cycle reference.
        assert_eq!(
            HarnessOptions::new().controller().engine,
            TimingEngine::Event
        );
        for args in [
            &["--engine", "cycle"][..],
            &["--engine", "event"],
            &["--engine"],
        ] {
            let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
            let err = parse(args).unwrap_err();
            assert!(err.contains("`--engine`"), "got: {err}");
        }
    }

    #[test]
    fn engine_flag_flows_into_table1_scenarios() {
        let options = HarnessOptions {
            bursts: 2_000,
            ..HarnessOptions::new()
        };
        let run = |engine| {
            let grid = table1_grid(&options).unwrap().engine(engine);
            options.run_grid(grid).unwrap()
        };
        // Different engines, bit-identical records — the transition-safety
        // invariant, visible end to end through the harness's grid.
        assert_eq!(run(TimingEngine::Cycle), run(TimingEngine::Event));
    }

    #[test]
    fn parse_help_short_circuits() {
        for flag in ["--help", "-h"] {
            let options = parse([flag.to_string(), "--nope".to_string()]).unwrap();
            assert!(options.help, "{flag} should set help");
        }
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(parse(["--nope"].map(String::from)).is_err());
        assert!(parse(["--bursts"].map(String::from)).is_err());
        assert!(parse(["--bursts", "abc"].map(String::from)).is_err());
        assert!(parse(["--bursts", "0"].map(String::from)).is_err());
        assert!(parse(["--workers", "x"].map(String::from)).is_err());
        assert!(parse(["--json"].map(String::from)).is_err());
        assert!(parse(["--csv", "out.csv"].map(String::from)).is_err());
    }

    /// Every malformed command line must produce a clean `Err` with a
    /// human-readable message — parsing never panics, whatever the input.
    #[test]
    fn parse_errors_cleanly_never_panics() {
        let cases: &[&[&str]] = &[
            // Explicit zero workers: ambiguous (0 used to mean "auto"), now
            // rejected with a hint.
            &["--workers", "0"],
            // Missing values for every value-taking flag.
            &["--bursts"],
            &["--workers"],
            &["--threads"],
            &["--json"],
            &["--channels"],
            &["--ranks"],
            // Unknown flags, including near-misses.
            &["--nope"],
            &["--burst", "100"],
            &["-x"],
            &["bursts"],
            // Malformed and out-of-range numbers.
            &["--bursts", "-5"],
            &["--bursts", "18446744073709551615"],
            &["--bursts", "1e6"],
            &["--workers", "many"],
            &["--threads", "0"],
            &["--threads", "-1"],
            &["--channels", "0"],
            &["--channels", "3"],
            &["--ranks", "0"],
            &["--ranks", "6"],
            &["--channels", "x"],
        ];
        for case in cases {
            let args: Vec<String> = case.iter().map(|s| (*s).to_string()).collect();
            let result = std::panic::catch_unwind(|| parse(args.clone()));
            let outcome = result.unwrap_or_else(|_| panic!("{case:?} panicked"));
            let err = outcome.expect_err(&format!("{case:?} should be rejected"));
            assert!(!err.is_empty(), "{case:?} produced an empty error message");
        }
    }

    #[test]
    fn parse_for_rejects_every_unlisted_shared_flag_by_name() {
        for flag in ALL_FLAGS {
            // A valid value, so only the binary's flag list decides.
            let value = match flag {
                "--full" | "--no-refresh" => None,
                "--json" => Some("out"),
                _ => Some("2"),
            };
            let args: Vec<String> = std::iter::once(flag)
                .chain(value)
                .map(String::from)
                .collect();
            assert!(
                HarnessOptions::parse_for(args.clone(), &ALL_FLAGS).is_ok(),
                "{flag} must parse when listed"
            );
            let others: Vec<&str> = ALL_FLAGS.into_iter().filter(|f| *f != flag).collect();
            let err = HarnessOptions::parse_for(args, &others)
                .expect_err(&format!("{flag} must be rejected when unlisted"));
            assert!(err.contains(flag), "error does not name {flag}: {err}");
        }
        // `--help` needs no listing.
        assert!(
            HarnessOptions::parse_for(["--help"].map(String::from), &[])
                .unwrap()
                .help
        );
    }

    #[test]
    fn positionals_are_returned_or_rejected() {
        let args = ["d", "--workers", "2", "4", "5"].map(String::from);
        let (options, positionals) =
            HarnessOptions::parse_with_positionals(args.clone(), &["--workers"]).unwrap();
        assert_eq!(options.workers, 2);
        assert_eq!(positionals, ["d", "4", "5"]);
        let err = HarnessOptions::parse_for(args, &["--workers"]).unwrap_err();
        assert!(err.contains("`d`"), "got: {err}");
    }

    #[test]
    fn parse_oversized_bursts_error_names_the_limit() {
        let args = ["--bursts", "18446744073709551615"].map(String::from);
        let err = parse(args).unwrap_err();
        assert!(err.contains("9223372034707292160"), "got: {err}");
    }

    #[test]
    fn parse_workers_zero_error_names_the_remedy() {
        let err = parse(["--workers", "0"].map(String::from)).unwrap_err();
        assert!(err.contains("omit --workers"), "unhelpful message: {err}");
    }

    #[test]
    fn parse_channel_and_rank_flags() {
        let options = parse(["--channels", "4", "--ranks", "2"].map(String::from)).unwrap();
        assert_eq!(options.channels, 4);
        assert_eq!(options.ranks, 2);
        let defaults = HarnessOptions::new();
        assert_eq!(defaults.channels, 1);
        assert_eq!(defaults.ranks, 1);
    }

    #[test]
    fn usage_mentions_every_flag() {
        let usage = HarnessOptions::usage_for("table1", &ALL_FLAGS);
        for flag in [
            "--full",
            "--bursts",
            "--no-refresh",
            "--channels",
            "--ranks",
            "--workers",
            "--threads",
            "--json",
            "--help",
        ] {
            assert!(usage.contains(flag), "usage missing {flag}");
        }
        assert!(!usage.contains("--csv"), "usage lists the retired --csv");
        assert!(usage.starts_with("usage: table1"));
    }

    #[test]
    fn channel_flags_flow_into_table1_records() {
        let options = HarnessOptions {
            bursts: 2_000,
            channels: 2,
            ..HarnessOptions::new()
        };
        let records = run_table1(&options).unwrap();
        assert_eq!(records.len(), 20);
        assert!(records.iter().all(|r| r.channels == 2 && r.ranks == 1));
        assert!(records.iter().all(|r| r.scenario_id.ends_with("/c2r1")));
    }

    #[test]
    fn usage_for_lists_only_the_supported_flags() {
        let usage = HarnessOptions::usage_for("fig1", &["--workers", "--json"]);
        for flag in ["--workers", "--json", "--help"] {
            assert!(usage.contains(flag), "usage missing {flag}");
        }
        for flag in ["--full", "--bursts", "--no-refresh"] {
            assert!(!usage.contains(flag), "usage wrongly lists {flag}");
        }
    }

    #[test]
    fn controller_reflects_refresh_flag() {
        let mut options = HarnessOptions::new();
        assert_eq!(options.controller().refresh_mode, None);
        assert_eq!(options.refresh_setting(), RefreshSetting::Standard);
        options.no_refresh = true;
        assert_eq!(
            options.controller().refresh_mode,
            Some(tbi_dram::RefreshMode::Disabled)
        );
        assert_eq!(options.refresh_setting(), RefreshSetting::Disabled);
    }

    #[test]
    fn run_table1_returns_adjacent_pairs_in_paper_order() {
        let options = HarnessOptions {
            bursts: 2_000,
            ..HarnessOptions::new()
        };
        let records = run_table1(&options).unwrap();
        assert_eq!(records.len(), 2 * tbi_dram::standards::ALL_CONFIGS.len());
        for (pair, (standard, rate)) in records
            .chunks(2)
            .zip(tbi_dram::standards::ALL_CONFIGS.iter())
        {
            let label = format!("{}-{rate}", standard.name());
            assert_eq!(pair[0].dram_label, label);
            assert_eq!(pair[0].mapping, "row-major");
            assert_eq!(pair[1].dram_label, label);
            assert_eq!(pair[1].mapping, "optimized");
        }
    }

    #[test]
    fn run_table1_propagates_oversize_errors() {
        let options = HarnessOptions {
            bursts: 100_000_000_000,
            ..HarnessOptions::new()
        };
        let err = run_table1(&options).unwrap_err();
        let message = err.to_string();
        assert!(matches!(err, ExpError::Scenario { .. }));
        assert!(message.contains("scenario"), "got: {message}");
        assert!(message.contains("bursts"), "got: {message}");
    }

    #[test]
    fn format_row_contains_all_four_numbers() {
        let options = HarnessOptions {
            bursts: 5_000,
            no_refresh: true,
            ..HarnessOptions::new()
        };
        let grid = SweepGrid::new()
            .preset(tbi_dram::DramStandard::Ddr3, 800)
            .unwrap()
            .size(options.bursts)
            .mappings(MappingKind::TABLE1)
            .refresh(options.refresh_setting());
        let records = options.run_grid(grid).unwrap();
        let row = format_table1_row("DDR3-800", &records[0], &records[1]);
        assert!(row.starts_with("DDR3-800"));
        assert_eq!(row.matches('%').count(), 4);
    }
}
