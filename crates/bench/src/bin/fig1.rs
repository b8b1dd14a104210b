//! Regenerates **Figure 1** of the paper: the mapping schemes rendered as a
//! small text grid over the top-left corner of the index space, plus the
//! utilization each scheme achieves on the miniature device.
//!
//! ```text
//! cargo run -p tbi_bench --bin fig1 [-- a|b|c|d|all [rows cols]] [--workers <n>]
//!                                   [--json <p>]
//! ```
//!
//! The grid corner defaults to 8 × 8 and may grow to the whole 64-dimension
//! index space; a larger, malformed or extra argument exits 2 with the usage.
//!
//! * `a` — bank round-robin only (Fig. 1a)
//! * `b` — page tiling only (Fig. 1b)
//! * `c` — banks + columns + rows combined, no stagger (Fig. 1c)
//! * `d` — the full optimized mapping with the bank-dependent offset (Fig. 1d)
//!
//! The paper's figure uses a miniature device with two banks and four-column
//! pages; the same miniature geometry is used here so the printed pattern is
//! directly comparable.  Each selected scheme is a [`tbi_exp::Scenario`] on
//! that miniature device: the grids are rendered from the scenario's mapping
//! and the utilization footer comes from running the scenarios as one
//! [`tbi_exp::Experiment`].

use tbi_dram::{DramConfig, DramStandard};
use tbi_exp::{Experiment, Scenario};
use tbi_interleaver::mapping::render_grid;
use tbi_interleaver::{InterleaverSpec, MappingKind};

use tbi_bench::HarnessOptions;

/// The miniature configuration behind the paper's Figure 1: two banks (in
/// two bank groups) and four-burst pages on an otherwise DDR4-like device.
fn figure_config() -> DramConfig {
    let mut config =
        DramConfig::preset(DramStandard::Ddr4, 1600).expect("DDR4-1600 is a paper preset");
    let geometry = &mut config.geometry;
    geometry.bank_groups = 2;
    geometry.banks_per_group = 1;
    geometry.rows = 1 << 10;
    geometry.columns_per_row = 4;
    geometry.bus_width_bits = 64;
    config.validate().expect("valid miniature geometry");
    config
}

/// The schemes of Fig. 1a–1d, with their panel letter and caption.
const PANELS: [(&str, MappingKind, &str); 4] = [
    (
        "a",
        MappingKind::BankRoundRobin,
        "Fig. 1a — bank round-robin (diagonal) pattern:",
    ),
    (
        "b",
        MappingKind::Tiled,
        "Fig. 1b — page tiling (one page per rectangle):",
    ),
    (
        "c",
        MappingKind::OptimizedNoStagger,
        "Fig. 1c — banks, columns and rows combined:",
    ),
    (
        "d",
        MappingKind::Optimized,
        "Fig. 1d — full optimized mapping with bank-dependent column offset:",
    ),
];

const FLAGS: &[&str] = &["--workers", "--json"];

fn main() {
    let usage = HarnessOptions::usage_for("fig1", FLAGS)
        + "\n\npositional arguments: [a|b|c|d|all] [rows cols] (grid corner size, default 8 8)";
    let usage_exit = |message: &str| -> ! {
        eprintln!("error: {message}");
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let (options, positionals) =
        match HarnessOptions::parse_with_positionals(std::env::args().skip(1), FLAGS) {
            Ok(parsed) => parsed,
            Err(message) => usage_exit(&message),
        };
    if options.help {
        println!("{usage}");
        return;
    }
    if let Some(extra) = positionals.get(3) {
        usage_exit(&format!("unexpected argument `{extra}`"));
    }
    let which = positionals.first().map(String::as_str).unwrap_or("all");
    if !matches!(which, "a" | "b" | "c" | "d" | "all") {
        usage_exit(&format!("unknown panel `{which}`"));
    }
    let grid_size = |index: usize| match positionals.get(index) {
        None => 8,
        Some(value) => value
            .parse::<u32>()
            .unwrap_or_else(|_| usage_exit(&format!("invalid grid size `{value}`"))),
    };
    let (rows, cols) = (grid_size(1), grid_size(2));

    let config = figure_config();
    // A 64-dimension triangle (2080 bursts) — the largest size that keeps the
    // miniature device comfortably filled.
    let spec = InterleaverSpec::from_burst_count(2_080);

    let mut scenarios = Vec::new();
    for (letter, kind, caption) in PANELS
        .iter()
        .filter(|(letter, _, _)| which == "all" || which == *letter)
    {
        let scenario =
            Scenario::custom(config.clone(), *kind, spec).with_id(format!("fig1{letter}"));
        let mapping = match scenario.build_mapping() {
            Ok(mapping) => mapping,
            Err(error) => {
                eprintln!("error: {error}");
                std::process::exit(1);
            }
        };
        let dimension = mapping.dimension();
        if rows > dimension || cols > dimension {
            usage_exit(&format!(
                "a {rows} x {cols} grid exceeds the {dimension}-dimension index space"
            ));
        }
        println!("{caption}");
        println!("{}", render_grid(mapping.as_ref(), rows, cols));
        scenarios.push(scenario);
    }

    let experiment = Experiment::new(scenarios).with_workers(options.workers);
    let records = match experiment.run() {
        Ok(records) => records,
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    };

    println!(
        "Minimum-phase utilization on the miniature device ({} bursts):",
        spec.burst_count()
    );
    for record in &records {
        println!(
            "  {:<22} {:>6.2} %",
            record.mapping,
            record.min_utilization * 100.0
        );
    }

    if let Err(error) = options.write_outputs(&records) {
        eprintln!("error: {error}");
        std::process::exit(1);
    }
}
