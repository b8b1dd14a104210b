//! Measures the address-generation rate of the batched mapping kernels
//! against the per-element scalar path on the **full Table I preset sweep**
//! (row-major, optimized, a decode-scheme permutation and a deliberately
//! non-contiguous "gather" permutation per preset, plus channel-routed rows
//! on a multi-channel topology), verifies that both paths produce
//! bit-identical address batches, and emits a script-friendly
//! `BENCH_mapgen.json` so the workspace's mapping-kernel performance
//! trajectory accumulates run over run.
//!
//! ```text
//! cargo run --release -p tbi_bench --bin mapgen_speed [-- --bursts <n> |
//!                                                        --channels <n> | --ranks <n> |
//!                                                        --json <p>]
//! ```
//!
//! `--bursts` sizes the triangular index space (default 1 Mi positions);
//! small index spaces are repeated until every measurement maps at least
//! [`TARGET_POSITIONS`] positions, so rates stay comparable across sizes.
//! `--channels`/`--ranks` select the topology of the channel-routed rows
//! (a `2 × 2` subsystem when left at the single-channel default).  `--json`
//! names the output file; without it the binary prints its table and writes
//! nothing.  Every mapping is built before the triangle's coordinates
//! are materialised, so a size some preset cannot hold exits 1 with the
//! construction error straight away.  Exits 1 too if any batch diverges
//! from its scalar reference.

use std::rc::Rc;
use std::time::Instant;

use tbi_bench::HarnessOptions;
use tbi_dram::{
    AddressBatch, BitPermutation, ChannelTopology, DramConfig, PermutationMapping, PhysicalAddress,
};
use tbi_exp::serialize::{json_number, json_string};
use tbi_interleaver::mapping::{ChannelMapping, DramMapping, PermutedMapping};
use tbi_interleaver::MappingKind;

/// Every measurement maps at least this many positions (small index spaces
/// are repeated), keeping rates stable independent of `--bursts`.
const TARGET_POSITIONS: u64 = 2_000_000;

const FLAGS: &[&str] = &["--full", "--bursts", "--channels", "--ranks", "--json"];

/// Largest index-space dimension whose triangle fits in `bursts` positions
/// (at least 2), saturated at `u32::MAX`.  The search runs in `u128`, where
/// the triangle products cannot wrap.
fn dimension_for(bursts: u64) -> u32 {
    let triangle = |n: u128| n * (n + 1) / 2;
    let bursts = u128::from(bursts);
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    let mut n = (2.0 * bursts as f64).sqrt() as u128;
    while triangle(n + 1) <= bursts {
        n += 1;
    }
    while n > 2 && triangle(n) > bursts {
        n -= 1;
    }
    u32::try_from(n.max(2)).unwrap_or(u32::MAX)
}

/// The triangle's positions in write-phase (row-wise) order.
fn triangle_coords(n: u32) -> Vec<(u32, u32)> {
    let positions = (n as usize) * (n as usize + 1) / 2;
    let mut coords = Vec::with_capacity(positions);
    for i in 0..n {
        for j in 0..(n - i) {
            coords.push((i, j));
        }
    }
    coords
}

/// FNV-1a over every lane value in element order — a deterministic
/// fingerprint of the produced addresses, identical for both paths when and
/// only when the batches agree bit for bit.
fn batch_checksum(batch: &AddressBatch) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for index in 0..batch.len() {
        let (channel, address) = batch.get(index);
        for value in [
            channel,
            address.rank,
            address.bank_group,
            address.bank,
            address.row,
            address.column,
        ] {
            hash = (hash ^ u64::from(value)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// One benched (preset, scheme) combination.
struct Row {
    config: String,
    scheme: String,
    positions: u64,
    reps: u64,
    scalar_addresses_per_s: f64,
    batch_addresses_per_s: f64,
    speedup: f64,
    identical: bool,
    checksum: u64,
    /// `Some` for permutation rows: whether the scalar decode takes the
    /// contiguous shift/mask fast path, and the contiguous runs in the
    /// batch scatter plan (6 = one per field = fully contiguous).
    plan: Option<(bool, u32)>,
}

impl Row {
    fn to_json(&self) -> String {
        let plan = match self.plan {
            Some((shift_mask, segments)) => {
                format!(",\"shift_mask\":{shift_mask},\"scatter_segments\":{segments}")
            }
            None => String::new(),
        };
        format!(
            "{{\"config\":{},\"scheme\":{},\"positions\":{},\"reps\":{},\
             \"scalar_addresses_per_s\":{},\"batch_addresses_per_s\":{},\
             \"speedup\":{},\"identical\":{},\"checksum\":\"{:016x}\"{}}}",
            json_string(&self.config),
            json_string(&self.scheme),
            self.positions,
            self.reps,
            json_number(self.scalar_addresses_per_s),
            json_number(self.batch_addresses_per_s),
            json_number(self.speedup),
            self.identical,
            self.checksum,
            plan,
        )
    }
}

/// Fills an [`AddressBatch`] from a slice of coordinates.
type Fill = Box<dyn Fn(&[(u32, u32)], &mut AddressBatch)>;

/// One benched (preset, scheme) combination, built and ready to time.
struct Case {
    config: String,
    scheme: String,
    /// The per-element reference fill.
    scalar: Fill,
    /// The batched kernel under test.
    batch: Fill,
    /// [`Row::plan`].
    plan: Option<(bool, u32)>,
}

/// Times `case`'s scalar and batch fills over enough repetitions to map
/// [`TARGET_POSITIONS`] positions, and verifies the two outputs are
/// bit-identical.
fn measure(case: &Case, coords: &[(u32, u32)]) -> Row {
    let positions = coords.len() as u64;
    let reps = TARGET_POSITIONS.div_ceil(positions);
    let mut scalar_out = AddressBatch::with_capacity(coords.len());
    let mut batch_out = AddressBatch::with_capacity(coords.len());

    // Untimed warm-up doubles as the bit-identity check.
    (case.scalar)(coords, &mut scalar_out);
    (case.batch)(coords, &mut batch_out);
    let identical = scalar_out == batch_out;
    let checksum = batch_checksum(&batch_out);

    let started = Instant::now();
    for _ in 0..reps {
        scalar_out.clear();
        (case.scalar)(coords, &mut scalar_out);
    }
    std::hint::black_box(&scalar_out);
    let scalar_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for _ in 0..reps {
        batch_out.clear();
        (case.batch)(coords, &mut batch_out);
    }
    std::hint::black_box(&batch_out);
    let batch_s = started.elapsed().as_secs_f64();

    let mapped = (reps * positions) as f64;
    let scalar_rate = mapped / scalar_s.max(f64::MIN_POSITIVE);
    let batch_rate = mapped / batch_s.max(f64::MIN_POSITIVE);
    Row {
        config: case.config.clone(),
        scheme: case.scheme.clone(),
        positions,
        reps,
        scalar_addresses_per_s: scalar_rate,
        batch_addresses_per_s: batch_rate,
        speedup: batch_rate / scalar_rate.max(f64::MIN_POSITIVE),
        identical,
        checksum,
        plan: case.plan,
    }
}

/// A deliberately non-contiguous permutation: the decode-scheme layout with
/// its bottom bits swapped against high bits, so every scalar decode takes
/// the per-bit gather path while the batch kernel still runs a handful of
/// scatter segments.
fn gather_permutation(scheme: BitPermutation) -> BitPermutation {
    let top = scheme.fields().len() - 1;
    scheme.with_swap(0, top).with_swap(1, top / 2)
}

/// The fills of one case: the per-element reference loop over `route`
/// and the batched kernel `batch`.
fn fills(
    route: impl Fn(u32, u32) -> (u32, PhysicalAddress) + 'static,
    batch: impl Fn(&[(u32, u32)], &mut AddressBatch) + 'static,
) -> (Fill, Fill) {
    let scalar = move |coords: &[(u32, u32)], out: &mut AddressBatch| {
        out.reserve(coords.len());
        for &(i, j) in coords {
            let (channel, address) = route(i, j);
            out.push(channel, address);
        }
    };
    (Box::new(scalar), Box::new(batch))
}

/// Builds every benched mapping for dimension `n`: the Table I presets'
/// rows, then the channel-routed rows on DDR4-3200 scaled out to
/// `topology`.
///
/// # Errors
///
/// The first construction error, naming its preset and scheme.
fn build_cases(n: u32, topology: ChannelTopology) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for &(standard, rate) in tbi_dram::standards::ALL_CONFIGS {
        let config = DramConfig::preset(standard, rate)
            .map_err(|error| format!("preset {standard:?}-{rate}: {error}"))?;
        let label = config.label();
        let failed = |scheme: &str, error: &dyn std::fmt::Display| {
            format!("{label} / {scheme} at dimension {n}: {error}")
        };

        for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
            let mapping: Rc<dyn DramMapping> = kind
                .build(&config, n)
                .map_err(|error| failed(kind.name(), &error))?
                .into();
            let scalar = Rc::clone(&mapping);
            // The scalar fill is the per-element `map` loop every mapping
            // had before the batched kernels existed.
            let (scalar, batch) = fills(
                move |i, j| (0, scalar.map(i, j)),
                move |coords, out| mapping.map_batch(coords, out),
            );
            cases.push(Case {
                config: label.clone(),
                scheme: kind.name().to_string(),
                scalar,
                batch,
                plan: None,
            });
        }

        let single = ChannelTopology::default();
        let scheme_permutation =
            BitPermutation::for_scheme(config.decode_scheme, &config.geometry, single)
                .map_err(|error| failed("permutation-scheme", &error))?;
        for (scheme, permutation) in [
            ("permutation-scheme", scheme_permutation),
            ("permutation-gather", gather_permutation(scheme_permutation)),
        ] {
            let decoder = PermutationMapping::new(config.geometry, single, permutation)
                .map_err(|error| failed(scheme, &error))?;
            let mapping = PermutedMapping::new(config.geometry, single, permutation, n)
                .map_err(|error| failed(scheme, &error))?;
            let (scalar, batch) = fills(
                move |i, j| mapping.route(i, j),
                move |coords, out| mapping.route_batch(coords, out),
            );
            cases.push(Case {
                config: label.clone(),
                scheme: scheme.to_string(),
                scalar,
                batch,
                plan: Some((decoder.is_shift_mask(), decoder.scatter_segments())),
            });
        }
    }

    // Channel-routed rows: one representative preset scaled out to the
    // selected topology.
    let config = DramConfig::preset(tbi_dram::DramStandard::Ddr4, 3200)
        .map_err(|error| format!("preset DDR4-3200: {error}"))?
        .with_topology(topology);
    let label = format!(
        "{}@{}x{}",
        config.label(),
        topology.channels,
        topology.ranks
    );
    let permutation = BitPermutation::for_scheme(config.decode_scheme, &config.geometry, topology)
        .map_err(|error| format!("{label} / permutation: {error}"))?;
    for kind in [
        MappingKind::RowMajor,
        MappingKind::Optimized,
        MappingKind::Permutation(permutation),
    ] {
        let scheme = format!("channel-routed:{}", kind.name());
        let mapping = ChannelMapping::new(kind, &config, n)
            .map_err(|error| format!("{label} / {scheme} at dimension {n}: {error}"))?;
        let mapping = Rc::new(mapping);
        let scalar = Rc::clone(&mapping);
        let (scalar, batch) = fills(
            move |i, j| scalar.route(i, j),
            move |coords, out| mapping.route_batch(coords, out),
        );
        cases.push(Case {
            config: label.clone(),
            scheme,
            scalar,
            batch,
            plan: None,
        });
    }
    Ok(cases)
}

fn main() {
    let options = HarnessOptions::from_env("mapgen_speed", FLAGS);

    let n = dimension_for(options.bursts);
    // Channel-routed rows need a real multi-channel subsystem; default to
    // 2 × 2 when the options leave the paper's single-channel topology.
    let topology = if options.channels * options.ranks == 1 {
        ChannelTopology::new(2, 2)
    } else {
        ChannelTopology::new(options.channels, options.ranks)
    };
    let cases = build_cases(n, topology).unwrap_or_else(|error| {
        eprintln!("error: {error}");
        std::process::exit(1);
    });

    let coords = triangle_coords(n);
    eprintln!(
        "mapgen_speed: {} positions (n = {n}) per scheme, {} presets",
        coords.len(),
        tbi_dram::standards::ALL_CONFIGS.len()
    );
    let mut rows: Vec<Row> = Vec::with_capacity(cases.len());
    for case in &cases {
        if rows.last().map(|row| &row.config) != Some(&case.config) {
            eprintln!("  {} ...", case.config);
        }
        rows.push(measure(case, &coords));
    }

    let all_identical = rows.iter().all(|row| row.identical);
    for row in rows.iter().filter(|row| !row.identical) {
        eprintln!(
            "BATCH DIVERGENCE: {} / {} — batched addresses differ from scalar",
            row.config, row.scheme
        );
    }
    let min_gather_speedup = rows
        .iter()
        .filter(|row| row.scheme == "permutation-gather")
        .map(|row| row.speedup)
        .fold(f64::INFINITY, f64::min);

    println!(
        "mapping kernels ({} rows, {} positions each):",
        rows.len(),
        coords.len()
    );
    for row in &rows {
        println!(
            "  {:<14} {:<28} scalar {:>7.1} M/s  batch {:>7.1} M/s  {:>5.2}x{}",
            row.config,
            row.scheme,
            row.scalar_addresses_per_s / 1e6,
            row.batch_addresses_per_s / 1e6,
            row.speedup,
            if row.identical { "" } else { "  DIVERGED" },
        );
    }
    println!("  min permutation-gather speedup : {min_gather_speedup:.2}x");
    println!("  batches bit-identical          : {all_identical}");

    let rows_json: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"bench\": {},\n  \"bursts\": {},\n  \"positions\": {},\n  \"dimension\": {},\n  \
         \"channel_topology\": {},\n  \"min_permutation_gather_speedup\": {},\n  \
         \"all_identical\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_string("mapgen_speed"),
        options.bursts,
        coords.len(),
        n,
        json_string(&format!("{}x{}", topology.channels, topology.ranks)),
        json_number(min_gather_speedup),
        all_identical,
        rows_json.join(",\n"),
    );
    if let Some(output) = &options.json {
        if let Err(error) = std::fs::write(output, json) {
            eprintln!("error: cannot write {}: {error}", output.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", output.display());
    }

    if !all_identical {
        std::process::exit(1);
    }
}
