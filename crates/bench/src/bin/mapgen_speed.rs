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
//! overrides the output path (default `BENCH_mapgen.json` in the current
//! directory).  Exits non-zero if any batch diverges from its scalar
//! reference.

use std::path::PathBuf;
use std::time::Instant;

use tbi_bench::HarnessOptions;
use tbi_dram::{AddressBatch, BitPermutation, ChannelTopology, DramConfig, PermutationMapping};
use tbi_exp::serialize::{json_number, json_string};
use tbi_interleaver::mapping::{ChannelMapping, DramMapping, PermutedMapping};
use tbi_interleaver::MappingKind;

const DEFAULT_OUTPUT: &str = "BENCH_mapgen.json";

/// Every measurement maps at least this many positions (small index spaces
/// are repeated), keeping rates stable independent of `--bursts`.
const TARGET_POSITIONS: u64 = 2_000_000;

const FLAGS: &[&str] = &["--full", "--bursts", "--channels", "--ranks", "--json"];

/// Largest index-space dimension whose triangle fits in `bursts` positions
/// (at least 2).
fn dimension_for(bursts: u64) -> u32 {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    let mut n = (((8.0 * bursts as f64 + 1.0).sqrt() - 1.0) / 2.0) as u64;
    while (n + 1) * (n + 2) / 2 <= bursts {
        n += 1;
    }
    while n > 2 && n * (n + 1) / 2 > bursts {
        n -= 1;
    }
    u32::try_from(n.max(2)).expect("dimension fits u32")
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
    /// contiguous shift/mask fast path.
    shift_mask: Option<bool>,
    /// `Some` for permutation rows: contiguous runs in the batch scatter
    /// plan (6 = one per field = fully contiguous).
    scatter_segments: Option<u32>,
}

impl Row {
    fn to_json(&self) -> String {
        let plan = match (self.shift_mask, self.scatter_segments) {
            (Some(shift_mask), Some(segments)) => {
                format!(",\"shift_mask\":{shift_mask},\"scatter_segments\":{segments}")
            }
            _ => String::new(),
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

/// Times `scalar` and `batch` (each filling an [`AddressBatch`] from
/// `coords`) over enough repetitions to map [`TARGET_POSITIONS`] positions,
/// and verifies the two outputs are bit-identical.
fn measure<S, B>(config: &str, scheme: &str, coords: &[(u32, u32)], scalar: S, batch: B) -> Row
where
    S: Fn(&[(u32, u32)], &mut AddressBatch),
    B: Fn(&[(u32, u32)], &mut AddressBatch),
{
    let positions = coords.len() as u64;
    let reps = TARGET_POSITIONS.div_ceil(positions);
    let mut scalar_out = AddressBatch::with_capacity(coords.len());
    let mut batch_out = AddressBatch::with_capacity(coords.len());

    // Untimed warm-up doubles as the bit-identity check.
    scalar(coords, &mut scalar_out);
    batch(coords, &mut batch_out);
    let identical = scalar_out == batch_out;
    let checksum = batch_checksum(&batch_out);

    let started = Instant::now();
    for _ in 0..reps {
        scalar_out.clear();
        scalar(coords, &mut scalar_out);
    }
    std::hint::black_box(&scalar_out);
    let scalar_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    for _ in 0..reps {
        batch_out.clear();
        batch(coords, &mut batch_out);
    }
    std::hint::black_box(&batch_out);
    let batch_s = started.elapsed().as_secs_f64();

    let mapped = (reps * positions) as f64;
    let scalar_rate = mapped / scalar_s.max(f64::MIN_POSITIVE);
    let batch_rate = mapped / batch_s.max(f64::MIN_POSITIVE);
    Row {
        config: config.to_string(),
        scheme: scheme.to_string(),
        positions,
        reps,
        scalar_addresses_per_s: scalar_rate,
        batch_addresses_per_s: batch_rate,
        speedup: batch_rate / scalar_rate.max(f64::MIN_POSITIVE),
        identical,
        checksum,
        shift_mask: None,
        scatter_segments: None,
    }
}

/// The scalar reference fill: the default per-element `map` loop every
/// mapping had before the batched kernels existed.
fn scalar_map_fill(mapping: &dyn DramMapping, coords: &[(u32, u32)], out: &mut AddressBatch) {
    out.reserve(coords.len());
    for &(i, j) in coords {
        out.push(0, mapping.map(i, j));
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

fn main() {
    let options = HarnessOptions::from_env("mapgen_speed", FLAGS);

    let output = options
        .json
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_OUTPUT));
    let n = dimension_for(options.bursts);
    let coords = triangle_coords(n);
    // Channel-routed rows need a real multi-channel subsystem; default to
    // 2 × 2 when the options leave the paper's single-channel topology.
    let topology = if options.channels * options.ranks == 1 {
        ChannelTopology::new(2, 2)
    } else {
        ChannelTopology::new(options.channels, options.ranks)
    };

    eprintln!(
        "mapgen_speed: {} positions (n = {n}) per scheme, {} presets",
        coords.len(),
        tbi_dram::standards::ALL_CONFIGS.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    for (standard, rate) in tbi_dram::standards::ALL_CONFIGS {
        let config = match DramConfig::preset(*standard, *rate) {
            Ok(config) => config,
            Err(error) => {
                eprintln!("error: preset {standard:?}-{rate}: {error}");
                std::process::exit(1);
            }
        };
        let label = config.label();
        eprintln!("  {label} ...");

        for kind in [MappingKind::RowMajor, MappingKind::Optimized] {
            let mapping = kind.build(&config, n).expect("preset mapping builds");
            rows.push(measure(
                &label,
                kind.name(),
                &coords,
                |coords, out| scalar_map_fill(mapping.as_ref(), coords, out),
                |coords, out| mapping.map_batch(coords, out),
            ));
        }

        let scheme_permutation = BitPermutation::for_scheme(
            config.decode_scheme,
            &config.geometry,
            ChannelTopology::default(),
        )
        .expect("scheme permutation exists for every preset");
        for (scheme, permutation) in [
            ("permutation-scheme", scheme_permutation),
            ("permutation-gather", gather_permutation(scheme_permutation)),
        ] {
            let decoder =
                PermutationMapping::new(config.geometry, ChannelTopology::default(), permutation)
                    .expect("permutation matches the preset geometry");
            let mapping =
                PermutedMapping::new(config.geometry, ChannelTopology::default(), permutation, n)
                    .expect("index space fits the padded square");
            let mut row = measure(
                &label,
                scheme,
                &coords,
                |coords, out| {
                    out.reserve(coords.len());
                    for &(i, j) in coords {
                        let (channel, address) = mapping.route(i, j);
                        out.push(channel, address);
                    }
                },
                |coords, out| mapping.route_batch(coords, out),
            );
            row.shift_mask = Some(decoder.is_shift_mask());
            row.scatter_segments = Some(decoder.scatter_segments());
            rows.push(row);
        }
    }

    // Channel-routed rows: one representative preset scaled out to the
    // selected topology.
    let chan_config = DramConfig::preset(tbi_dram::DramStandard::Ddr4, 3200)
        .expect("DDR4-3200 preset exists")
        .with_topology(topology);
    let chan_label = format!(
        "{}@{}x{}",
        chan_config.label(),
        topology.channels,
        topology.ranks
    );
    eprintln!("  {chan_label} (channel-routed) ...");
    let chan_permutation =
        BitPermutation::for_scheme(chan_config.decode_scheme, &chan_config.geometry, topology)
            .expect("channel permutation exists for pow2 topologies");
    for kind in [
        MappingKind::RowMajor,
        MappingKind::Optimized,
        MappingKind::Permutation(chan_permutation),
    ] {
        let scheme = format!("channel-routed:{}", kind.name());
        let mapping = ChannelMapping::new(kind, &chan_config, n).expect("channel mapping builds");
        rows.push(measure(
            &chan_label,
            &scheme,
            &coords,
            |coords, out| {
                out.reserve(coords.len());
                for &(i, j) in coords {
                    let (channel, address) = mapping.route(i, j);
                    out.push(channel, address);
                }
            },
            |coords, out| mapping.route_batch(coords, out),
        ));
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
    if let Err(error) = std::fs::write(&output, json) {
        eprintln!("error: cannot write {}: {error}", output.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", output.display());

    if !all_identical {
        std::process::exit(1);
    }
}
