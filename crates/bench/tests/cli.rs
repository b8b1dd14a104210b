//! The harness binaries reject every shared flag they do not read: one flag
//! list per binary drives both its usage text and its parser, so an
//! unlisted flag exits 2 with an error that names it instead of being
//! silently ignored.  Retired flags (`--engine`, `--csv`, and
//! `mapping_search`'s `--strategy`, `--surrogate`, `--promote`, `--sa-temp`
//! and `--transfer`) take the same path.

use std::path::Path;
use std::process::Command;

/// The names of the entries of `dir`.
fn entries(dir: &Path) -> Vec<std::ffi::OsString> {
    std::fs::read_dir(dir)
        .expect("directory is readable")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect()
}

#[test]
fn unlisted_flags_exit_2_and_are_named() {
    let csv = Path::new(env!("CARGO_TARGET_TMPDIR")).join("t.csv");
    std::fs::remove_file(&csv).ok();
    let csv_arg = csv.to_str().expect("UTF-8 target directory");
    let cases: [(&str, &[&str]); 13] = [
        (env!("CARGO_BIN_EXE_campaign_sweep"), &["--threads", "4"]),
        (env!("CARGO_BIN_EXE_mapgen_speed"), &["--threads", "4"]),
        (env!("CARGO_BIN_EXE_mapping_search"), &["--threads", "4"]),
        (env!("CARGO_BIN_EXE_tenant_sweep"), &["--threads", "4"]),
        (env!("CARGO_BIN_EXE_size_sweep"), &["--engine", "cycle"]),
        (env!("CARGO_BIN_EXE_fig1"), &["d", "--bursts", "100"]),
        (
            env!("CARGO_BIN_EXE_mapping_search"),
            &["--strategy", "portfolio"],
        ),
        (env!("CARGO_BIN_EXE_table1"), &["--engine", "cycle"]),
        (env!("CARGO_BIN_EXE_table1"), &["--csv", csv_arg]),
        (env!("CARGO_BIN_EXE_mapping_search"), &["--surrogate", "4"]),
        (env!("CARGO_BIN_EXE_mapping_search"), &["--promote", "2"]),
        (env!("CARGO_BIN_EXE_mapping_search"), &["--sa-temp", "0"]),
        (env!("CARGO_BIN_EXE_mapping_search"), &["--transfer"]),
    ];
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("unlisted_flags");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temporary directory");
    for (binary, args) in cases {
        let output = Command::new(binary)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{binary} {args:?}:\n{stderr}"
        );
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            stderr.contains(&format!("`{flag}`")),
            "{binary} {args:?} must name {flag}:\n{stderr}"
        );
        assert!(entries(&dir).is_empty(), "{binary} {args:?} wrote a file");
    }
    assert!(!csv.exists(), "table1 --csv wrote {}", csv.display());
}

/// `fig1` renders a grid corner of its 64-dimension index space: a larger,
/// malformed or extra grid argument exits 2 with the usage instead of
/// mapping positions outside the space (a debug panic; row 0's addresses
/// repeated in release) or falling back to the default silently.
#[test]
fn fig1_grid_size_must_fit_the_index_space() {
    for (args, code) in [
        (&["d", "70", "2"][..], 2),
        (&["d", "abc"], 2),
        (&["d", "2", "2", "9"], 2),
        (&["d", "64", "64"], 0),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_fig1"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "fig1 {args:?}:\n{stderr}");
        if code == 2 {
            assert!(
                stderr.contains("usage: fig1"),
                "fig1 {args:?} must print the usage:\n{stderr}"
            );
        }
    }
}

/// `mapgen_speed` builds every mapping before it materialises the triangle,
/// so a size some preset cannot hold exits 1 with the construction error
/// instead of allocating the coordinates first (70M positions), aborting on
/// the allocation (10^11) or overflowing its own dimension search (the
/// largest `u32`-dimension triangle).
#[test]
fn mapgen_speed_rejects_sizes_its_presets_cannot_hold_before_allocating() {
    for bursts in ["70000000", "100000000000", "9223372034707292160"] {
        let output = Command::new(env!("CARGO_BIN_EXE_mapgen_speed"))
            .args(["--bursts", bursts, "--json", "unwritten_mapgen.json"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(1),
            "--bursts {bursts}:\n{stderr}"
        );
        assert!(
            stderr.contains("error: DDR3-800 / row-major") && stderr.contains("only has"),
            "--bursts {bursts} must name the failed construction:\n{stderr}"
        );
        assert!(
            !stderr.contains("positions (n ="),
            "--bursts {bursts} materialised the triangle:\n{stderr}"
        );
    }
}

/// A sweep binary writes an artifact only where `--json` says: run without
/// it, it prints its table and leaves its working directory untouched, so a
/// bare run in the repository root cannot overwrite a committed
/// `BENCH_*.json`.
#[test]
fn sweep_without_json_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("tbi_cli_no_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let output = Command::new(env!("CARGO_BIN_EXE_channel_sweep"))
        .args(["--bursts", "1000"])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let written = entries(&dir);
    std::fs::remove_dir_all(&dir).expect("temporary directory is removable");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "channel_sweep failed:\n{stderr}");
    assert!(written.is_empty(), "channel_sweep wrote {written:?}");
}
