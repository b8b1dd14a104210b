//! The harness binaries reject every shared flag they do not read: one flag
//! list per binary drives both its usage text and its parser, so an
//! unlisted flag exits 2 with an error that names it instead of being
//! silently ignored.  Retired flags (`--engine`, `mapping_search
//! --strategy`) take the same path.

use std::process::Command;

#[test]
fn unlisted_flags_exit_2_and_are_named() {
    let cases: [(&str, &[&str]); 8] = [
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
    ];
    for (binary, args) in cases {
        let output = Command::new(binary)
            .args(args)
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
    }
}
