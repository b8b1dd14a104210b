//! Arbitrary command lines never panic [`HarnessOptions::parse_for`]: for
//! any argument vector and any subset of the shared flags a binary accepts,
//! parsing returns options that respect every documented bound — the same
//! options the full flag list yields — or a non-empty error.
//!
//! The generator is biased toward the real vocabulary — every shared flag,
//! retired and near-miss flags, counts at and past their limits, paths —
//! with an arbitrary character string now and then.

use proptest::prelude::*;
use tbi_bench::{HarnessOptions, ALL_FLAGS};
use tbi_interleaver::TriangularInterleaver;

/// Argument pieces besides [`ALL_FLAGS`].
const PIECES: &[&str] = &[
    "--help",
    "-h",
    "--engine",
    "--strategy",
    "--burst",
    "--nope",
    "-",
    "--",
    "",
    "0",
    "1",
    "3",
    "4",
    "64",
    "20000",
    "-5",
    "1e6",
    "9223372034707292160",
    "9223372034707292161",
    "18446744073709551616",
    "out.json",
    "cycle",
];

/// Builds one argument from `pick`: three picks in four select a shared
/// flag or a piece, the rest a short string of arbitrary characters
/// (surrogate codes become U+FFFD).
fn argument(pick: u32) -> String {
    if pick % 4 == 0 {
        let code = pick / 4;
        [code, code / 7, code / 49]
            .into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
            .collect()
    } else {
        let index = (pick / 4) as usize % (ALL_FLAGS.len() + PIECES.len());
        ALL_FLAGS
            .get(index)
            .copied()
            .unwrap_or_else(|| PIECES[index - ALL_FLAGS.len()])
            .to_string()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]
    #[test]
    fn arbitrary_command_lines_parse_within_bounds_or_error(
        picks in proptest::collection::vec(0u32..4 * 0x11_0000, 0..8),
        accepted in 0u32..(1 << ALL_FLAGS.len()),
    ) {
        let args: Vec<String> = picks.iter().map(|&pick| argument(pick)).collect();
        let flags: Vec<&str> = ALL_FLAGS
            .iter()
            .enumerate()
            .filter(|(bit, _)| accepted >> bit & 1 == 1)
            .map(|(_, &flag)| flag)
            .collect();
        match HarnessOptions::parse_for(args.clone(), &flags) {
            Ok(options) => {
                prop_assert!(
                    (1..=TriangularInterleaver::MAX_CAPACITY).contains(&options.bursts),
                    "{:?}: bursts {}", args, options.bursts
                );
                prop_assert!(options.threads >= 1, "{:?}", args);
                prop_assert!(options.channels.is_power_of_two(), "{:?}", args);
                prop_assert!(options.ranks.is_power_of_two(), "{:?}", args);
                // A binary's flag list only ever rejects: what it accepts
                // parses identically with every shared flag allowed.
                prop_assert_eq!(
                    HarnessOptions::parse_for(args.clone(), &ALL_FLAGS),
                    Ok(options),
                    "{:?} under {:?}", args, flags
                );
            }
            Err(message) => prop_assert!(!message.is_empty(), "{:?}", args),
        }
    }
}
