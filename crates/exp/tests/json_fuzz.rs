//! Arbitrary text never panics [`tbi_exp::json::parse`]: every string
//! either parses or returns a non-empty error.
//!
//! The generator is biased toward JSON punctuation, literals, escapes,
//! numbers at the edges of `f64` and deep nesting, so most strings get past
//! the first byte and exercise the value, string and number paths.

use proptest::prelude::*;
use tbi_exp::json::{self, JsonValue};

/// Pieces of the JSON alphabet.
const PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"key\"",
    "\\",
    "\\\"",
    "\\n",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "\\uZZZZ",
    "true",
    "false",
    "null",
    "tru",
    "-",
    "+",
    "0",
    "7",
    "01",
    ".",
    ".5",
    "e",
    "E-",
    "1e999",
    "-1e-999",
    "18446744073709551616",
    " ",
    "\n",
    "\t",
    "é",
    "\u{0}",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]",
    "{\"a\":",
];

/// Builds a string from `picks`: three picks in four add a piece of the
/// JSON alphabet, the rest an arbitrary character (surrogate codes become
/// U+FFFD).
fn text(picks: &[u32]) -> String {
    let mut text = String::new();
    for &pick in picks {
        if pick % 4 == 0 {
            text.push(char::from_u32(pick / 4).unwrap_or('\u{fffd}'));
        } else {
            text.push_str(PIECES[(pick / 4) as usize % PIECES.len()]);
        }
    }
    text
}

/// Nesting depth of a parsed value.
fn depth(value: &JsonValue) -> usize {
    match value {
        JsonValue::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        JsonValue::Object(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]
    #[test]
    fn arbitrary_text_parses_or_errors_without_panicking(
        picks in proptest::collection::vec(0u32..4 * 0x11_0000, 0..24),
    ) {
        let input = text(&picks);
        match json::parse(&input) {
            Ok(value) => prop_assert!(depth(&value) <= json::MAX_DEPTH, "{:?}", input),
            Err(message) => prop_assert!(!message.is_empty(), "{:?}", input),
        }
    }
}
