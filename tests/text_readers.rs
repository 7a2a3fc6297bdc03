//! Every text reader is total, and each printer is its reader's inverse.
//!
//! The readers — `parse_network`, `FunctionTable::parse`, `parse_column`,
//! `parse_expr` and `parse_stream` — take outside input, so each must end
//! in `Ok` or `Err` on any text: here arbitrary bytes (decoded lossily as
//! UTF-8) and mutations of the shipped `examples/data` files, of an
//! s-expression corpus and of a `label | times` stream (byte flips,
//! inserts, deletes and truncations, and runs of `18446744073709551615`).
//! The column file gets a suite of its own, because few of its mutations
//! parse. Whatever a reader accepts prints to a text that reads back as
//! the same value and prints as the same text again.

mod common;

use std::fmt::Debug;
use std::path::Path;

use common::mutation::{arb_text_mutation, mutate};
use proptest::prelude::*;
use spacetime::core::{parse_expr, Expr, FunctionTable};
use spacetime::net::{network_to_text, parse_network};
use spacetime::tnn::{column_to_text, parse_column, parse_stream, stream_to_text};

/// Expressions in both spellings `parse_expr` accepts, n-ary merges
/// included.
const EXPRESSIONS: [&str; 6] = [
    "(≺ (∧ (+1 x0) x1) x2)",
    "(lt (min (inc 1 x0) x1) x2)",
    "(∨ (+3 x0) (∧ x1 ∞) 7)",
    "(max x0 (inc 254 x1) (min x2 x3 inf))",
    "(∧ (≺ x0 x1) (+0 x2))",
    "x3",
];

/// A labelled stream, background samples and silent lines included.
const STREAM: &str = "# label | times\n0 | 0 3 ∞ 1\n1 | 2 inf 0 5\n- | ∞ ∞ ∞ ∞\n2 | 254 0 0 7\n";

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every shipped example file, sorted.
fn example_files() -> Vec<std::path::PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    files
}

/// The texts mutations start from: the shipped files, the expressions
/// and the stream.
fn corpus() -> Vec<String> {
    let mut texts: Vec<String> = example_files().iter().map(|f| read(f)).collect();
    texts.extend(EXPRESSIONS.map(str::to_owned));
    texts.push(STREAM.to_owned());
    texts
}

/// `print(value)`, read back through `parse`, must print as the same
/// text; returns the value read back.
fn reprint<T, E: Debug>(
    value: &T,
    print: impl Fn(&T) -> String,
    parse: impl Fn(&str) -> Result<T, E>,
) -> T {
    let printed = print(value);
    let again = parse(&printed).unwrap_or_else(|e| panic!("{printed:?} does not read back: {e:?}"));
    assert_eq!(print(&again), printed);
    again
}

/// Feeds `text` to every text reader and round-trips whatever one
/// accepts; returns how many accepted it. A panic fails the test; `Err`
/// is fine.
fn read_everywhere(text: &str) -> usize {
    let mut accepted = 0;
    if let Ok(network) = parse_network(text) {
        assert_eq!(reprint(&network, network_to_text, parse_network), network);
        accepted += 1;
    }
    if let Ok(table) = FunctionTable::parse(text) {
        let again = reprint(&table, FunctionTable::to_text, FunctionTable::parse);
        assert_eq!(again, table);
        accepted += 1;
    }
    if let Ok(column) = parse_column(text) {
        reprint(&column, column_to_text, parse_column);
        accepted += 1;
    }
    if let Ok(expr) = parse_expr(text) {
        assert_eq!(reprint(&expr, Expr::to_string, parse_expr), expr);
        accepted += 1;
    }
    if let Ok(stream) = parse_stream(text) {
        let again = reprint(&stream, |s: &Vec<_>| stream_to_text(s), parse_stream);
        assert_eq!(again, stream);
        accepted += 1;
    }
    accepted
}

#[test]
fn every_corpus_text_reads_back_as_itself() {
    let texts = corpus();
    assert_eq!(texts.len(), 10 + EXPRESSIONS.len() + 1);
    for text in &texts {
        assert!(read_everywhere(text) >= 1, "no reader accepts {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_end_in_ok_or_err(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        read_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_corpus_texts_end_in_ok_or_err(
        pick in 0usize..1 << 20,
        mutations in prop::collection::vec(arb_text_mutation(), 1..4),
    ) {
        let texts = corpus();
        let text = &texts[pick % texts.len()];
        let mutated = mutate(text.clone().into_bytes(), &mutations);
        read_everywhere(&String::from_utf8_lossy(&mutated));
    }

    #[test]
    fn mutated_column_files_end_in_ok_or_err(
        mutations in prop::collection::vec(arb_text_mutation(), 1..4),
    ) {
        let column = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/column2.tnn");
        let mutated = mutate(read(&column).into_bytes(), &mutations);
        read_everywhere(&String::from_utf8_lossy(&mutated));
    }
}
