//! Every JSON-reading entry point is total, and every committed JSON
//! document reads back through the workspace's one reader.
//!
//! The readers — `st_core::json::Json::parse`, `Report::from_json`,
//! `BenchReport::from_json`, `parse_history` and `parse_trace` — take
//! outside input, so each must end in `Ok` or `Err` on any text: here
//! arbitrary bytes (decoded lossily as UTF-8) and byte mutations of the
//! committed documents (flips, inserts, deletes, truncations). Printing
//! is the reader's inverse: a random tree within the nesting bound reads
//! back as itself from both the compact and the pretty form. The
//! committed documents parse, and those with a typed reader re-render
//! byte-identically through it.

use std::collections::BTreeMap;
use std::path::Path;

use proptest::prelude::*;
use spacetime::core::json::{Json, MAX_DEPTH};
use spacetime::insight::trace_io::parse_trace;
use spacetime::lint::Report;
use spacetime::metrics::{parse_history, BenchReport, TrendRow};
use spacetime::obs::events_jsonl_with_dropped;

fn read(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

/// The `.json` files of a committed directory whose names end in `suffix`.
fn json_files(dir: &str, suffix: &str) -> Vec<String> {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<String> = std::fs::read_dir(&full)
        .unwrap_or_else(|e| panic!("{}: {e}", full.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(suffix))
        .map(|name| format!("{dir}/{name}"))
        .collect();
    files.sort();
    files
}

/// Every committed JSON document: the one-document files, then the
/// JSONL files.
fn committed_documents() -> (Vec<String>, Vec<String>) {
    let mut documents = vec![
        "BENCH_seed.json".to_owned(),
        "crates/obs/tests/golden/chrome.json".to_owned(),
        "crates/trace/tests/golden/chrome.json".to_owned(),
        "crates/opt/tests/golden/redundant4_report.json".to_owned(),
    ];
    documents.extend(json_files("crates/verify/tests/golden", ".json"));
    documents.extend(json_files("tests/golden", "_relational.json"));
    let lines = vec![
        "BENCH_history.jsonl".to_owned(),
        "crates/obs/tests/golden/events.jsonl".to_owned(),
    ];
    (documents, lines)
}

/// Feeds `text` to every JSON-reading entry point. A panic fails the
/// test; `Ok` and `Err` are both fine.
fn read_everywhere(text: &str) {
    let _ = Json::parse(text);
    let _ = Report::from_json(text);
    let _ = BenchReport::from_json(text);
    let _ = parse_history(text);
    let _ = parse_trace(text);
}

#[test]
fn committed_documents_parse_with_the_one_reader() {
    let (documents, lines) = committed_documents();
    assert_eq!(documents.len(), 10, "{documents:?}");
    for path in documents {
        let text = read(&path);
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
    for path in lines {
        for (i, line) in read(&path).lines().enumerate() {
            Json::parse(line).unwrap_or_else(|e| panic!("{path}:{}: {e}", i + 1));
        }
    }
}

#[test]
fn bench_documents_re_render_byte_identically() {
    let seed = read("BENCH_seed.json");
    let report = BenchReport::from_json(&seed).unwrap();
    assert_eq!(report.to_json(), seed);

    let history = read("BENCH_history.jsonl");
    let rows = parse_history(&history).unwrap();
    assert_eq!(rows.len(), history.lines().count());
    for (row, line) in rows.iter().zip(history.lines()) {
        assert_eq!(row.to_json_line(), line);
        assert_eq!(TrendRow::from_json_line(line).as_ref(), Ok(row));
    }
}

#[test]
fn the_event_log_round_trips_through_the_trace_reader() {
    let text = read("crates/obs/tests/golden/events.jsonl");
    let trace = parse_trace(&text).unwrap();
    assert!(!trace.events.is_empty());
    assert_eq!(
        events_jsonl_with_dropped(&trace.events, trace.dropped),
        text
    );
}

#[test]
fn the_opt_report_re_renders_byte_identically() {
    // The relational lint goldens are re-rendered by `tests/cli.rs`.
    let text = read("crates/opt/tests/golden/redundant4_report.json");
    assert_eq!(Report::from_json(&text).unwrap().to_json(), text);
}

#[test]
fn the_verify_outcome_embeds_a_readable_lint_report() {
    let outcome = Json::parse(&read("crates/verify/tests/golden/fig6_outcome.json")).unwrap();
    let embedded = outcome.get("report").unwrap();
    let report = Report::from_json(&embedded.to_string()).unwrap();
    assert_eq!(Json::parse(&report.to_json()).as_ref(), Ok(embedded));
}

/// One byte-level edit of a document.
#[derive(Debug, Clone)]
enum Mutation {
    Flip(usize, u8),
    Insert(usize, u8),
    Delete(usize),
    Truncate(usize),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let at = 0usize..1 << 20;
    prop_oneof![
        (at.clone(), 0u8..=255).prop_map(|(i, b)| Mutation::Flip(i, b)),
        (at.clone(), 0u8..=255).prop_map(|(i, b)| Mutation::Insert(i, b)),
        at.clone().prop_map(Mutation::Delete),
        at.prop_map(Mutation::Truncate),
    ]
}

fn mutate(mut bytes: Vec<u8>, mutations: &[Mutation]) -> Vec<u8> {
    for m in mutations {
        let len = bytes.len();
        match *m {
            Mutation::Flip(i, b) if len > 0 => bytes[i % len] ^= b.max(1),
            Mutation::Insert(i, b) => bytes.insert(i % (len + 1), b),
            Mutation::Delete(i) if len > 0 => {
                bytes.remove(i % len);
            }
            Mutation::Truncate(i) => bytes.truncate(i % (len + 1)),
            _ => {}
        }
    }
    bytes
}

/// A string over a few troublesome characters and all of Unicode.
fn arb_string() -> impl Strategy<Value = String> {
    let special = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\u{1}'),
        Just('\u{7f}'),
        Just('µ'),
        Just('∞'),
    ];
    let c = prop_oneof![
        3 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        1 => special,
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
    ];
    prop::collection::vec(c, 0..8).prop_map(String::from_iter)
}

/// A random tree of canonical values: integers over the `u64` and `i64`
/// ranges, and floats with a fraction (an integral float prints as an
/// integer and reads back as [`Json::Int`]).
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        (0u8..2).prop_map(|b| Json::Bool(b == 1)),
        (0u64..=u64::MAX).prop_map(|n| Json::Int(n.into())),
        (i64::MIN..=i64::MAX).prop_map(|n| Json::Int(n.into())),
        ((-1e6f64..1e6), -300i32..300)
            .prop_map(|(m, e)| m * 10f64.powi(e))
            .prop_filter("a fraction", |f| f.fract() != 0.0)
            .prop_map(Json::Float),
        arb_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(6, 64, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            prop::collection::vec((arb_string(), inner), 0..6)
                .prop_map(|fields| Json::Obj(fields.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_end_in_ok_or_err(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        read_everywhere(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_documents_end_in_ok_or_err(
        pick in 0usize..1 << 20,
        mutations in prop::collection::vec(arb_mutation(), 1..4),
    ) {
        let (documents, lines) = committed_documents();
        let path = {
            let all: Vec<&String> = documents.iter().chain(&lines).collect();
            all[pick % all.len()].clone()
        };
        let mutated = mutate(read(&path).into_bytes(), &mutations);
        read_everywhere(&String::from_utf8_lossy(&mutated));
    }

    #[test]
    fn printed_trees_read_back_as_themselves(tree in arb_json()) {
        prop_assert_eq!(Json::parse(&tree.to_string()), Ok(tree.clone()));
        prop_assert_eq!(Json::parse(&tree.pretty()), Ok(tree));
    }
}

#[test]
fn a_tree_at_the_nesting_bound_reads_back_and_one_deeper_does_not() {
    let mut tree = Json::Int(-1);
    for depth in 0..MAX_DEPTH {
        tree = if depth % 2 == 0 {
            Json::Arr(vec![tree])
        } else {
            Json::Obj(BTreeMap::from([("k".to_owned(), tree)]))
        };
    }
    assert_eq!(Json::parse(&tree.to_string()).as_ref(), Ok(&tree));
    assert_eq!(Json::parse(&tree.pretty()).as_ref(), Ok(&tree));
    let deeper = Json::Arr(vec![tree]);
    assert!(Json::parse(&deeper.to_string()).is_err());
    assert!(Json::parse(&deeper.pretty()).is_err());
}
