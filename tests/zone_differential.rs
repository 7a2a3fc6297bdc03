//! The sparse zone store against the dense oracle on the graphs the
//! workspace really compiles: bitonic sorters of width 4–32, the
//! 2-neuron SRM0 columns of width 4–6 as lowered and after constant
//! folding (685–1 995 nodes: past the callers' node cap, which
//! `Zone::analyze_with` does not apply), and every `examples/data`
//! file through each lowering the lint, verify and opt paths take.
//! Every fact of the two domains must agree exactly under the free and
//! the window-4 input models, and on the examples and sorters under
//! exact per-line inputs and a non-silent `[0, 9]` model as well.

#[path = "../crates/lint/tests/dense_zone/mod.rs"]
mod dense_zone;

use dense_zone::{assert_same_facts, DenseZone};
use spacetime::core::{FunctionTable, Time};
use spacetime::grl::compile_network;
use spacetime::lint::{Interval, LintGraph, Zone};
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::{parse_network, sorting::sorting_network, Network};
use spacetime::opt::passes::constant_fold;
use spacetime::tnn::parse_column;
use spacetime::tnn::train::{fresh_column, TrainConfig};

/// The network after `constant_fold` (itself when the pass folds
/// nothing).
fn folded(network: &Network) -> Network {
    constant_fold(network).unwrap_or_else(|| network.clone())
}

fn net_graph(network: &Network) -> LintGraph {
    spacetime::net::lint::to_lint_graph(network)
}

/// Compares the two domains on `graph` under each named input model.
fn compare(graph: &LintGraph, name: &str, models: &[(&str, &dyn Fn(usize) -> Interval)]) {
    for (model, inputs) in models {
        let zone = Zone::analyze_with(graph, inputs).expect("analyze_with takes any size");
        let oracle = DenseZone::analyze_with(graph, inputs);
        assert_same_facts(
            &zone,
            &oracle,
            &format!("{name} ({} nodes), {model}", graph.len()),
        );
    }
}

fn free(_: usize) -> Interval {
    Interval::free()
}

fn window4(_: usize) -> Interval {
    Interval::within(4)
}

fn non_silent(_: usize) -> Interval {
    Interval::bounded(Time::ZERO, Time::finite(9), false)
}

/// Exact, distinct-ish times per line, one line silent.
fn exact(line: usize) -> Interval {
    if line == 1 {
        Interval::never()
    } else {
        Interval::exact(Time::finite((line as u64 * 3) % 7))
    }
}

#[test]
fn sparse_zone_matches_the_oracle_on_bitonic_sorters() {
    for width in [4, 8, 16, 32] {
        let graph = net_graph(&sorting_network(width));
        compare(
            &graph,
            &format!("sorter/{width}"),
            &[
                ("free", &free),
                ("within(4)", &window4),
                ("exact", &exact),
                ("non-silent [0, 9]", &non_silent),
            ],
        );
    }
}

#[test]
fn sparse_zone_matches_the_oracle_on_srm0_columns() {
    // The corpus's 2-neuron columns: fresh weights of seed 7 and a
    // threshold of a quarter of the largest potential.
    let config = TrainConfig {
        seed: 7,
        ..TrainConfig::default()
    };
    for width in [4, 5, 6] {
        let lowered = fresh_column(2, width, 0.25, &config).to_network();
        for (stage, network) in [("lowered", lowered.clone()), ("folded", folded(&lowered))] {
            compare(
                &net_graph(&network),
                &format!("column/2x{width} {stage}"),
                &[("free", &free), ("within(4)", &window4)],
            );
        }
    }
}

#[test]
fn sparse_zone_matches_the_oracle_on_every_example_file() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/data exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    files.sort();
    assert!(files.len() >= 10, "expected the shipped examples");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable example");
        let name = path
            .file_name()
            .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let network = match path.extension().and_then(|e| e.to_str()) {
            Some("table") => synthesize(
                &FunctionTable::parse(&text).expect("valid table"),
                SynthesisOptions::default(),
            ),
            Some("tnn") => parse_column(&text).expect("valid column").to_network(),
            _ => parse_network(&text).expect("valid netlist"),
        };
        let lowerings = [
            ("net", net_graph(&network)),
            ("folded", net_graph(&folded(&network))),
            (
                "grl",
                spacetime::grl::lint::to_lint_graph(&compile_network(&network)),
            ),
        ];
        for (lowering, graph) in &lowerings {
            compare(
                graph,
                &format!("{name} {lowering}"),
                &[
                    ("free", &free),
                    ("within(4)", &window4),
                    ("exact", &exact),
                    ("non-silent [0, 9]", &non_silent),
                ],
            );
        }
    }
}
