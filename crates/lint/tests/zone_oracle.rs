//! Differential suite: the sparse zone store against the dense
//! difference-bound matrix it replaced (`dense_zone`, kept here as the
//! oracle). Both run the same transfer functions and closure phases,
//! so every fact must agree exactly — intervals, firing facts, and
//! every ordered pair's `diff_hi`, `fires_implies` and `can_tie` — on
//! random DAGs up to the 512-node cap, under every input model the
//! callers and the validation suite use, plus a non-silent one under
//! which every node is a closure pivot.

mod dense_zone;

use dense_zone::{assert_same_facts, DenseZone};
use proptest::prelude::*;
use st_core::Time;
use st_lint::{Interval, LintGraph, LintOp, Zone, MAX_RELATIONAL_NODES};

/// xorshift64*: a small deterministic generator for graph shapes.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const MAX: u64 = u64::MAX - 1;

/// A random DAG of `size` nodes (at least a dozen) that always holds
/// the shapes the sparse store treats specially: several input lines,
/// one of them read by two input nodes; finite and `∞` constants and
/// gates fed only by constants (closure pivots other than `Z`); n-ary
/// `min`/`max` with duplicated sources and with more than 64 sources;
/// an `lt` whose inhibitor never fires; and `inc` chains that saturate
/// at `MAX_FINITE`.
fn random_graph(seed: u64, size: usize) -> LintGraph {
    let mut rng = Rng::new(seed);
    let lines = 2 + rng.below(5);
    let mut g = LintGraph::new(lines);
    for line in 0..lines {
        g.push(LintOp::Input(line), vec![]);
    }
    let twin = g.push(LintOp::Input(0), vec![]);
    let finite = g.push(LintOp::Const(Time::finite(rng.below(6) as u64)), vec![]);
    let never = g.push(LintOp::Const(Time::INFINITY), vec![]);
    let mut consts = vec![finite, never];
    let folded = g.push(LintOp::Inc(2), vec![finite]);
    consts.push(folded);
    let mixed = g.push(LintOp::Max, vec![folded, finite, folded]);
    consts.push(mixed);
    g.push(LintOp::Lt, vec![twin, never]);
    let near = g.push(LintOp::Inc(MAX - 3), vec![0]);
    g.push(LintOp::Inc(2), vec![near]);
    let size = size.max(g.len() + 2);
    let mut wide_done = false;
    while g.len() < size {
        let n = g.len();
        let pick = |rng: &mut Rng| rng.below(n);
        let arity = |rng: &mut Rng| 2 + rng.below(3);
        match rng.below(100) {
            0..=3 => {
                let t = if rng.below(4) == 0 {
                    Time::INFINITY
                } else {
                    Time::finite(rng.below(8) as u64)
                };
                consts.push(g.push(LintOp::Const(t), vec![]));
            }
            4..=7 => {
                let line = rng.below(lines);
                g.push(LintOp::Input(line), vec![]);
            }
            8..=45 => {
                let op = if rng.below(2) == 0 {
                    LintOp::Min
                } else {
                    LintOp::Max
                };
                let mut srcs: Vec<usize> = (0..arity(&mut rng)).map(|_| pick(&mut rng)).collect();
                if rng.below(4) == 0 {
                    // A duplicated operand.
                    srcs.push(srcs[0]);
                }
                g.push(op, srcs);
            }
            46..=60 => {
                let a = pick(&mut rng);
                let b = if rng.below(6) == 0 {
                    never
                } else {
                    pick(&mut rng)
                };
                g.push(LintOp::Lt, vec![a, b]);
            }
            61..=84 => {
                let d = [0, 1, 1, 2, 3, 5][rng.below(6)] as u64;
                let s = pick(&mut rng);
                g.push(LintOp::Inc(d), vec![s]);
            }
            85..=89 if !wide_done || rng.below(3) == 0 => {
                // More than 64 sources, with repeats on small graphs.
                wide_done = true;
                let op = if rng.below(2) == 0 {
                    LintOp::Min
                } else {
                    LintOp::Max
                };
                let srcs: Vec<usize> = (0..65 + rng.below(8)).map(|_| pick(&mut rng)).collect();
                g.push(op, srcs);
            }
            85..=94 => {
                // A gate fed only by constants: always fires when the
                // constants are finite, so it becomes a pivot.
                let c = |rng: &mut Rng| consts[rng.below(consts.len())];
                match rng.below(3) {
                    0 => {
                        let s = c(&mut rng);
                        consts.push(g.push(LintOp::Inc(rng.below(4) as u64), vec![s]));
                    }
                    1 => {
                        let srcs = vec![c(&mut rng), c(&mut rng)];
                        consts.push(g.push(LintOp::Min, srcs));
                    }
                    _ => {
                        let srcs = vec![c(&mut rng), c(&mut rng)];
                        consts.push(g.push(LintOp::Max, srcs));
                    }
                }
            }
            _ => {
                // An inc chain running into saturation.
                let s = pick(&mut rng);
                let d = if rng.below(2) == 0 { MAX - 4 } else { 1 << 62 };
                g.push(LintOp::Inc(d), vec![s]);
            }
        }
    }
    let outputs = vec![g.len() - 1];
    g.set_outputs(outputs);
    g
}

/// [`random_graph`] with a few nodes rewired the way only the unchecked
/// IR allows: forward references (so the topological order is not the
/// index order), cycles, dangling sources and wrong arities.
fn malformed_graph(seed: u64, size: usize) -> LintGraph {
    let mut g = random_graph(seed, size);
    let mut rng = Rng::new(seed.rotate_left(17));
    let n = g.len();
    for _ in 0..1 + n / 8 {
        let node = rng.below(n);
        if matches!(g.nodes()[node].op, LintOp::Input(_) | LintOp::Const(_)) {
            continue;
        }
        let sources = match rng.below(4) {
            // A forward reference, possibly closing a cycle.
            0 => vec![rng.below(n), rng.below(n)],
            1 => vec![node],
            2 => vec![rng.below(n), n + rng.below(3)],
            _ => (0..rng.below(4)).map(|_| rng.below(n)).collect(),
        };
        g.set_sources(node, sources);
    }
    g
}

/// An exact time for a line: small, at the saturation edge, or `∞`.
fn exact_time(rng: &mut Rng) -> Time {
    match rng.below(8) {
        0 => Time::INFINITY,
        1 => Time::finite(MAX - rng.below(3) as u64),
        _ => Time::finite(rng.below(12) as u64),
    }
}

/// A named input model: line `i` gets `model(i)`.
type Model = (String, Box<dyn Fn(usize) -> Interval>);

/// Compares the two domains under every input model: free, the
/// normalized window, exact times per line, and the non-silent
/// `[0, 9]` model that makes every node a pivot.
fn check_all_models(g: &LintGraph, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let times: Vec<Time> = (0..g.input_count()).map(|_| exact_time(&mut rng)).collect();
    let window = rng.below(12) as u64;
    let models: [Model; 4] = [
        ("free".into(), Box::new(|_| Interval::free())),
        (
            format!("within({window})"),
            Box::new(move |_| Interval::within(window)),
        ),
        (
            format!("exact {times:?}"),
            Box::new(move |line| Interval::exact(times[line])),
        ),
        (
            "non-silent [0, 9]".into(),
            Box::new(|_| Interval::bounded(Time::ZERO, Time::finite(9), false)),
        ),
    ];
    for (name, model) in &models {
        let zone = Zone::analyze_with(g, model.as_ref()).expect("within the node cap");
        let oracle = DenseZone::analyze_with(g, model.as_ref());
        assert_same_facts(
            &zone,
            &oracle,
            &format!("seed {seed}, {} nodes, {name}", g.len()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_zone_matches_the_dense_oracle_on_random_dags(
        seed in 0u64..u64::MAX,
        size in 1usize..160,
    ) {
        check_all_models(&random_graph(seed, size), seed);
    }

    #[test]
    fn sparse_zone_matches_the_dense_oracle_on_malformed_graphs(
        seed in 0u64..u64::MAX,
        size in 1usize..96,
    ) {
        check_all_models(&malformed_graph(seed, size), seed);
    }
}

#[test]
fn sparse_zone_matches_the_dense_oracle_at_the_node_cap() {
    for seed in [1, 2, 3] {
        let g = random_graph(seed, MAX_RELATIONAL_NODES);
        assert_eq!(g.len(), MAX_RELATIONAL_NODES);
        check_all_models(&g, seed);
    }
}

#[test]
fn random_graphs_hold_every_special_shape() {
    let g = random_graph(7, 200);
    let nodes = g.nodes();
    let wide = nodes
        .iter()
        .any(|nd| matches!(nd.op, LintOp::Min | LintOp::Max) && nd.sources.len() > 64);
    assert!(wide, "no gate with more than 64 sources");
    let zone = Zone::analyze(&g, Interval::free()).expect("within the node cap");
    let pivots = (0..g.len())
        .filter(|&i| !matches!(nodes[i].op, LintOp::Const(_)) && !zone.maybe_silent(i))
        .count();
    assert!(pivots > 0, "no always-firing gate besides the constants");
    let line0 = nodes.iter().filter(|nd| nd.op == LintOp::Input(0)).count();
    assert!(line0 >= 2, "no input line read twice");
}
