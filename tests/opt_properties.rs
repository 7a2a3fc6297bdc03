//! Property battery for the st-opt passes: on random (deliberately
//! redundancy-prone) networks and random tabulated neurons, every pass
//! is idempotent, every pass preserves semantics under bounded
//! equivalence, the verified pass manager never accepts a rewrite it
//! cannot prove, and value numbering groups exactly the congruent gates.

mod common;

use common::arbitrary::{arb_network, arb_neuron};
use proptest::prelude::*;
use spacetime::core::{FunctionTable, Time};
use spacetime::lint::LintOp;
use spacetime::net::lint::to_lint_graph;
use spacetime::net::{GateId, Network, NetworkBuilder};
use spacetime::opt::{optimize_network, passes, value_numbers, OptOptions, Pass, ALL_PASSES};
use spacetime::verify::equiv::{check_equiv, EquivResult};
use spacetime::verify::eval::{NetEvaluator, TableEvaluator};

/// A pass's candidate: `None` when it would reproduce its input.
fn apply(pass: Pass, network: &Network) -> Option<Network> {
    match pass {
        Pass::ConstantFold => passes::constant_fold(network),
        Pass::RelationalFold => passes::relational_fold(network),
        Pass::FuseDelayChains => passes::fuse_delay_chains(network),
        Pass::ShareSubexpressions => passes::share_subexpressions(network),
        Pass::EliminateDead => passes::eliminate_dead(network),
        Pass::MinimizeTable => None,
    }
}

fn assert_net_equiv(left: &Network, right: &Network) -> Result<(), TestCaseError> {
    let l = NetEvaluator::new(left);
    let r = NetEvaluator::new(right);
    match check_equiv(&l, &r, 4).map_err(TestCaseError::fail)? {
        EquivResult::Proved(_) => Ok(()),
        EquivResult::Refuted(cex) => Err(TestCaseError::fail(format!(
            "pass changed semantics: {}",
            cex.volley_line()
        ))),
    }
}

/// A random two-input network built to hold congruent gates: merges of
/// one to eight operands with repeats, constants and delays over a few
/// values, and copies of earlier merges with their operands reversed
/// and one of them repeated.
fn arb_congruent_network() -> impl Strategy<Value = Network> {
    let gate = (
        0u8..6,
        prop::collection::vec(0usize..1 << 16, 1..9),
        0u64..3,
    );
    prop::collection::vec(gate, 1..40).prop_map(|gates| {
        let mut b = NetworkBuilder::new();
        let mut ids = b.inputs(2);
        let mut merges: Vec<(bool, Vec<GateId>)> = Vec::new();
        for (kind, draws, d) in gates {
            let operands: Vec<GateId> = draws.iter().map(|&x| ids[x % ids.len()]).collect();
            let id = match kind {
                0 => b.constant(Time::finite(d)),
                1 | 2 => {
                    merges.push((kind == 2, operands.clone()));
                    if kind == 2 {
                        b.max(operands).unwrap()
                    } else {
                        b.min(operands).unwrap()
                    }
                }
                3 => b.lt(operands[0], operands[operands.len() - 1]),
                4 => b.inc(operands[0], d),
                _ if merges.is_empty() => b.inc(operands[0], d),
                _ => {
                    let (is_max, mut copy) = merges[draws[0] % merges.len()].clone();
                    copy.reverse();
                    copy.push(copy[0]);
                    if is_max {
                        b.max(copy).unwrap()
                    } else {
                        b.min(copy).unwrap()
                    }
                }
            };
            ids.push(id);
        }
        let last = ids[ids.len() - 1];
        b.build([last])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two gates share a value number exactly when they have the same
    /// kind (with the same line, time or delay) and their sources have
    /// the same classes: as sets for `min`/`max`, in order for
    /// `lt`/`inc`. Checked pairwise by brute force.
    #[test]
    fn value_numbers_are_exactly_the_congruence_classes(net in arb_congruent_network()) {
        let graph = to_lint_graph(&net);
        let vn = value_numbers(&graph);
        let nodes = graph.nodes();
        let classes = |i: usize| -> Vec<usize> { nodes[i].sources.iter().map(|&s| vn[s]).collect() };
        let as_set = |mut v: Vec<usize>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        for i in 0..nodes.len() {
            for j in 0..nodes.len() {
                let congruent = match (nodes[i].op, nodes[j].op) {
                    (LintOp::Min, LintOp::Min) | (LintOp::Max, LintOp::Max) => {
                        as_set(classes(i)) == as_set(classes(j))
                    }
                    (a, b) => a == b && classes(i) == classes(j),
                };
                prop_assert_eq!(vn[i] == vn[j], congruent, "g{} and g{} in {:?}", i, j, net);
            }
        }
    }

    /// Every network pass, applied alone, proposes a candidate only
    /// when it differs from the input, is idempotent (a second
    /// application proposes nothing) and preserves semantics
    /// exhaustively over the window-4 input domain.
    #[test]
    fn every_network_pass_is_idempotent_and_semantics_preserving(net in arb_network(2, 1u64..4)) {
        for pass in ALL_PASSES {
            if pass == Pass::MinimizeTable {
                continue; // table-only; covered below
            }
            let Some(once) = apply(pass, &net) else {
                continue;
            };
            prop_assert_ne!(&once, &net, "{} proposed its own input", pass.name());
            prop_assert_eq!(apply(pass, &once), None, "{} is not idempotent", pass.name());
            assert_net_equiv(&net, &once)?;
        }
    }

    /// The full default pipeline through the verified manager: never
    /// grows the network, never gets a pass rejected, and the final
    /// artifact is exhaustively equivalent to the input.
    #[test]
    fn default_pipeline_is_verified_and_monotone(net in arb_network(2, 1u64..4)) {
        let outcome = optimize_network(&net, &OptOptions::default())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(outcome.rejected(), 0, "report:\n{}", outcome.render());
        prop_assert!(outcome.after <= outcome.before);
        let spacetime::verify::Artifact::Net(optimized) = &outcome.artifact else {
            return Err(TestCaseError::fail("network came back as a non-net"));
        };
        assert_net_equiv(&net, optimized)?;
    }

    /// Table minimization on tabulated random neurons: idempotent, and
    /// the minimized table matches the original on every volley of the
    /// table's own required window.
    #[test]
    fn minimize_table_is_idempotent_and_semantics_preserving(neuron in arb_neuron()) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let (minimized, dropped) = passes::minimize_table(&table);
        prop_assert!(minimized.len() + dropped == table.len());
        let (again, dropped_again) = passes::minimize_table(&minimized);
        prop_assert_eq!(dropped_again, 0, "minimize_table is not idempotent");
        prop_assert_eq!(again.to_text(), minimized.to_text());
        let window = spacetime::verify::required_window(&table);
        let left = TableEvaluator::new(&table);
        let right = TableEvaluator::spec(&minimized);
        match check_equiv(&left, &right, window).map_err(TestCaseError::fail)? {
            EquivResult::Proved(_) => {}
            EquivResult::Refuted(cex) => {
                return Err(TestCaseError::fail(format!(
                    "minimization changed semantics: {}",
                    cex.volley_line()
                )));
            }
        }
    }
}
