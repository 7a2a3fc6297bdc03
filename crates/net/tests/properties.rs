//! Property-based tests for st-net: evaluator equivalence, Theorem 1
//! synthesis on random tables, sorting, and WTA postconditions.

use proptest::prelude::*;
use st_core::{enumerate_inputs, with_arity, Expr, FunctionTable, Time};
use st_net::compile::compile_exprs;
use st_net::sorting::sorting_network;
use st_net::synth::{synthesize, SynthesisOptions};
use st_net::wta::wta_network;
use st_net::EventSim;

fn small_time() -> impl Strategy<Value = Time> {
    prop_oneof![
        4 => (0u64..10).prop_map(Time::finite),
        1 => Just(Time::INFINITY),
    ]
}

fn expr_over(leaf: BoxedStrategy<Expr>) -> impl Strategy<Value = Expr> {
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            (inner, 0u64..4).prop_map(|(a, c)| a.inc(c)),
        ]
    })
}

/// Shift-invariant expressions (only the ∞ constant) — required by the
/// table/synthesis properties.
fn arb_expr(arity: usize) -> impl Strategy<Value = Expr> {
    expr_over(
        prop_oneof![
            8 => (0..arity).prop_map(Expr::input),
            1 => Just(Expr::constant(Time::INFINITY)),
        ]
        .boxed(),
    )
}

/// Expressions that may carry finite (absolute-time) constants — fine for
/// evaluator-equivalence and optimizer properties.
fn arb_expr_with_consts(arity: usize) -> impl Strategy<Value = Expr> {
    expr_over(
        prop_oneof![
            8 => (0..arity).prop_map(Expr::input),
            1 => Just(Expr::constant(Time::INFINITY)),
            1 => Just(Expr::constant(Time::ZERO)),
            1 => (1u64..4).prop_map(|c| Expr::constant(Time::finite(c))),
        ]
        .boxed(),
    )
}

proptest! {
    /// The functional and event-driven evaluators agree on arbitrary
    /// compiled networks and inputs (including ties and ∞).
    #[test]
    fn functional_and_event_eval_agree(
        e in arb_expr_with_consts(3),
        inputs in prop::collection::vec(small_time(), 3),
    ) {
        let net = compile_exprs(&[e], 3);
        let functional = net.eval(&inputs).unwrap();
        let report = EventSim::new().run(&net, &inputs).unwrap();
        prop_assert_eq!(report.outputs, functional);
    }

    /// Theorem 1 end-to-end on random functions: sample a random
    /// composition into a table, synthesize the minterm network (both
    /// bases), and compare everywhere in the window.
    #[test]
    fn synthesis_realizes_random_tables(e in arb_expr(2)) {
        let f = with_arity(e, 2);
        let table = FunctionTable::from_fn(&f, 3).unwrap();
        for options in [SynthesisOptions::default(), SynthesisOptions::pure()] {
            let net = synthesize(&table, options);
            for inputs in enumerate_inputs(2, 3) {
                prop_assert_eq!(
                    net.eval(&inputs).unwrap()[0],
                    table.eval(&inputs).unwrap(),
                    "options {:?} at {:?}", options, inputs
                );
            }
        }
    }

    /// Network sort equals `std` sort on random volleys.
    #[test]
    fn network_sort_matches_std_sort(
        inputs in prop::collection::vec(small_time(), 1..12),
    ) {
        let net = sorting_network(inputs.len());
        let mut expected = inputs.clone();
        expected.sort();
        prop_assert_eq!(net.eval(&inputs).unwrap(), expected);
    }

    /// WTA postconditions: winners (earliest spikes within the window)
    /// pass unchanged, losers are silenced, silent lines stay silent.
    #[test]
    fn wta_postconditions(
        inputs in prop::collection::vec(small_time(), 1..8),
        tau in 1u64..4,
    ) {
        let net = wta_network(inputs.len(), tau);
        let out = net.eval(&inputs).unwrap();
        let first = Time::min_of(inputs.iter().copied());
        for (&x, &y) in inputs.iter().zip(&out) {
            if x.is_finite() && x < first + tau {
                prop_assert_eq!(y, x);
            } else {
                prop_assert_eq!(y, Time::INFINITY);
            }
        }
    }

    /// The netlist text format round-trips arbitrary compiled networks:
    /// print∘parse is the identity on texts and on networks alike.
    #[test]
    fn netlist_text_round_trip(e in arb_expr_with_consts(3)) {
        let net = compile_exprs(&[e], 3);
        let text = st_net::network_to_text(&net);
        let back = st_net::parse_network(&text)
            .map_err(|err| TestCaseError::fail(format!("{err}\n{text}")))?;
        prop_assert_eq!(st_net::network_to_text(&back), text);
        prop_assert_eq!(&back, &net);
        for inputs in enumerate_inputs(3, 2) {
            prop_assert_eq!(back.eval(&inputs).unwrap(), net.eval(&inputs).unwrap());
        }
    }

    /// Synthesized networks remain causal and invariant (Lemma 1 applied
    /// to the Theorem 1 construction).
    #[test]
    fn synthesized_networks_are_space_time(e in arb_expr(2)) {
        let f = with_arity(e, 2);
        let table = FunctionTable::from_fn(&f, 2).unwrap();
        let net = synthesize(&table, SynthesisOptions::default());
        st_core::verify_space_time(&net.as_function(0), 2, 2, None)
            .map_err(|v| TestCaseError::fail(format!("{v}")))?;
    }
}
