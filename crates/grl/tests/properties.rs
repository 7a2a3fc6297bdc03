//! Property-based verification of generalized race logic: the compiled
//! CMOS netlist is cycle-exactly equivalent to the algebraic network
//! (§ V), every wire switches at most once per computation (§ VI
//! conjecture 1), and the race-logic shortest path equals the classical
//! algorithm.

use proptest::prelude::*;
use st_core::{Expr, Time};
use st_grl::shortest_path::{shortest_paths_race, shortest_paths_reference, WeightedDag};
use st_grl::{compile_network, run_physical, GrlSim, PhysicalTiming};
use st_net::compile::compile_exprs;

fn small_time() -> impl Strategy<Value = Time> {
    prop_oneof![
        4 => (0u64..8).prop_map(Time::finite),
        1 => Just(Time::INFINITY),
    ]
}

fn arb_expr_no_lt(arity: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        8 => (0..arity).prop_map(Expr::input),
        1 => Just(Expr::constant(Time::INFINITY)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            (inner, 0u64..4).prop_map(|(a, c)| a.inc(c)),
        ]
    })
}

fn arb_expr(arity: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        8 => (0..arity).prop_map(Expr::input),
        1 => Just(Expr::constant(Time::INFINITY)),
        1 => (0u64..5).prop_map(|c| Expr::constant(Time::finite(c))),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.lt(b)),
            (inner, 0u64..4).prop_map(|(a, c)| a.inc(c)),
        ]
    })
}

proptest! {
    /// CMOS netlists behave cycle-exactly like the algebraic networks they
    /// were compiled from, on arbitrary compositions and inputs.
    #[test]
    fn grl_equals_algebra(
        e in arb_expr(3),
        inputs in prop::collection::vec(small_time(), 3),
    ) {
        let net = compile_exprs(&[e], 3);
        let netlist = compile_network(&net);
        let algebraic = net.eval(&inputs).unwrap();
        let report = GrlSim::new().run(&netlist, &inputs).unwrap();
        prop_assert_eq!(report.outputs, algebraic);
    }

    /// Minimal-transition property: per computation, evaluation
    /// transitions never exceed the wire count (each wire falls at most
    /// once), and a silent input volley produces zero input-driven
    /// transitions (only configuration wires may fall).
    #[test]
    fn minimal_transition_property(e in arb_expr(3)) {
        let net = compile_exprs(&[e], 3);
        let netlist = compile_network(&net);
        let sim = GrlSim::new();
        let report = sim
            .run(&netlist, &[Time::ZERO, Time::finite(1), Time::finite(2)])
            .unwrap();
        prop_assert!(report.eval_transitions <= netlist.wire_count());
        // Activity factor is a fraction.
        prop_assert!((0.0..=1.0).contains(&report.activity_factor()));
    }

    /// The physical-delay model with ideal timing is exactly the clocked
    /// simulator, on arbitrary compiled networks.
    #[test]
    fn physical_ideal_equals_clocked(
        e in arb_expr(3),
        inputs in prop::collection::vec(small_time(), 3),
    ) {
        let net = compile_exprs(&[e], 3);
        let netlist = compile_network(&net);
        let ideal = GrlSim::new().run(&netlist, &inputs).unwrap().outputs;
        let timing = PhysicalTiming::ideal();
        let phys = run_physical(&netlist, &inputs, &timing, 0)
            .unwrap()
            .decoded_outputs(&timing);
        prop_assert_eq!(phys, ideal);
    }

    /// For *latch-free* netlists (min/max/delay only), physical gate
    /// latencies can only delay events, never advance or invent them.
    /// (With `lt` latches the property is genuinely false: proptest found
    /// that path skew can unblock an ideal tie, turning ∞ into a finite
    /// event — the tie-race hazard E23 measures.)
    #[test]
    fn physical_latency_is_monotone_without_latches(
        e in arb_expr_no_lt(2),
        inputs in prop::collection::vec(small_time(), 2),
        g in 0u64..4,
    ) {
        let net = compile_exprs(&[e], 2);
        let netlist = compile_network(&net);
        let ideal = run_physical(&netlist, &inputs, &PhysicalTiming::ideal(), 0).unwrap();
        let slow = run_physical(&netlist, &inputs, &PhysicalTiming::uniform(g, 1), 0).unwrap();
        for (&a, &b) in ideal.outputs.iter().zip(&slow.outputs) {
            prop_assert_eq!(a.is_finite(), b.is_finite());
            prop_assert!(b >= a, "{:?} vs {:?}", ideal.outputs, slow.outputs);
        }
    }

    /// Race-logic shortest paths equal classical relaxation on random
    /// DAGs of varying shape.
    #[test]
    fn race_shortest_paths_match_reference(
        nodes in 2usize..14,
        span in 1usize..5,
        edge_prob in 0.1f64..0.9,
        max_w in 1u64..6,
        seed in 0u64..1000,
    ) {
        let dag = WeightedDag::random(nodes, span, edge_prob, max_w, seed);
        let (race, report) = shortest_paths_race(&dag, 0).unwrap();
        let reference = shortest_paths_reference(&dag, 0);
        prop_assert_eq!(&race, &reference);
        // "The time to compute the value is the value": the last transition
        // happens no later than the largest finite distance plus residual
        // flip-flop stages (edges leaving the frontier).
        let longest = race.iter().filter_map(|d| d.value()).max().unwrap_or(0);
        let last_fall = report
            .fall_times
            .iter()
            .filter_map(|f| f.value())
            .max()
            .unwrap_or(0);
        let total_edge_weight: u64 = dag.edges().iter().map(|&(_, _, w)| w).sum();
        prop_assert!(last_fall <= longest + total_edge_weight);
    }
}
