//! One shared source of random space-time artifacts and volleys.
//!
//! `tests/cross_properties.rs`, `tests/obs_properties.rs`,
//! `tests/kernel_properties.rs`, `tests/opt_properties.rs`,
//! `tests/equiv_properties.rs`, and `tests/soak.rs` all need the same
//! ingredients — random SRM0 neurons (which compile to every
//! representation), random gate networks, and random spike volleys with
//! a healthy dose of silence — and each used to carry its own ad-hoc
//! copy. These are the canonical ones; tune distributions here and every
//! differential suite sees the change.

// Each integration test binary compiles this module independently and
// uses a different subset of it.
#![allow(dead_code)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;
use spacetime::core::Time;
use spacetime::net::{Network, NetworkBuilder};
use spacetime::neuron::{ResponseFn, Srm0Neuron, Synapse};

/// A random unit response function: the paper's Fig. 11 biexponential,
/// a piecewise-linear ramp, or a step.
pub fn arb_response() -> impl Strategy<Value = ResponseFn> {
    prop_oneof![
        Just(ResponseFn::fig11_biexponential()),
        (1u32..3, 1u64..3, 1u64..4).prop_map(|(p, r, f)| ResponseFn::piecewise_linear(p, r, f)),
        (1u32..3).prop_map(ResponseFn::step),
    ]
}

/// A random SRM0 neuron: 1–3 synapses with small delays and weights, a
/// small threshold. Small enough to enumerate against, rich enough to
/// exercise min/max/lt/inc in every compiled representation.
pub fn arb_neuron() -> impl Strategy<Value = Srm0Neuron> {
    (
        arb_response(),
        prop::collection::vec((0u64..3, 0i32..3), 1..=3),
        1u32..5,
    )
        .prop_map(|(r, syn, theta)| {
            Srm0Neuron::new(
                r,
                syn.into_iter().map(|(d, w)| Synapse::new(d, w)).collect(),
                theta,
            )
        })
}

/// A random width-`width` volley: finite times in `0..6`, one lane in
/// four silent (`∞`).
pub fn arb_volley(width: usize) -> impl Strategy<Value = Vec<Time>> {
    prop::collection::vec(arb_time(), width)
}

/// One random spike time with the shared 3:1 finite:silent mix.
pub fn arb_time() -> impl Strategy<Value = Time> {
    prop_oneof![
        3 => (0u64..6).prop_map(Time::finite),
        1 => Just(Time::INFINITY),
    ]
}

/// The seeded-`StdRng` twin of [`arb_volley`] for non-proptest suites
/// (soak tests): finite times in `0..max_time`, one lane in five silent.
pub fn random_volley(n: usize, max_time: u64, rng: &mut StdRng) -> Vec<Time> {
    (0..n)
        .map(|_| {
            if rng.random_bool(0.2) {
                Time::INFINITY
            } else {
                Time::finite(rng.random_range(0..max_time))
            }
        })
        .collect()
}

/// One random gate. Source fields are raw draws, resolved modulo the
/// number of nodes that already exist when the gate is built.
#[derive(Debug, Clone)]
enum GateSpec {
    Const(Time),
    Min(usize, usize),
    Max(usize, usize),
    Lt(usize, usize),
    Inc(usize, u64),
}

const DRAW: std::ops::Range<usize> = 0..1 << 16;

fn arb_gate_spec(delays: BoxedStrategy<u64>) -> impl Strategy<Value = GateSpec> {
    prop_oneof![
        arb_time().prop_map(GateSpec::Const),
        (DRAW, DRAW).prop_map(|(a, b)| GateSpec::Min(a, b)),
        (DRAW, DRAW).prop_map(|(a, b)| GateSpec::Max(a, b)),
        (DRAW, DRAW).prop_map(|(a, b)| GateSpec::Lt(a, b)),
        (DRAW, delays).prop_map(|(a, d)| GateSpec::Inc(a, d)),
    ]
}

/// A random `inputs`-input network of up to a dozen gates, its `inc`
/// delays drawn from `delays`. Duplicate operand pairs, constant
/// operands, and stacked `inc` gates are all likely, so every st-opt
/// pass regularly finds something to rewrite.
pub fn arb_network(
    inputs: usize,
    delays: impl Strategy<Value = u64> + 'static,
) -> impl Strategy<Value = Network> {
    (
        prop::collection::vec(arb_gate_spec(delays.boxed()), 1..12),
        prop::collection::vec(DRAW, 1..=2),
    )
        .prop_map(move |(specs, outs)| {
            let mut b = NetworkBuilder::new();
            let mut ids = b.inputs(inputs);
            for spec in specs {
                let id = match spec {
                    GateSpec::Const(t) => b.constant(t),
                    GateSpec::Min(a, c) => b.min2(ids[a % ids.len()], ids[c % ids.len()]),
                    GateSpec::Max(a, c) => b.max2(ids[a % ids.len()], ids[c % ids.len()]),
                    GateSpec::Lt(a, c) => b.lt(ids[a % ids.len()], ids[c % ids.len()]),
                    GateSpec::Inc(a, d) => b.inc(ids[a % ids.len()], d),
                };
                ids.push(id);
            }
            let outputs: Vec<_> = outs.iter().map(|&o| ids[o % ids.len()]).collect();
            b.build(outputs)
        })
}
