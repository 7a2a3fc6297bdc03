//! The § III.C properties of every space-time function, as metamorphic
//! tests of the `Evaluator`s that proofs run on.
//!
//! Temporal invariance is the gate for `Evaluator::invariant() ==
//! true`. When both sides of a bounded equivalence check report
//! `invariant()`, `check_equiv` skips every volley whose earliest spike
//! is at `c > 0`, so the report must be a fact: whenever an evaluator
//! says `true`, `f(x + c) = f(x) + c` holds on every volley `x` of the
//! window-4 domain for every shift `c` in `1..=4`, evaluated through
//! 256-volley `eval_packet` calls.
//!
//! Causality holds for every table and network, with or without finite
//! constants: moving the input spikes later than an output's spike at `t` to other times
//! later than `t`, or to `∞`, leaves that output at `t`. The moved
//! volleys are evaluated in full 256-volley packets, through
//! `eval_lanes` where the evaluator takes them and `eval_packet`
//! otherwise, so the byte walk, the lane path and the volley path all
//! run.
//!
//! Both properties also hold through the batch engine, at one and two
//! worker threads, for every artifact kind: tables, networks, GRL
//! netlists, one-neuron columns and kernel plans of neurons, and
//! networks, GRL netlists and kernel plans of constant-free networks.
//!
//! Delays of 248–254 put `lane_input_limit` inside the shifted domain,
//! so shifts push packets from the lane path onto the scalar one, and
//! kernel batches from the SWAR path onto the scalar fallback. A
//! network with a finite constant must report `false` (a concrete
//! violation is pinned below), and the GRL and column evaluators keep
//! the default `false`: opting them in changes what proofs cost.

mod common;

use common::arbitrary::{arb_network, arb_neuron};
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{enumerate_inputs, lane, FunctionTable, Time, Volley};
use spacetime::grl::compile_network;
use spacetime::kernel::{ByteBlock, MAX_PACKET};
use spacetime::net::{network_to_text, GateKind, Network, NetworkBuilder};
use spacetime::neuron::structural::srm0_network;
use spacetime::neuron::{ResponseFn, Srm0Neuron, Synapse};
use spacetime::tnn::{Column, Inhibition};
use spacetime::verify::eval::{
    ColumnEvaluator, Evaluator, GrlEvaluator, NetEvaluator, TableEvaluator,
};

/// The window whose domain every property shifts.
const WINDOW: u64 = 4;

/// Evaluates `volleys` through `eval_packet`, 256 at a time.
fn outputs(evaluator: &dyn Evaluator, volleys: &[Volley]) -> Vec<Volley> {
    let mut out = vec![Volley::default(); volleys.len()];
    for (packet, slots) in volleys.chunks(MAX_PACKET).zip(out.chunks_mut(MAX_PACKET)) {
        evaluator
            .eval_packet(packet, slots)
            .expect("domain volleys evaluate");
    }
    out
}

/// The first volley `x` of the window-4 domain and shift `c` in `1..=4`
/// with `f(x + c) != f(x) + c`, if there is one.
fn shift_violation(evaluator: &dyn Evaluator) -> Option<(Volley, u64)> {
    shift_violation_of(evaluator.input_width(), &|volleys| {
        outputs(evaluator, volleys)
    })
}

/// [`shift_violation`] for a function of width `width` evaluated by
/// `eval`.
fn shift_violation_of(width: usize, eval: Eval<'_>) -> Option<(Volley, u64)> {
    let domain: Vec<Volley> = enumerate_inputs(width, WINDOW).map(Volley::new).collect();
    let unshifted = eval(&domain);
    (1..=WINDOW).find_map(|c| {
        let shifted: Vec<Volley> = domain.iter().map(|x| x.shift(c)).collect();
        let outputs = eval(&shifted);
        (0..domain.len())
            .find(|&i| outputs[i] != unshifted[i].shift(c))
            .map(|i| (domain[i].clone(), c))
    })
}

/// One way of evaluating a batch of volleys.
type Eval<'a> = &'a dyn Fn(&[Volley]) -> Vec<Volley>;

/// Evaluates `volleys` 256 at a time, each packet through `eval_lanes`
/// when all of its times fit a lane byte and the evaluator takes it as
/// lanes, through `eval_packet` otherwise.
fn lane_outputs(evaluator: &dyn Evaluator, volleys: &[Volley]) -> Vec<Volley> {
    let mut out = outputs(evaluator, volleys);
    let mut inputs: Vec<ByteBlock> = vec![[lane::INF; MAX_PACKET]; evaluator.input_width()];
    let mut blocks: Vec<ByteBlock> = vec![[lane::INF; MAX_PACKET]; evaluator.output_width()];
    for (packet, slots) in volleys.chunks(MAX_PACKET).zip(out.chunks_mut(MAX_PACKET)) {
        let encoded = packet.iter().enumerate().all(|(j, volley)| {
            inputs
                .iter_mut()
                .zip(volley.times())
                .all(|(block, &t)| lane::encode(t).map(|byte| block[j] = byte).is_some())
        });
        if encoded && evaluator.eval_lanes(&inputs, packet.len(), &mut blocks) {
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = Volley::new(blocks.iter().map(|block| lane::decode(block[j])).collect());
            }
        }
    }
    out
}

/// Where each input spike later than `t` moves, given `t` and the spike.
const LATE_MOVES: [fn(u64, u64) -> Time; 4] = [
    |_, _| Time::INFINITY,
    |t, _| Time::finite(t + 1),
    |_, spike| Time::finite(spike + 1),
    // Past every lane: the volley path.
    |_, spike| Time::finite(spike + 300),
];

/// The first volley `x` of the window-4 domain, output `k` spiking at
/// `t` and moved volley `x'` with `f(x')[k] != t`, where `x'` moves every
/// input spike of `x` later than `t` by one of [`LATE_MOVES`].
fn causality_violation(evaluator: &dyn Evaluator) -> Option<(Volley, usize, Volley)> {
    causality_violation_of(
        evaluator.input_width(),
        &[&|volleys| outputs(evaluator, volleys), &|volleys| {
            lane_outputs(evaluator, volleys)
        }],
    )
}

/// [`causality_violation`] for a function of width `width`, with the
/// moved volleys evaluated by each of `evals` and the domain by the
/// first.
fn causality_violation_of(width: usize, evals: &[Eval<'_>]) -> Option<(Volley, usize, Volley)> {
    let domain: Vec<Volley> = enumerate_inputs(width, WINDOW).map(Volley::new).collect();
    let original = evals[0](&domain);
    // Grouped by move, so the lane-sized moves fill whole packets.
    let mut cases = Vec::new();
    for late in LATE_MOVES {
        for (x, fx) in domain.iter().zip(&original) {
            for (k, t) in fx.times().iter().enumerate() {
                let Some(t) = t.value() else { continue };
                let moved: Vec<Time> = x
                    .times()
                    .iter()
                    .map(|&xi| match xi.value() {
                        Some(spike) if spike > t => late(t, spike),
                        _ => xi,
                    })
                    .collect();
                if moved != x.times() {
                    cases.push((x, k, fx.times()[k], Volley::new(moved)));
                }
            }
        }
    }
    let moved: Vec<Volley> = cases.iter().map(|case| case.3.clone()).collect();
    for got in evals.iter().map(|eval| eval(&moved)) {
        let broken = cases
            .iter()
            .zip(&got)
            .find(|((_, k, t, _), y)| y.times()[*k] != *t);
        if let Some(((x, k, _, x2), _)) = broken {
            return Some(((*x).clone(), *k, x2.clone()));
        }
    }
    None
}

fn has_finite_constant(net: &Network) -> bool {
    net.iter_gates()
        .any(|(_, kind)| matches!(kind, GateKind::Const(t) if t.is_finite()))
}

/// Random width-1–4 networks, with and without finite constants, their
/// delays mostly small and some close to the lane ceiling (254).
fn arb_any_network() -> impl Strategy<Value = Network> {
    let delays = || prop_oneof![3 => 1u64..4, 1 => 248u64..=254];
    prop_oneof![
        arb_network(1, delays()),
        arb_network(2, delays()),
        arb_network(3, delays()),
        arb_network(4, delays()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tables report `invariant()`, and shifts commute with them.
    #[test]
    fn tables_are_shift_invariant(neuron in arb_neuron()) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let evaluator = TableEvaluator::new(&table);
        prop_assert!(evaluator.invariant());
        prop_assert_eq!(shift_violation(&evaluator), None);
    }

    /// A network reports `invariant()` exactly when it has no finite
    /// constant, and then shifts commute with it on its kernel plan.
    #[test]
    fn networks_are_invariant_exactly_without_finite_constants(net in arb_any_network()) {
        let evaluator = NetEvaluator::new(&net);
        prop_assert_eq!(evaluator.invariant(), !has_finite_constant(&net));
        if evaluator.invariant() {
            let text = network_to_text(&net);
            prop_assert_eq!(shift_violation(&evaluator), None, "{}", text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tables are causal.
    #[test]
    fn tables_are_causal(neuron in arb_neuron()) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        prop_assert_eq!(causality_violation(&TableEvaluator::new(&table)), None);
    }

    /// Networks are causal, with or without finite constants, on their
    /// kernel plans.
    #[test]
    fn networks_are_causal(net in arb_any_network()) {
        let text = network_to_text(&net);
        prop_assert_eq!(causality_violation(&NetEvaluator::new(&net)), None, "{}", text);
    }
}

/// Neither property breaks on `artifact` through the batch engine at
/// one or two worker threads; on failure, names the first violation.
fn batch_check(name: &str, artifact: &CompiledArtifact) -> Result<(), TestCaseError> {
    let width = artifact.input_width();
    for threads in [1, 2] {
        let eval = |volleys: &[Volley]| {
            BatchEvaluator::with_threads(threads)
                .eval(artifact, volleys)
                .expect("domain volleys evaluate")
        };
        if let Some((x, c)) = shift_violation_of(width, &eval) {
            return Err(TestCaseError::fail(format!(
                "{name} at {threads} threads: f({x} + {c}) != f({x}) + {c}"
            )));
        }
        if let Some((x, k, moved)) = causality_violation_of(width, &[&eval]) {
            return Err(TestCaseError::fail(format!(
                "{name} at {threads} threads: output {k} of {x} moved at {moved}"
            )));
        }
    }
    Ok(())
}

/// The GRL simulator steps every wire through every cycle, and lowers
/// an `inc` of `d` ticks to a chain of `d` flip-flops: a debug build
/// spends tens of seconds on one window-4 domain of a netlist past this
/// many wires, or of a network with delays near the lane ceiling (which
/// GRL, having no lane bound, gains nothing from). The batch engine runs
/// GRL volleys through the same one-volley unit as every other scalar
/// artifact.
const GRL_WIRES: usize = 512;

/// The GRL artifact of `net`, when it is cheap enough to simulate over
/// the shifted domains.
fn small_grl(net: &Network) -> Option<CompiledArtifact> {
    let small_delays = net
        .iter_gates()
        .all(|(_, kind)| !matches!(kind, GateKind::Inc(d) if d >= 248));
    let netlist = compile_network(net);
    (small_delays && netlist.wire_count() <= GRL_WIRES).then(|| CompiledArtifact::from(netlist))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every artifact kind of a neuron is shift invariant and causal
    /// through the batch engine.
    #[test]
    fn batch_artifacts_of_neurons_are_invariant_and_causal(neuron in arb_neuron()) {
        let network = srm0_network(&neuron);
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let column = Column::new(vec![neuron], Inhibition::one_wta());
        batch_check("table", &CompiledArtifact::from_table(&table))?;
        batch_check("net", &CompiledArtifact::from_network(&network))?;
        if let Some(grl) = small_grl(&network) {
            batch_check("grl", &grl)?;
        }
        batch_check("column", &CompiledArtifact::from(column))?;
        batch_check("kernel", &CompiledArtifact::from_kernel_network(&network))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Constant-free networks are shift invariant and causal through the
    /// batch engine, and shifts move their kernel batches across the
    /// lane bound.
    #[test]
    fn batch_artifacts_of_constant_free_networks_are_invariant_and_causal(
        net in arb_any_network().prop_filter("constant-free", |net| !has_finite_constant(net)),
    ) {
        let text = network_to_text(&net);
        let artifacts = [
            Some(("net", CompiledArtifact::from_network(&net))),
            small_grl(&net).map(|grl| ("grl", grl)),
            Some(("kernel", CompiledArtifact::from_kernel_network(&net))),
        ];
        for (name, artifact) in artifacts.into_iter().flatten() {
            batch_check(name, &artifact)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        }
    }
}

/// Why a finite constant opts out: `lt(x, 1)` passes `x = 0` through
/// but silences `x = 0 + 1`.
#[test]
fn a_finite_constant_breaks_invariance() {
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let one = b.constant(Time::finite(1));
    let gated = b.lt(x, one);
    let evaluator = NetEvaluator::new(&b.build([gated]));
    assert!(!evaluator.invariant());
    assert_eq!(
        shift_violation(&evaluator),
        Some((Volley::new(vec![Time::ZERO]), 1))
    );
}

/// The GRL simulator and the column evaluator have no invariance test
/// yet, so they keep the default `false`.
#[test]
fn grl_and_column_evaluators_keep_the_default() {
    let neuron = Srm0Neuron::new(
        ResponseFn::step(1),
        vec![Synapse::new(0, 2), Synapse::new(1, 2)],
        3,
    );
    let netlist = compile_network(&srm0_network(&neuron));
    assert!(!GrlEvaluator::new(&netlist).invariant());
    let column = Column::new(vec![neuron], Inhibition::one_wta());
    assert!(!ColumnEvaluator::new(&column).invariant());
}
