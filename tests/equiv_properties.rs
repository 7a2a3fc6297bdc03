//! Packet ≡ scalar differential battery for the bounded equivalence
//! checker. `check_equiv` walks the normalized domain in packets of up
//! to 256 volleys, compared as lane blocks where both sides take them,
//! runs `net` sides on their kernel plans, and skips the
//! shifted copies when both sides are shift-invariant; on random
//! networks, on every single-gate mutant of them, and with evaluators
//! that fail on one volley, it must return exactly what a
//! volley-at-a-time walk over `Network::eval` and the whole domain
//! returns: the same verdict, the same counterexample (inputs, both
//! output volleys, output index) or the same error. Only
//! `EquivProof::volleys` differs, by the closed form of the skipped
//! volleys. A [`Reference`] of a network stores its walk once per walk
//! kind, and proof after proof that replays it must give exactly what a
//! live check gives. A network side's plan is its live cone, and a
//! reference hands its last replayed proof back, without a walk, to a
//! candidate with the same plan at the same window and walk kind.
//!
//! Widths 1–4 make most extents' volley counts non-multiples of the
//! packet size, so the last packet of an extent is usually partial;
//! width 5, including the corpus's compiled 2-neuron SRM0 column, makes
//! the window-4 extents span up to 19 packets of 256 volleys. Delays
//! near the lane ceiling put `lane_input_limit` inside the window, so
//! one check mixes lane and scalar packets, and mutants' `inc` bumps
//! move the limit between the two sides.

mod common;

use std::cell::Cell;

use common::arbitrary::{arb_network, arb_neuron};
use proptest::prelude::*;
use spacetime::core::{enumerate_inputs, Time, Volley};
use spacetime::kernel::{ByteBlock, Plan};
use spacetime::net::{network_to_text, parse_network, GateId, Network, NetworkBuilder};
use spacetime::neuron::structural::srm0_network;
use spacetime::tnn::train::{fresh_column, TrainConfig};
use spacetime::trace::{SpanId, TraceBuffer};
use spacetime::verify::equiv::{check_equiv, Counterexample, EquivProof, EquivResult, Reference};
use spacetime::verify::eval::{Evaluator, NetEvaluator};
use spacetime::verify::mutate::net_mutants;

/// The checker's domain in its visiting order: extent by extent, each
/// volley once, at the first extent it uses.
fn domain(width: usize, window: u64) -> impl Iterator<Item = Vec<Time>> {
    (0..=window).flat_map(move |extent| {
        enumerate_inputs(width, extent)
            .filter(move |inputs| extent == 0 || inputs.contains(&Time::finite(extent)))
    })
}

/// How many volleys `check_equiv` walks at `width` and `window`: the
/// whole domain, or only the volleys spiking at 0 plus the all-silent
/// one when both sides are shift-invariant.
fn walked(width: usize, window: u64, invariant: bool) -> u64 {
    let width = u32::try_from(width).unwrap();
    let all = (window + 2).pow(width);
    if invariant {
        all - (window + 1).pow(width) + 1
    } else {
        all
    }
}

/// What `check_equiv` must return: the oracle's result, its proof
/// counting the volleys a normalized walk skips only when both sides
/// are invariant.
fn expected(
    oracle: Result<EquivResult, String>,
    left: &dyn Evaluator,
    right: &dyn Evaluator,
) -> Result<EquivResult, String> {
    oracle.map(|result| match result {
        EquivResult::Proved(proof) => EquivResult::Proved(EquivProof {
            volleys: walked(
                left.input_width(),
                proof.window,
                left.invariant() && right.invariant(),
            ),
            ..proof
        }),
        refuted => refuted,
    })
}

/// The scalar reference walk over the whole domain: one volley at a
/// time through [`Evaluator::eval`] only.
fn reference_walk(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
) -> Result<EquivResult, String> {
    let mut volleys = 0;
    for inputs in domain(left.input_width(), window) {
        volleys += 1;
        let l = left
            .eval(&inputs)
            .map_err(|e| format!("{} failed: {e}", left.name()))?;
        let r = right
            .eval(&inputs)
            .map_err(|e| format!("{} failed: {e}", right.name()))?;
        if let Some(output) = (0..l.len()).find(|&i| l[i] != r[i]) {
            return Ok(EquivResult::Refuted(Counterexample {
                left: left.name().to_owned(),
                right: right.name().to_owned(),
                inputs,
                left_outputs: l,
                right_outputs: r,
                output,
            }));
        }
    }
    Ok(EquivResult::Proved(EquivProof {
        left: left.name().to_owned(),
        right: right.name().to_owned(),
        window,
        volleys,
    }))
}

/// `Network::eval` behind the default, volley-at-a-time packet method.
struct ScalarNet<'a>(&'a Network);

impl Evaluator for ScalarNet<'_> {
    fn name(&self) -> &'static str {
        "net"
    }

    fn input_width(&self) -> usize {
        self.0.input_count()
    }

    fn output_width(&self) -> usize {
        self.0.output_count()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.0.eval(inputs).map_err(|e| e.to_string())
    }
}

/// Wraps an evaluator so that it fails on one volley, in `eval` and
/// mid-packet alike, with a message naming the side (`who`): both sides
/// are "net", so the name alone cannot tell their errors apart.
struct FailsOn<E> {
    inner: E,
    volley: Option<Vec<Time>>,
    who: &'static str,
}

impl<E: Evaluator> FailsOn<E> {
    fn refusal(&self, inputs: &[Time]) -> String {
        let cells: Vec<String> = inputs.iter().map(ToString::to_string).collect();
        format!("{} refused [{}]", self.who, cells.join(" "))
    }
}

impl<E: Evaluator> Evaluator for FailsOn<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn input_width(&self) -> usize {
        self.inner.input_width()
    }

    fn output_width(&self) -> usize {
        self.inner.output_width()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        if self.volley.as_deref() == Some(inputs) {
            return Err(self.refusal(inputs));
        }
        self.inner.eval(inputs)
    }

    fn eval_packet(&self, volleys: &[Volley], out: &mut [Volley]) -> Result<(), (usize, String)> {
        let failing = volleys
            .iter()
            .position(|v| self.volley.as_deref() == Some(v.times()));
        match failing {
            Some(at) => {
                self.inner.eval_packet(&volleys[..at], &mut out[..at])?;
                Err((at, self.refusal(volleys[at].times())))
            }
            None => self.inner.eval_packet(volleys, out),
        }
    }
}

/// Random networks of widths 1–4: mostly small delays, some close enough
/// to the lane ceiling (254) to pull `lane_input_limit` into the window,
/// plus compiled SRM0 neurons small enough to mutate gate by gate (a
/// biexponential response can compile to a thousand gates).
fn arb_any_network() -> impl Strategy<Value = Network> {
    let delays = || prop_oneof![3 => 1u64..4, 1 => 248u64..=254];
    prop_oneof![
        arb_network(1, delays()),
        arb_network(2, delays()),
        arb_network(3, delays()),
        arb_network(4, delays()),
        arb_neuron()
            .prop_map(|n| srm0_network(&n))
            .prop_filter("at most 64 gates", |n| n.gate_count() <= 64),
    ]
}

/// The network itself plus every single-gate mutant of it.
fn with_mutants(net: &Network) -> Vec<Network> {
    let mut all = vec![net.clone()];
    all.extend(
        net_mutants(&network_to_text(net))
            .iter()
            .map(|m| parse_network(&m.text).expect("mutants stay parseable")),
    );
    all
}

/// `net` with every output passed through `max(·, 0)`: the same
/// function, but with a finite constant, so its proofs take the full
/// walk.
fn with_a_finite_constant(net: &Network) -> Network {
    let mut b = NetworkBuilder::from_prefix(net, net.gate_count());
    let zero = b.constant(Time::ZERO);
    let outputs: Vec<_> = net.outputs().iter().map(|&o| b.max2(o, zero)).collect();
    b.build(outputs)
}

/// The candidates of a run of proofs against `net`: the network itself
/// and every single-gate mutant, each also with a finite constant, so
/// that a run proves both walk kinds whenever `net` is constant-free.
fn candidates(net: &Network) -> Vec<Network> {
    with_mutants(net)
        .iter()
        .flat_map(|n| [n.clone(), with_a_finite_constant(n)])
        .collect()
}

/// Whether `net`'s plan takes every packet of `window` as lanes.
fn takes_lanes(net: &Network, window: u64) -> bool {
    window <= 254
        && Plan::from_network(net)
            .lane_input_limit()
            .is_some_and(|limit| limit >= window)
}

/// A network side that counts the volleys it evaluates, on every path.
/// It hands out no plan, so as a candidate it is always checked live.
struct Counting<'a> {
    inner: NetEvaluator,
    evaluated: &'a Cell<u64>,
}

impl<'a> Counting<'a> {
    fn new(net: &Network, evaluated: &'a Cell<u64>) -> Counting<'a> {
        Counting {
            inner: NetEvaluator::new(net),
            evaluated,
        }
    }

    fn count(&self, volleys: usize) {
        self.evaluated.set(self.evaluated.get() + volleys as u64);
    }
}

impl Evaluator for Counting<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn input_width(&self) -> usize {
        self.inner.input_width()
    }

    fn output_width(&self) -> usize {
        self.inner.output_width()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.count(1);
        self.inner.eval(inputs)
    }

    fn eval_packet(&self, volleys: &[Volley], out: &mut [Volley]) -> Result<(), (usize, String)> {
        self.count(volleys.len());
        self.inner.eval_packet(volleys, out)
    }

    fn eval_lanes(&self, inputs: &[ByteBlock], lanes: usize, out: &mut [ByteBlock]) -> bool {
        let taken = self.inner.eval_lanes(inputs, lanes, out);
        if taken {
            self.count(lanes);
        }
        taken
    }

    fn invariant(&self) -> bool {
        self.inner.invariant()
    }
}

/// Checks every pair of `net` and one of `others`, in both
/// orientations, against the scalar walk over the whole domain.
fn assert_matches_the_scalar_walk(net: &Network, others: &[Network], window: u64) {
    for other in others {
        for (a, b) in [(net, other), (other, net)] {
            let (left, right) = (NetEvaluator::new(a), NetEvaluator::new(b));
            assert_eq!(
                check_equiv(&left, &right, window),
                expected(
                    reference_walk(&ScalarNet(a), &ScalarNet(b), window),
                    &left,
                    &right
                ),
                "{}\nvs\n{}",
                network_to_text(a),
                network_to_text(b)
            );
        }
    }
}

/// The corpus's 2-neuron SRM0 + 1-WTA column over five inputs (weight
/// seed 7, threshold a quarter of the largest potential), lowered to
/// gates: about 2 000 of them, whose window-4 extents span up to 19
/// packets. It proves equal to itself over the whole domain and, like
/// the scalar walk, tells itself apart from the same column at a higher
/// threshold.
#[test]
fn a_compiled_column_matches_the_scalar_walk_across_many_packets() {
    let column = |threshold: f64| {
        let config = TrainConfig {
            seed: 7,
            ..TrainConfig::default()
        };
        fresh_column(2, 5, threshold, &config).to_network()
    };
    let (quarter, higher) = (column(0.25), column(0.3));
    let (left, right) = (NetEvaluator::new(&quarter), NetEvaluator::new(&quarter));
    let proof = check_equiv(&left, &right, 4);
    let oracle = reference_walk(&ScalarNet(&quarter), &ScalarNet(&quarter), 4);
    assert_eq!(proof, expected(oracle, &left, &right));
    assert_matches_the_scalar_walk(&quarter, &[higher], 4);
}

/// The one-input identity against candidates of both walk kinds:
/// `min(x, x)` (invariant: the normalized walk, `[0]` and `[∞]`),
/// `lt(x, 5)` (a finite constant: the full walk, all six volleys of
/// window 4) and `lt(x, 1)` (refuted at `[1]`, which only the full walk
/// meets). Whichever kind a run stores first, every proof is the live
/// one and the original is walked once per kind: 2 + 6 volleys.
#[test]
fn both_walk_kinds_serve_in_either_order() {
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let identity = b.build([x]);
    let gated = |bound: u64| {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let c = b.constant(Time::finite(bound));
        let l = b.lt(x, c);
        b.build([l])
    };
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let m = b.min2(x, x);
    let doubled = b.build([m]);
    let (below, above) = (gated(1), gated(5));

    let live = NetEvaluator::new(&identity);
    for run in [
        [&doubled, &above, &below, &doubled],
        [&below, &above, &doubled, &above],
    ] {
        let evaluated = Cell::new(0);
        let reference = Reference::new(Counting::new(&identity, &evaluated));
        for other in run {
            let candidate = NetEvaluator::new(other);
            let result = reference.check_equiv(&candidate, 4);
            assert_eq!(result, check_equiv(&live, &candidate, 4));
            match result.unwrap() {
                EquivResult::Proved(proof) => {
                    let expected = if other == &doubled { 2 } else { 6 };
                    assert_eq!(proof.volleys, expected);
                }
                EquivResult::Refuted(cex) => {
                    assert!(other == &below);
                    assert_eq!(cex.inputs, vec![Time::finite(1)]);
                }
            }
        }
        assert_eq!(evaluated.get(), 2 + 6);
    }
}

/// `[x0, x1]` against `[x0, lt(x1, x0 + 4)]`, which differ first at
/// `[0 4]`: in the normalized walk the second of extent 4's two volleys,
/// in the full walk (a `max(·, 0)` guard adds a finite constant) the
/// fifth of its eleven. Replayed from the stored walk, either refutation
/// lands on that lane of the last extent's partial packet.
#[test]
fn a_refutation_in_the_last_partial_packet_is_the_live_one() {
    let mut b = NetworkBuilder::new();
    let x = b.inputs(2);
    let identity = b.build([x[0], x[1]]);
    let mut b = NetworkBuilder::new();
    let x = b.inputs(2);
    let late = b.inc(x[0], 4);
    let cut = b.lt(x[1], late);
    let cut = b.build([x[0], cut]);

    let live = NetEvaluator::new(&identity);
    let reference = Reference::new(NetEvaluator::new(&identity));
    for other in [cut.clone(), with_a_finite_constant(&cut)] {
        let candidate = NetEvaluator::new(&other);
        let result = reference.check_equiv(&candidate, 4).unwrap();
        assert_eq!(Ok(result.clone()), check_equiv(&live, &candidate, 4));
        let cex = result.counterexample().expect("4 is not ∞").clone();
        assert_eq!(cex.inputs, vec![Time::ZERO, Time::finite(4)]);
        assert_eq!(cex.left_outputs, vec![Time::ZERO, Time::finite(4)]);
        assert_eq!(cex.right_outputs, vec![Time::ZERO, Time::INFINITY]);
        assert_eq!(cex.output, 1);
    }
}

/// `x` and `lt(x, 5)` agree on every volley of window 4 and differ at
/// `[5]`, the volley the stored walk keeps in the lanes past each
/// partial packet's end: the replayed proof reads only the packets'
/// volleys.
#[test]
fn lanes_past_a_partial_packet_are_never_compared() {
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let identity = b.build([x]);
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let c = b.constant(Time::finite(5));
    let l = b.lt(x, c);
    let gated = b.build([l]);
    let candidate = NetEvaluator::new(&gated);
    for window in 0..=4 {
        let reference = Reference::new(NetEvaluator::new(&identity));
        let result = reference.check_equiv(&candidate, window);
        assert_eq!(
            result,
            check_equiv(&NetEvaluator::new(&identity), &candidate, window)
        );
        assert_eq!(result.unwrap().proof().map(|p| p.volleys), Some(window + 2));
    }
}

/// `min(x, lt(x + 252, x))` is `x`, but its lane limit is 2. As the
/// candidate at window 4 it is checked live, with nothing stored. As the
/// original, against `max(x, 0)` (also `x`, with a finite constant, so
/// the full walk), its walk cannot be stored: the one build stops at the
/// first packet it declines, `[3]`, after `[0]`, `[∞]`, `[1]` and `[2]`,
/// and every proof evaluates it live.
#[test]
fn sides_past_the_lane_bound_are_checked_live() {
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let identity = b.build([x]);
    let mut b = NetworkBuilder::new();
    let x = b.input();
    let late = b.inc(x, 252);
    let never = b.lt(late, x);
    let m = b.min2(x, never);
    let detour = b.build([m]);
    assert!(!takes_lanes(&detour, 4));
    let guarded = with_a_finite_constant(&identity);
    assert!(takes_lanes(&guarded, 4));

    for (original, other, walked, evaluated) in [
        (&identity, &detour, 2, 2 + 2),
        (&detour, &guarded, 6, 4 + 6 + 6),
    ] {
        let count = Cell::new(0);
        let reference = Reference::new(Counting::new(original, &count));
        let candidate = NetEvaluator::new(other);
        for _ in 0..2 {
            let result = reference.check_equiv(&candidate, 4);
            assert_eq!(
                result,
                check_equiv(&NetEvaluator::new(original), &candidate, 4)
            );
            assert_eq!(result.unwrap().proof().map(|p| p.volleys), Some(walked));
        }
        assert_eq!(count.get(), evaluated);
    }
}

/// A network with no inputs has one volley, the empty one. Constant
/// candidates, finite and not, replay it at every window up to 4 and
/// check it live past the lane bytes, as the live check does.
#[test]
fn zero_input_networks_replay_their_one_volley() {
    let constant = |text: &str| parse_network(text).unwrap();
    let original = constant("g0 = const 3\noutputs g0\n");
    let others = [
        constant("g0 = const 3\noutputs g0\n"),
        constant("g0 = const 4\noutputs g0\n"),
        constant("g0 = const ∞\noutputs g0\n"),
        constant("g0 = const 1\ng1 = inc 2 g0\noutputs g1\n"),
    ];
    let live = NetEvaluator::new(&original);
    for window in [0, 1, 2, 3, 4, 255, 10_000_000_000] {
        let reference = Reference::new(NetEvaluator::new(&original));
        for other in &others {
            let candidate = NetEvaluator::new(other);
            let result = reference.check_equiv(&candidate, window);
            assert_eq!(
                result,
                check_equiv(&live, &candidate, window),
                "window {window}"
            );
            if let Some(proof) = result.unwrap().proof() {
                assert_eq!(proof.volleys, 1);
            }
        }
    }
}

/// `net` with dead gates added: a `min` of its first gate with itself
/// and, when `constant`, a finite constant. Its live cone is `net`'s,
/// and the constant alone makes it not shift-invariant.
fn with_dead_gates(net: &Network, constant: bool) -> Network {
    let mut b = NetworkBuilder::from_prefix(net, net.gate_count());
    let first = GateId::from_index(0);
    b.min2(first, first);
    if constant {
        b.constant(Time::finite(3));
    }
    b.build(net.outputs().to_vec())
}

/// `reference.check_equiv` of `candidate`, with how many `verify.window`
/// spans it recorded: one per extent when it walked, none when the
/// reference handed back a kept proof.
fn check_counting_windows<E: Evaluator>(
    reference: &Reference<E>,
    candidate: &Network,
    window: u64,
) -> (Result<EquivResult, String>, usize) {
    let mut tracer = TraceBuffer::new();
    let result = reference.check_equiv_traced(
        &NetEvaluator::new(candidate),
        window,
        &mut tracer,
        SpanId::NONE,
    );
    let windows = tracer
        .records()
        .iter()
        .filter(|r| r.name == "verify.window")
        .count();
    (result, windows)
}

/// A refuted candidate is never kept: checked twice against one
/// reference, `lt(x, 5)` is refuted twice at `[5]`, each time by a
/// walk, and `min(x, x)` after it is walked too. Checked again,
/// `min(x, x)` gets its proof back with no walk, as does `min(x, x)`
/// with a dead gate, whose plan is the same; `max(x, x)`, another
/// plan, is walked.
#[test]
fn only_proofs_are_kept() {
    let one = |build: &dyn Fn(&mut NetworkBuilder, GateId) -> GateId| {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let out = build(&mut b, x);
        b.build([out])
    };
    let identity = one(&|_, x| x);
    let gated = one(&|b, x| {
        let c = b.constant(Time::finite(5));
        b.lt(x, c)
    });
    let doubled = one(&|b, x| b.min2(x, x));
    let joined = one(&|b, x| b.max2(x, x));
    let dead = with_dead_gates(&doubled, false);
    assert_eq!(
        Plan::from_network(&doubled).live_cone(),
        Plan::from_network(&dead).live_cone()
    );

    let live = NetEvaluator::new(&identity);
    let reference = Reference::new(NetEvaluator::new(&identity));
    let mut cexes = Vec::new();
    for _ in 0..2 {
        let (result, windows) = check_counting_windows(&reference, &gated, 6);
        assert_eq!(result, check_equiv(&live, &NetEvaluator::new(&gated), 6));
        assert_eq!(windows, 6, "refuted at extent 5");
        cexes.push(
            result
                .unwrap()
                .counterexample()
                .cloned()
                .expect("5 is not ∞"),
        );
    }
    assert_eq!(cexes[0], cexes[1]);
    assert_eq!(cexes[0].inputs, vec![Time::finite(5)]);
    for (candidate, walked) in [
        (&doubled, true),
        (&doubled, false),
        (&dead, false),
        (&joined, true),
    ] {
        let (result, windows) = check_counting_windows(&reference, candidate, 6);
        assert_eq!(result, check_equiv(&live, &NetEvaluator::new(candidate), 6));
        assert_eq!(
            windows,
            if walked { 7 } else { 0 },
            "{}",
            network_to_text(candidate)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random width-5 networks against every single-gate mutant.
    #[test]
    fn width_five_extents_match_the_scalar_walk(
        net in arb_network(5, prop_oneof![3 => 1u64..4, 1 => 248u64..=254]),
    ) {
        assert_matches_the_scalar_walk(&net, &with_mutants(&net), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Kernel-backed packets and the scalar walk agree on every pair of
    /// a network and one of its mutants, in both orientations, and a
    /// proof walks the closed-form count of volleys.
    #[test]
    fn packet_checker_matches_the_scalar_walk(net in arb_any_network(), window in 0u64..=4) {
        let versions = with_mutants(&net);
        for other in &versions {
            for (a, b) in [(&net, other), (other, &net)] {
                let (left, right) = (NetEvaluator::new(a), NetEvaluator::new(b));
                let packet = check_equiv(&left, &right, window);
                let scalar = reference_walk(&ScalarNet(a), &ScalarNet(b), window);
                prop_assert_eq!(
                    packet,
                    expected(scalar, &left, &right),
                    "{}\nvs\n{}",
                    network_to_text(a),
                    network_to_text(b)
                );
            }
        }
    }

    /// One stored walk serves proof after proof exactly as a live check
    /// does: the network, every mutant and each of them with a finite
    /// constant, checked against one reference of the network, give the
    /// live `check_equiv` verdict, counterexample, volley count or error.
    /// A run goes forward and a second one backward, so each walk kind is
    /// stored first in one of them; refuted candidates, candidates whose
    /// `lane_input_limit` is below the window (delays of 248–254) and
    /// networks the original cannot walk in lanes take their own paths.
    #[test]
    fn one_stored_walk_serves_every_proof(net in arb_any_network(), window in 0u64..=4) {
        let live = NetEvaluator::new(&net);
        let mut run = candidates(&net);
        for _ in 0..2 {
            let reference = Reference::new(NetEvaluator::new(&net));
            for other in &run {
                let candidate = NetEvaluator::new(other);
                prop_assert_eq!(
                    reference.check_equiv(&candidate, window),
                    check_equiv(&live, &candidate, window),
                    "{}", network_to_text(other)
                );
            }
            run.reverse();
        }
    }

    /// A reference keeps its last replayed proof for the candidate's
    /// plan, window and walk kind. `net` with a dead gate is walked;
    /// `net` itself, whose live cone is the same plan, gets that proof
    /// back with no walk, equal to a live check's (names, window,
    /// volleys). A dead finite constant leaves the plan alone but makes
    /// the side not shift-invariant, so when `net` is invariant the
    /// candidate takes the full walk, is walked once and counts the full
    /// domain; when `net` is not, its proof is the one kept. Another
    /// window is never served by a kept proof. Sides past the lane bound
    /// are checked live every time.
    #[test]
    fn a_proof_is_kept_for_its_plan_window_and_walk_kind(
        net in arb_any_network(),
        window in 0u64..=4,
    ) {
        let live = NetEvaluator::new(&net);
        let reference = Reference::new(NetEvaluator::new(&net));
        let replays = takes_lanes(&net, window);
        let (dead, constant) = (with_dead_gates(&net, false), with_dead_gates(&net, true));
        let invariant = live.invariant();
        prop_assert!(!NetEvaluator::new(&constant).invariant());
        let extents = window as usize + 1;
        for (candidate, walks) in [
            (&dead, true),
            (&net, !replays),
            (&constant, !replays || invariant),
            (&constant, !replays),
            (&net, !replays || invariant),
        ] {
            let (result, windows) = check_counting_windows(&reference, candidate, window);
            let fresh = check_equiv(&live, &NetEvaluator::new(candidate), window);
            prop_assert_eq!(&result, &fresh, "{}", network_to_text(candidate));
            prop_assert_eq!(windows, if walks { extents } else { 0 });
            let proof = result.unwrap().proof().cloned().expect("dead gates change nothing");
            let normalized = invariant && NetEvaluator::new(candidate).invariant();
            prop_assert_eq!(proof.volleys, walked(net.input_count(), window, normalized));
        }
        // At the next window the kept proof's window no longer matches.
        let (result, windows) = check_counting_windows(&reference, &net, window + 1);
        prop_assert_eq!(result, check_equiv(&live, &NetEvaluator::new(&net), window + 1));
        prop_assert_eq!(windows, extents + 1);
    }

    /// A run walks the original once per walk kind: after every candidate
    /// that takes lanes has been proved twice against one reference, the
    /// original has evaluated exactly the volleys of the walk kinds those
    /// proofs used.
    #[test]
    fn the_original_is_walked_once_per_walk_kind(net in arb_any_network(), window in 0u64..=4) {
        // An original past the lane bound is checked live
        // (`sides_past_the_lane_bound_are_checked_live`).
        if !takes_lanes(&net, window) {
            return Ok(());
        }
        let evaluated = Cell::new(0);
        let reference = Reference::new(Counting::new(&net, &evaluated));
        let mut kinds = [false; 2];
        let run: Vec<Network> =
            candidates(&net).into_iter().filter(|c| takes_lanes(c, window)).collect();
        for other in run.iter().chain(&run) {
            let candidate = NetEvaluator::new(other);
            reference.check_equiv(&candidate, window).unwrap();
            kinds[usize::from(!(reference.original().invariant() && candidate.invariant()))] = true;
        }
        let width = net.input_count();
        let expected = walked(width, window, true) * u64::from(kinds[0])
            + walked(width, window, false) * u64::from(kinds[1]);
        prop_assert_eq!(evaluated.get(), expected, "{}", network_to_text(&net));
    }

    /// An evaluator failing on one volley stops the packet walk exactly
    /// where the scalar walk stops: a disagreement before that volley is
    /// still a refutation; otherwise the failure is the same error. The
    /// failing side may be kernel-backed (failing mid-packet) or scalar,
    /// and either side, or both, may fail, on different volleys or on
    /// the same one.
    #[test]
    fn failures_stop_the_packet_walk_where_the_scalar_walk_stops(
        net in arb_any_network(),
        window in 0u64..=4,
        mutant in 0usize..1 << 16,
        left_fails in prop::option::weighted(0.7, 0usize..1 << 16),
        right_fails in prop::option::weighted(0.7, 0usize..1 << 16),
        same_volley in prop::option::weighted(0.25, Just(())),
        left_on_kernel in prop_oneof![Just(true), Just(false)],
    ) {
        let versions = with_mutants(&net);
        let other = &versions[mutant % versions.len()];
        let volleys: Vec<Vec<Time>> = domain(net.input_count(), window).collect();
        let pick = |draw: Option<usize>| draw.map(|i| volleys[i % volleys.len()].clone());
        let lv = pick(left_fails);
        // Both sides failing on one volley: the left side's error wins.
        let rv = if same_volley.is_some() && lv.is_some() { lv.clone() } else { pick(right_fails) };

        let scalar = reference_walk(
            &FailsOn { inner: ScalarNet(&net), volley: lv.clone(), who: "left" },
            &FailsOn { inner: ScalarNet(other), volley: rv.clone(), who: "right" },
            window,
        );
        let right = FailsOn { inner: NetEvaluator::new(other), volley: rv, who: "right" };
        let packet = if left_on_kernel {
            let left = FailsOn { inner: NetEvaluator::new(&net), volley: lv, who: "left" };
            check_equiv(&left, &right, window)
        } else {
            check_equiv(&FailsOn { inner: ScalarNet(&net), volley: lv, who: "left" }, &right, window)
        };
        prop_assert_eq!(packet, scalar);
    }
}
