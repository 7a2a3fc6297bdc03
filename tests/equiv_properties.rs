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
//! volleys. A [`Reference`] table of a network, shared by proof after
//! proof, must give exactly what live evaluation gives.
//!
//! Widths 1–4 make most extents' volley counts non-multiples of the
//! packet size, so the last packet of an extent is usually partial;
//! width 5, including the corpus's compiled 2-neuron SRM0 column, makes
//! the window-4 extents span up to 19 packets of 256 volleys. Delays
//! near the lane ceiling put `lane_input_limit` inside the window, so
//! one check mixes lane and scalar packets, and mutants' `inc` bumps
//! move the limit between the two sides.

mod common;

use common::arbitrary::{arb_network, arb_neuron};
use proptest::prelude::*;
use spacetime::core::{enumerate_inputs, Time, Volley};
use spacetime::net::{network_to_text, parse_network, Network};
use spacetime::neuron::structural::srm0_network;
use spacetime::tnn::train::{fresh_column, TrainConfig};
use spacetime::verify::equiv::{check_equiv, Counterexample, EquivProof, EquivResult};
use spacetime::verify::eval::{Evaluator, NetEvaluator, Reference};
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

    /// One reference table of a network serves proof after proof: each
    /// mutant, then the network itself, checked against the shared
    /// table in both orientations gives exactly the live check. Refuted
    /// mutants stop part-way and mutants with a finite constant walk the
    /// whole domain, so later proofs extend a partly filled table.
    #[test]
    fn one_reference_table_serves_every_proof(net in arb_any_network(), window in 0u64..=4) {
        let reference = Reference::new(NetEvaluator::new(&net), window);
        let live = NetEvaluator::new(&net);
        let mut versions = with_mutants(&net);
        versions.rotate_left(1);
        for other in &versions {
            let candidate = NetEvaluator::new(other);
            prop_assert_eq!(
                check_equiv(&reference, &candidate, window),
                check_equiv(&live, &candidate, window),
                "{}", network_to_text(other)
            );
            prop_assert_eq!(
                check_equiv(&candidate, &reference, window),
                check_equiv(&candidate, &live, window),
                "{}", network_to_text(other)
            );
        }
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
