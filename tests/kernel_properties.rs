//! Differential battery for the kernel engine: on random artifacts
//! and random volleys, `kernel ≡ net ≡ grl ≡ table` bit-for-bit at 1, 2,
//! and 7 worker threads; the metered and probed entry points are
//! observationally identical to the plain ones; and the deterministic
//! `kernel.*` counters never depend on the thread count.
//!
//! Every walk over a plan's steps — eight-lane blocks, 256-lane blocks,
//! pre-packed blocks and the scalar path — is checked against
//! `Network::eval` and `Network::trace` on networks built to reach every
//! step form: merges of one, two and three or more sources, repeated
//! operands, `inc` chains ending at and past the lane ceiling, and
//! finite and `∞` constants. Gate events are derived gate by gate from
//! the trace.

mod common;

use common::arbitrary::{arb_network, arb_neuron, arb_volley};
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{lane, FunctionTable, Time, Volley};
use spacetime::grl::compile_network;
use spacetime::kernel::{ByteBlock, Plan, Scratch, MAX_PACKET};
use spacetime::metrics::{MetricsRegistry, NullMetrics};
use spacetime::net::sorting::sorting_network;
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::{GateKind, Network, NetworkBuilder};
use spacetime::neuron::structural::srm0_network;
use spacetime::obs::{NullProbe, ObsEvent, Recorder};
use spacetime::trace::{NullTracer, SpanId};

fn to_volleys(raw: &[Vec<Time>], width: usize) -> Vec<Volley> {
    raw.iter()
        .map(|v| Volley::new(v[..width].to_vec()))
        .collect()
}

/// One gate of [`arb_step_network`]. Source fields are raw draws,
/// resolved modulo the gates that exist when the gate is built.
#[derive(Debug, Clone)]
enum StepSpec {
    Const(Time),
    /// `min` (`false`) or `max` (`true`) of one to five sources.
    Merge(bool, Vec<usize>),
    Lt(usize, usize),
    /// `min(a, a)`, `max(a, a)` or `lt(a, a)`.
    Repeat(u8, usize),
    /// An `inc` of the total, or two stacked ones summing to it.
    Chain(usize, u64, bool),
}

/// Random networks of widths 1–4 reaching every step form: one-source
/// merges, two-source and wide merges, repeated operands, `inc`s and
/// two-`inc` chains of total 250–254 and 255–300 (so the lane limit
/// lands on 0–4 or is gone, unless the chain is dead), and finite,
/// near-ceiling and `∞` constants.
fn arb_step_network() -> impl Strategy<Value = Network> {
    let draw = 0usize..1 << 16;
    let constant = prop_oneof![
        3 => (0u64..6).prop_map(Time::finite),
        1 => (250u64..=254).prop_map(Time::finite),
        1 => Just(Time::INFINITY),
    ];
    let spec = prop_oneof![
        2 => constant.prop_map(StepSpec::Const),
        6 => (prop_oneof![Just(false), Just(true)], prop::collection::vec(draw.clone(), 1..=5))
            .prop_map(|(max, srcs)| StepSpec::Merge(max, srcs)),
        2 => (draw.clone(), draw.clone()).prop_map(|(a, b)| StepSpec::Lt(a, b)),
        2 => (0u8..3, draw.clone()).prop_map(|(op, a)| StepSpec::Repeat(op, a)),
        2 => (draw.clone(), prop_oneof![250u64..=254, 255u64..=300], prop_oneof![Just(false), Just(true)])
            .prop_map(|(a, total, split)| StepSpec::Chain(a, total, split)),
    ];
    (
        1usize..=4,
        prop::collection::vec(spec, 1..16),
        prop::collection::vec(draw, 1..=3),
    )
        .prop_map(|(width, specs, outs)| {
            let mut b = NetworkBuilder::new();
            let mut ids = b.inputs(width);
            for spec in specs {
                let pick = |i: usize| ids[i % ids.len()];
                let id = match spec {
                    StepSpec::Const(t) => b.constant(t),
                    StepSpec::Merge(false, srcs) => b.min(srcs.into_iter().map(pick)).unwrap(),
                    StepSpec::Merge(true, srcs) => b.max(srcs.into_iter().map(pick)).unwrap(),
                    StepSpec::Lt(x, y) => b.lt(pick(x), pick(y)),
                    StepSpec::Repeat(0, a) => b.min2(pick(a), pick(a)),
                    StepSpec::Repeat(1, a) => b.max2(pick(a), pick(a)),
                    StepSpec::Repeat(_, a) => b.lt(pick(a), pick(a)),
                    StepSpec::Chain(a, total, false) => b.inc(pick(a), total),
                    StepSpec::Chain(a, total, true) => {
                        let first = b.inc(pick(a), total / 2);
                        b.inc(first, total - total / 2)
                    }
                };
                ids.push(id);
            }
            let outputs: Vec<_> = outs.iter().map(|&o| ids[o % ids.len()]).collect();
            b.build(outputs)
        })
}

/// `raw` cut to `width` lines with every finite time past `limit` made
/// silent, so every volley is within the plan's lane bound.
fn fitted(raw: &[Vec<Time>], width: usize, limit: u64) -> Vec<Volley> {
    raw.iter()
        .map(|v| {
            Volley::new(
                v[..width]
                    .iter()
                    .map(|&t| {
                        if t.value().is_some_and(|v| v > limit) {
                            Time::INFINITY
                        } else {
                            t
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The stream `Plan::eval_instrumented` must record for `inputs`: one
/// `GateFired` per gate with a finite time in `Network::trace`, tagged
/// with the gate's kind.
fn trace_events(network: &Network, inputs: &[Time]) -> Vec<ObsEvent> {
    let trace = network.trace(inputs).unwrap();
    network
        .iter_gates()
        .zip(trace)
        .filter(|(_, at)| at.is_finite())
        .map(|((id, kind), at)| ObsEvent::GateFired {
            gate: id.index(),
            op: match kind {
                GateKind::Input(_) => "input",
                GateKind::Const(_) => "const",
                GateKind::Min => "min",
                GateKind::Max => "max",
                GateKind::Lt => "lt",
                GateKind::Inc(_) => "inc",
                other => panic!("unknown gate kind {other:?}"),
            },
            at,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Four-way agreement on synthesized artifacts: a random neuron is
    /// tabulated, the table is synthesized to a network (Theorem 1), and
    /// the compiled table / event-sim network / GRL netlist / kernel
    /// plan evaluate random volleys bit-identically at every thread
    /// count.
    #[test]
    fn kernel_matches_net_grl_and_table(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..40),
    ) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let network = synthesize(&table, SynthesisOptions::default());
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let artifacts = [
            CompiledArtifact::from_table(&table),
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from_grl_network(&network),
            CompiledArtifact::from_kernel_network(&network),
        ];
        let reference = BatchEvaluator::with_threads(1)
            .eval(&artifacts[0], &volleys)
            .unwrap();
        for artifact in &artifacts {
            for threads in [1usize, 2, 7] {
                let got = BatchEvaluator::with_threads(threads)
                    .eval(artifact, &volleys)
                    .unwrap();
                prop_assert_eq!(&got, &reference, "{} threads", threads);
            }
        }
    }

    /// Both plan extraction paths agree with the engines they flatten:
    /// `Plan::from_network` against the event sim and `Plan::from_grl`
    /// (delay-chain fusion included) against the GRL simulator, on raw
    /// structural SRM0 networks.
    #[test]
    fn both_plan_extractions_match_their_source_engines(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let network = srm0_network(&neuron);
        let netlist = compile_network(&network);
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let reference = BatchEvaluator::with_threads(1)
            .eval(&CompiledArtifact::from_network(&network), &volleys)
            .unwrap();
        let from_net = CompiledArtifact::from_kernel_network(&network);
        let from_grl = CompiledArtifact::from_kernel_grl(&netlist);
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);
            prop_assert_eq!(
                &evaluator.eval(&from_net, &volleys).unwrap(),
                &reference,
                "from_network, {} threads", threads
            );
            prop_assert_eq!(
                &evaluator.eval(&from_grl, &volleys).unwrap(),
                &reference,
                "from_grl, {} threads", threads
            );
        }
    }

    /// The st-opt verified pipeline joins the battery: optimizing a
    /// synthesized network must not change what any engine computes —
    /// the optimized network and its kernel plan agree with the
    /// raw source on random volleys at every thread count.
    #[test]
    fn optimized_networks_join_the_differential_battery(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
    ) {
        let table = FunctionTable::from_fn(&neuron, 3).unwrap();
        let network = synthesize(&table, SynthesisOptions::default());
        let outcome = spacetime::opt::optimize_network(
            &network,
            &spacetime::opt::OptOptions::default(),
        ).unwrap();
        prop_assert_eq!(outcome.rejected(), 0, "report:\n{}", outcome.render());
        let spacetime::verify::Artifact::Net(optimized) = &outcome.artifact else {
            panic!("network optimized into a non-net");
        };
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let reference = BatchEvaluator::with_threads(1)
            .eval(&CompiledArtifact::from_network(&network), &volleys)
            .unwrap();
        for artifact in [
            CompiledArtifact::from_network(optimized),
            CompiledArtifact::from_kernel_network(optimized),
        ] {
            for threads in [1usize, 2, 7] {
                let got = BatchEvaluator::with_threads(threads)
                    .eval(&artifact, &volleys)
                    .unwrap();
                prop_assert_eq!(&got, &reference, "{} threads", threads);
            }
        }
    }

    /// One `Plan::eval_packet` call carries 1–256 lane-capable volleys —
    /// one eight-lane block per gate up to eight volleys, one 256-byte
    /// block past that — and matches `Plan::eval` on each; a scratch
    /// reused from a wider packet leaves no trace in a narrower one.
    #[test]
    fn wide_packets_match_the_scalar_plan(
        network in prop_oneof![
            arb_neuron().prop_map(|n| srm0_network(&n)),
            arb_network(3, 1u64..4),
        ],
        raw_volleys in prop::collection::vec(arb_volley(3), 1..=MAX_PACKET),
        narrower in 1usize..=MAX_PACKET,
    ) {
        let plan = Plan::from_network(&network);
        let volleys = to_volleys(&raw_volleys, plan.input_count());
        prop_assert!(plan.lane_capable(&volleys));
        let mut scratch = Scratch::default();
        for packet in [&volleys[..], &volleys[..narrower.min(volleys.len())]] {
            let mut out = vec![Volley::default(); packet.len()];
            plan.eval_packet(&mut scratch, packet, &mut out);
            for (volley, got) in packet.iter().zip(&out) {
                prop_assert_eq!(got.times(), &plan.eval(volley.times()).unwrap()[..]);
            }
        }
    }

    /// `Plan::eval_blocks` takes a packet already lane-packed and matches
    /// `Plan::eval` on each of its 1–256 lanes, whatever bytes the lanes
    /// past the packet's end hold (lanes never mix), with a scratch
    /// first used by a larger plan.
    #[test]
    fn pre_packed_blocks_match_the_scalar_plan(
        network in prop_oneof![
            arb_neuron().prop_map(|n| srm0_network(&n)),
            arb_network(3, 1u64..4),
        ],
        raw_volleys in prop::collection::vec(arb_volley(3), 1..=MAX_PACKET),
        junk in 1u64..u64::MAX,
    ) {
        let plan = Plan::from_network(&network);
        let volleys = to_volleys(&raw_volleys, plan.input_count());
        prop_assert!(plan.lane_capable(&volleys));
        let mut state = junk;
        let mut inputs: Vec<ByteBlock> = (0..plan.input_count())
            .map(|_| std::array::from_fn(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            }))
            .collect();
        for (j, volley) in volleys.iter().enumerate() {
            for (block, &t) in inputs.iter_mut().zip(volley.times()) {
                block[j] = lane::encode(t).unwrap();
            }
        }
        let mut scratch = Scratch::default();
        let larger = Plan::from_network(&sorting_network(16));
        larger.eval_blocks(&mut scratch, &[[0; MAX_PACKET]; 16], &mut [[0; MAX_PACKET]; 16]);
        let mut outputs = vec![[0; MAX_PACKET]; plan.output_width()];
        plan.eval_blocks(&mut scratch, &inputs, &mut outputs);
        for (j, volley) in volleys.iter().enumerate() {
            let lanes: Vec<Time> = outputs.iter().map(|block| lane::decode(block[j])).collect();
            prop_assert_eq!(lanes, plan.eval(volley.times()).unwrap(), "lane {}", j);
        }
    }

    /// The kernel's metered and probed batch entry points return exactly
    /// the plain outputs; the probe stream is each volley's marker, then
    /// (off the lane path) its gate firings as `Network::trace` reports
    /// them; and the deterministic `kernel.*` counters are identical at
    /// every thread count, a packet counting every plan step once.
    #[test]
    fn kernel_metered_and_probed_match_plain(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..40),
    ) {
        let network = srm0_network(&neuron);
        let volleys = to_volleys(&raw_volleys, network.input_count());
        let plan = Plan::from_network(&network);
        let artifact = CompiledArtifact::Kernel(plan.clone());
        let plain = BatchEvaluator::with_threads(1)
            .eval(&artifact, &volleys)
            .unwrap();
        let mut baseline: Option<Vec<(String, u64)>> = None;
        for threads in [1usize, 2, 7] {
            let evaluator = BatchEvaluator::with_threads(threads);

            let mut sink = MetricsRegistry::new();
            let metered = evaluator.eval_instrumented(&artifact, &volleys, &mut NullProbe, &mut sink, &mut NullTracer, SpanId::NONE).unwrap();
            prop_assert_eq!(&metered, &plain, "metered, {} threads", threads);
            prop_assert_eq!(sink.counter("batch.volleys"), volleys.len() as u64);
            let packets = volleys.len().div_ceil(8) as u64;
            prop_assert_eq!(
                sink.counter("kernel.packets"),
                packets,
                "packet partition must be thread-invariant"
            );
            prop_assert_eq!(
                sink.counter("kernel.gates_swar"),
                packets * plan.gate_count() as u64
            );
            let counters: Vec<(String, u64)> = sink
                .counters()
                .filter(|(name, _)| *name != "batch.chunks")
                .map(|(name, value)| (name.to_owned(), value))
                .collect();
            if let Some(base) = &baseline {
                prop_assert_eq!(&counters, base, "counters at {} threads", threads);
            } else {
                baseline = Some(counters);
            }

            let mut recorder = Recorder::new();
            let probed = evaluator.eval_instrumented(&artifact, &volleys, &mut recorder, &mut NullMetrics, &mut NullTracer, SpanId::NONE).unwrap();
            prop_assert_eq!(&probed, &plain, "probed, {} threads", threads);
            let lanes = plan.lane_capable(&volleys);
            let mut expected = Vec::new();
            for (index, volley) in volleys.iter().enumerate() {
                expected.push(ObsEvent::VolleyStart { index });
                if !lanes {
                    expected.extend(trace_events(&network, volley.times()));
                }
            }
            prop_assert_eq!(recorder.events(), &expected[..], "probed, {} threads", threads);
        }
    }

    /// The scalar plan entry points (used for single volleys and for
    /// batches outside the lane bound) are also observationally
    /// identical: probed ≡ metered ≡ plain.
    #[test]
    fn scalar_plan_instrumented_entry_points_match_plain(
        neuron in arb_neuron(),
        volley in arb_volley(3),
    ) {
        let network = srm0_network(&neuron);
        let inputs = &volley[..network.input_count()];
        let plan = Plan::from_network(&network);
        let plain = plan.eval(inputs).unwrap();
        let mut sink = MetricsRegistry::new();
        prop_assert_eq!(&plan.eval_instrumented(inputs, &mut NullProbe, &mut sink).unwrap(), &plain);
        prop_assert_eq!(sink.counter("kernel.volleys"), 1);
        prop_assert_eq!(sink.counter("kernel.gates"), plan.gate_count() as u64);
        let mut recorder = Recorder::new();
        prop_assert_eq!(&plan.eval_instrumented(inputs, &mut recorder, &mut NullMetrics).unwrap(), &plain);
        // Event for event, the firings `Network::trace` reports.
        prop_assert_eq!(recorder.events(), &trace_events(&network, inputs)[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every walk over a plan's steps equals `Network::eval`: the scalar
    /// path on every volley, and where the plan has a lane bound,
    /// packets of 1–8 volleys on the eight-lane block, one packet of
    /// 9–256 on the 256-lane block and one pre-packed packet of all of
    /// them (junk in the lanes past its end). The scalar path reports
    /// exactly the trace's firings.
    #[test]
    fn every_step_walk_matches_the_network(
        network in arb_step_network(),
        raw_volleys in prop::collection::vec(arb_volley(4), 1..=MAX_PACKET),
        narrow in 1usize..=lane::LANES,
        junk in 0u8..=u8::MAX,
    ) {
        let plan = Plan::from_network(&network);
        let width = network.input_count();
        for raw in &raw_volleys {
            let inputs = &raw[..width];
            prop_assert_eq!(plan.eval(inputs), network.eval(inputs));
            let mut recorder = Recorder::new();
            plan.eval_instrumented(inputs, &mut recorder, &mut NullMetrics).unwrap();
            prop_assert_eq!(recorder.events(), &trace_events(&network, inputs)[..]);
        }
        let Some(limit) = plan.lane_input_limit() else {
            return Ok(());
        };
        let volleys = fitted(&raw_volleys, width, limit);
        prop_assert!(plan.lane_capable(&volleys));
        let mut scratch = Scratch::default();
        let mut packets: Vec<&[Volley]> = volleys.chunks(narrow).collect();
        if volleys.len() > lane::LANES {
            packets.push(&volleys);
        }
        for packet in packets {
            let mut out = vec![Volley::default(); packet.len()];
            plan.eval_packet(&mut scratch, packet, &mut out);
            for (volley, got) in packet.iter().zip(&out) {
                prop_assert_eq!(got.times(), &network.eval(volley.times()).unwrap()[..]);
            }
        }
        let mut inputs = vec![[junk; MAX_PACKET]; width];
        for (j, volley) in volleys.iter().enumerate() {
            for (block, &t) in inputs.iter_mut().zip(volley.times()) {
                block[j] = lane::encode(t).unwrap();
            }
        }
        let mut outputs = vec![[0; MAX_PACKET]; plan.output_width()];
        plan.eval_blocks(&mut scratch, &inputs, &mut outputs);
        for (j, volley) in volleys.iter().enumerate() {
            let lanes: Vec<Time> = outputs.iter().map(|block| lane::decode(block[j])).collect();
            prop_assert_eq!(lanes, network.eval(volley.times()).unwrap(), "lane {}", j);
        }
    }
}

/// Errors (width mismatches) report the same lowest index through the
/// kernel engine as through every other engine, at every thread count.
#[test]
fn kernel_error_reports_lowest_index() {
    let network = srm0_network(&spacetime::neuron::Srm0Neuron::new(
        spacetime::neuron::ResponseFn::step(1),
        vec![
            spacetime::neuron::Synapse::excitatory(1),
            spacetime::neuron::Synapse::excitatory(1),
        ],
        1,
    ));
    let artifact = CompiledArtifact::from_kernel_network(&network);
    let t = Time::finite;
    let mut volleys = vec![Volley::new(vec![t(1), t(2)]); 12];
    volleys[4] = Volley::silent(3);
    volleys[9] = Volley::silent(1);
    for threads in [1usize, 2, 7] {
        let err = BatchEvaluator::with_threads(threads)
            .eval(&artifact, &volleys)
            .unwrap_err();
        assert_eq!(err.index, 4, "threads = {threads}");
    }
    // A failed batch records no metrics and no events.
    let mut sink = MetricsRegistry::new();
    let mut recorder = Recorder::new();
    assert!(BatchEvaluator::with_threads(2)
        .eval_instrumented(
            &artifact,
            &volleys,
            &mut NullProbe,
            &mut sink,
            &mut NullTracer,
            SpanId::NONE
        )
        .is_err());
    assert!(BatchEvaluator::with_threads(2)
        .eval_instrumented(
            &artifact,
            &volleys,
            &mut recorder,
            &mut NullMetrics,
            &mut NullTracer,
            SpanId::NONE
        )
        .is_err());
    assert!(sink.is_empty());
    assert!(recorder.is_empty());
}

/// Regression pin for the saturation bug class: a network whose delays
/// sum past 254 must leave the lane domain entirely — the kernel falls
/// back to its scalar path and reports exactly the scalar engines'
/// finite (not saturated!) outputs, and `∞` stays `∞`.
#[test]
fn saturation_past_254_matches_scalar_engines() {
    let mut b = NetworkBuilder::new();
    let input = b.input();
    let d1 = b.inc(input, 200);
    let d2 = b.inc(d1, 100); // 300 total: past the u8 lane domain
    let network = b.build([d2]);
    let plan = Plan::from_network(&network);
    assert_eq!(
        plan.lane_input_limit(),
        None,
        "a 300-tick delay chain must rule the lane path out"
    );

    let t = Time::finite;
    let volleys = vec![
        Volley::new(vec![t(0)]),
        Volley::new(vec![t(5)]),
        Volley::new(vec![Time::INFINITY]),
        Volley::new(vec![t(254)]),
    ];
    let kernel = CompiledArtifact::Kernel(plan);
    let net = CompiledArtifact::from_network(&network);
    for threads in [1usize, 2, 7] {
        let evaluator = BatchEvaluator::with_threads(threads);
        let via_kernel = evaluator.eval(&kernel, &volleys).unwrap();
        let via_net = evaluator.eval(&net, &volleys).unwrap();
        assert_eq!(via_kernel, via_net, "threads = {threads}");
        // The interesting values really are past the lane domain.
        assert_eq!(via_kernel[0].times(), &[t(300)]);
        assert_eq!(via_kernel[1].times(), &[t(305)]);
        assert_eq!(via_kernel[2].times(), &[Time::INFINITY]);
        assert_eq!(via_kernel[3].times(), &[t(554)]);
    }
}

/// The twin pin just inside the boundary: a plan whose delay slack
/// leaves a small lane budget takes the lane path for batches within it
/// and the scalar path for batches outside it — and both agree with the
/// event sim bit-for-bit.
#[test]
fn lane_budget_boundary_is_exact() {
    let mut b = NetworkBuilder::new();
    let input = b.input();
    let d = b.inc(input, 250);
    let network = b.build([d]);
    let plan = Plan::from_network(&network);
    assert_eq!(plan.lane_input_limit(), Some(4));

    let t = Time::finite;
    let inside = vec![Volley::new(vec![t(4)]); 9];
    let outside = vec![Volley::new(vec![t(4)]), Volley::new(vec![t(5)])];
    assert!(plan.lane_capable(&inside));
    assert!(!plan.lane_capable(&outside));

    let kernel = CompiledArtifact::Kernel(plan);
    let net = CompiledArtifact::from_network(&network);
    let evaluator = BatchEvaluator::with_threads(2);
    for batch in [&inside, &outside] {
        assert_eq!(
            evaluator.eval(&kernel, batch).unwrap(),
            evaluator.eval(&net, batch).unwrap()
        );
    }

    // The lane batch really took the packet path, the other didn't.
    let mut sink = MetricsRegistry::new();
    evaluator
        .eval_instrumented(
            &kernel,
            &inside,
            &mut NullProbe,
            &mut sink,
            &mut NullTracer,
            SpanId::NONE,
        )
        .unwrap();
    assert_eq!(sink.counter("kernel.packets"), 2);
    let mut sink = MetricsRegistry::new();
    evaluator
        .eval_instrumented(
            &kernel,
            &outside,
            &mut NullProbe,
            &mut sink,
            &mut NullTracer,
            SpanId::NONE,
        )
        .unwrap();
    assert_eq!(sink.counter("kernel.packets"), 0);
    assert_eq!(sink.counter("kernel.volleys"), 2);
}
