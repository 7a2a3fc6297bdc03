//! Observability equivalence properties: instrumenting any engine with a
//! live [`Recorder`] produces **bit-identical outputs** to the uninstrumented
//! ([`NullProbe`]) run — across every engine and at 1 and N batch worker
//! threads. This is the zero-perturbation contract of `st-obs`: a probe may
//! watch a computation, never steer it.

mod common;

use common::arbitrary::{arb_neuron, arb_volley};
use proptest::prelude::*;
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::{lane, FunctionTable, Time, Volley};
use spacetime::grl::{compile_network, GrlScratch, GrlSim};
use spacetime::kernel::Plan;
use spacetime::metrics::NullMetrics;
use spacetime::net::EventSim;
use spacetime::neuron::structural::srm0_network;
use spacetime::neuron::Srm0Neuron;
use spacetime::obs::{NullProbe, ObsEvent, Recorder};
use spacetime::tnn::data::PatternDataset;
use spacetime::tnn::train::{fresh_column, train_column, train_column_instrumented, TrainConfig};
use spacetime::tnn::{Column, Inhibition};
use spacetime::trace::NullTracer;

/// One batch call of the batch properties: an artifact, the volleys it
/// runs on, and whether the call takes the SWAR packet path.
struct BatchCase {
    artifact: CompiledArtifact,
    volleys: Vec<Volley>,
    swar: bool,
}

/// The drawn volleys cut to the neuron's width.
fn neuron_volleys(neuron: &Srm0Neuron, raw: &[Vec<Time>]) -> Vec<Volley> {
    let width = neuron.synapses().len();
    raw.iter()
        .map(|v| Volley::new(v[..width].to_vec()))
        .collect()
}

/// All five artifact kinds built from one neuron, each on `volleys`, and
/// the kernel plan once more on the same batch with one spike moved past
/// the plan's lane bound, so the scalar fallback runs as well.
fn batch_cases(neuron: &Srm0Neuron, volleys: &[Volley]) -> Vec<BatchCase> {
    let network = srm0_network(neuron);
    let plan = Plan::from_network(&network);
    let past = plan.lane_input_limit().map_or(300, |limit| limit + 1);
    let mut beyond = volleys.to_vec();
    let mid = beyond.len() / 2;
    let mut times = beyond[mid].times().to_vec();
    times[0] = Time::finite(past);
    beyond[mid] = Volley::new(times);
    assert!(!plan.lane_capable(&beyond));
    let table = FunctionTable::from_fn(neuron, 3).expect("a neuron has inputs");
    let column = Column::new(vec![neuron.clone()], Inhibition::one_wta());
    let scalar = |artifact| BatchCase {
        artifact,
        volleys: volleys.to_vec(),
        swar: false,
    };
    vec![
        scalar(CompiledArtifact::from_table(&table)),
        scalar(CompiledArtifact::from_network(&network)),
        scalar(CompiledArtifact::from(column)),
        scalar(CompiledArtifact::from_grl_network(&network)),
        BatchCase {
            artifact: CompiledArtifact::Kernel(plan.clone()),
            volleys: volleys.to_vec(),
            swar: plan.lane_capable(volleys),
        },
        BatchCase {
            artifact: CompiledArtifact::Kernel(plan),
            volleys: beyond,
            swar: false,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Event-driven network simulation: the probed run returns the same
    /// report as the plain run, and records one gate firing per event the
    /// report counts.
    #[test]
    fn net_probed_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let compiled = EventSim::new().compile(&srm0_network(&neuron));
        let plain = compiled.run(inputs).unwrap();
        let mut recorder = Recorder::new();
        let probed = compiled.run_instrumented(inputs, &mut recorder, &mut NullMetrics).unwrap();
        prop_assert_eq!(&probed, &plain);
        prop_assert_eq!(recorder.len(), plain.total_events);
    }

    /// Cycle-accurate GRL simulation: probed ≡ plain, and the recorded
    /// wire falls are exactly the report's eval transitions.
    #[test]
    fn grl_probed_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let netlist = compile_network(&srm0_network(&neuron));
        let sim = GrlSim::new();
        let plain = sim.run(&netlist, inputs).unwrap();
        let mut recorder = Recorder::new();
        let probed = sim.run_instrumented(&netlist, inputs, &mut GrlScratch::default(), &mut recorder, &mut NullMetrics).unwrap();
        prop_assert_eq!(&probed, &plain);
        let falls = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::WireFell { .. }))
            .count();
        prop_assert_eq!(falls, plain.eval_transitions);
    }

    /// Behavioral SRM0 evaluation: probed ≡ plain, and a spike event is
    /// recorded iff the neuron fires.
    #[test]
    fn srm0_probed_eval_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let plain = neuron.eval(inputs);
        let mut recorder = Recorder::new();
        let probed = neuron.eval_instrumented(inputs, 0, &mut recorder, &mut NullMetrics);
        prop_assert_eq!(probed, plain);
        let spiked = recorder.events().iter().any(ObsEvent::is_spike);
        prop_assert_eq!(spiked, plain.is_finite());
    }

    /// Column evaluation (SRM0 + WTA): probed ≡ plain.
    #[test]
    fn column_probed_eval_is_identical(
        neurons in prop::collection::vec(arb_neuron(), 2..4),
        inputs in arb_volley(3),
    ) {
        let width = neurons.iter().map(|n| n.synapses().len()).min().unwrap();
        let neurons: Vec<Srm0Neuron> = neurons
            .into_iter()
            .map(|n| Srm0Neuron::new(
                n.unit_response().clone(),
                n.synapses()[..width].to_vec(),
                n.threshold(),
            ))
            .collect();
        let column = Column::new(neurons, Inhibition::one_wta());
        let volley = Volley::new(inputs[..width].to_vec());
        let plain = column.eval(&volley);
        let mut recorder = Recorder::new();
        let probed = column.eval_instrumented(&volley, &mut recorder, &mut NullMetrics);
        prop_assert_eq!(probed, plain);
        // Exactly one WTA decision per evaluation.
        let decisions = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::WtaDecision { .. }))
            .count();
        prop_assert_eq!(decisions, 1);
    }

    /// The batch engine at 1 and N threads, on every artifact kind and on
    /// both kernel paths: a live recorder never changes any output
    /// volley, every volley is timed once in index order, and the chunk
    /// timings cover the batch in contiguous ranges in worker order —
    /// packet-aligned on the SWAR path.
    #[test]
    fn batch_probed_eval_is_identical_across_thread_counts(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 2usize..8,
    ) {
        let volleys = neuron_volleys(&neuron, &raw_volleys);
        for case in batch_cases(&neuron, &volleys) {
            let (artifact, volleys) = (&case.artifact, &case.volleys);
            let plain = BatchEvaluator::with_threads(1)
                .eval(artifact, volleys)
                .unwrap();
            for workers in [1, threads] {
                let mut recorder = Recorder::new();
                let probed = BatchEvaluator::with_threads(workers)
                    .eval_instrumented(
                        artifact,
                        volleys,
                        &mut recorder,
                        &mut NullMetrics,
                        &mut NullTracer,
                        SpanId::NONE,
                    )
                    .unwrap();
                prop_assert_eq!(&probed, &plain, "workers = {}", workers);
                let timed: Vec<usize> = recorder
                    .events()
                    .iter()
                    .filter_map(|e| match *e {
                        ObsEvent::VolleyTimed { index, .. } => Some(index),
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(timed, (0..volleys.len()).collect::<Vec<_>>());
                let chunks: Vec<(usize, usize, usize)> = recorder
                    .events()
                    .iter()
                    .filter_map(|e| match *e {
                        ObsEvent::ChunkTiming { worker, start, len, .. } => {
                            Some((worker, start, len))
                        }
                        _ => None,
                    })
                    .collect();
                let mut next = 0;
                for (position, &(worker, start, len)) in chunks.iter().enumerate() {
                    prop_assert_eq!(worker, position, "workers = {}", workers);
                    prop_assert_eq!(start, next, "workers = {}", workers);
                    let last = position + 1 == chunks.len();
                    prop_assert!(
                        !case.swar || last || len % lane::LANES == 0,
                        "workers = {}: SWAR chunk of {} volleys", workers, len
                    );
                    next = start + len;
                }
                prop_assert_eq!(next, volleys.len(), "workers = {}", workers);
            }
        }
    }
}

/// STDP training with a live recorder is bit-identical to plain training —
/// same report, same trained weights, same thresholds — because the probe
/// never touches the tie-breaking RNG.
#[test]
fn probed_training_is_bit_identical() {
    for seed in 0..4u64 {
        let mut ds = PatternDataset::new(3, 16, 7, 1, 0.2, seed);
        let config = TrainConfig {
            seed: seed.wrapping_mul(31),
            ..TrainConfig::default()
        };
        let stream = ds.stream(150, 0.85);

        let mut plain = fresh_column(3, 16, 0.25, &config);
        let plain_report = train_column(&mut plain, &stream, &config);

        let mut probed = fresh_column(3, 16, 0.25, &config);
        let mut recorder = Recorder::new();
        let probed_report = train_column_instrumented(
            &mut probed,
            &stream,
            &config,
            &mut recorder,
            &mut NullMetrics,
        );

        assert_eq!(probed_report, plain_report, "seed {seed}");
        for (a, b) in plain.neurons().iter().zip(probed.neurons()) {
            assert_eq!(a.synapses(), b.synapses(), "seed {seed}");
            assert_eq!(a.threshold(), b.threshold(), "seed {seed}");
        }
        assert_eq!(
            recorder
                .events()
                .iter()
                .filter(|e| matches!(e, ObsEvent::WeightDelta { .. }))
                .count(),
            plain_report.weight_changes,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------------
// The same contract for st-metrics: a live MetricsRegistry never changes any
// output — across all four engines, training, and the batch evaluator at
// every thread count (where the engine counters must also be thread-count
// invariant).

use spacetime::metrics::MetricsRegistry;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Event-driven network simulation: metered ≡ plain, and the firing
    /// counter matches the report.
    #[test]
    fn net_metered_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let compiled = EventSim::new().compile(&srm0_network(&neuron));
        let plain = compiled.run(inputs).unwrap();
        let mut registry = MetricsRegistry::new();
        let metered = compiled.run_instrumented(inputs, &mut NullProbe, &mut registry).unwrap();
        prop_assert_eq!(&metered, &plain);
        prop_assert_eq!(registry.counter("net.runs"), 1);
        prop_assert_eq!(registry.counter("net.gate_firings"), plain.total_events as u64);
    }

    /// Cycle-accurate GRL simulation: metered ≡ plain, and the transition
    /// counter is exactly the report's eval transitions.
    #[test]
    fn grl_metered_run_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let netlist = compile_network(&srm0_network(&neuron));
        let sim = GrlSim::new();
        let plain = sim.run(&netlist, inputs).unwrap();
        let mut registry = MetricsRegistry::new();
        let metered = sim.run_instrumented(&netlist, inputs, &mut GrlScratch::default(), &mut NullProbe, &mut registry).unwrap();
        prop_assert_eq!(&metered, &plain);
        prop_assert_eq!(
            registry.counter("grl.wire_transitions"),
            plain.eval_transitions as u64
        );
    }

    /// Behavioral SRM0 evaluation: metered ≡ plain, and the spike counter
    /// fires iff the neuron does.
    #[test]
    fn srm0_metered_eval_is_identical(
        neuron in arb_neuron(),
        inputs in arb_volley(3),
    ) {
        let width = neuron.synapses().len();
        let inputs = &inputs[..width];
        let plain = neuron.eval(inputs);
        let mut registry = MetricsRegistry::new();
        let metered = neuron.eval_instrumented(inputs, 0, &mut NullProbe, &mut registry);
        prop_assert_eq!(metered, plain);
        prop_assert_eq!(registry.counter("srm0.spikes"), u64::from(plain.is_finite()));
    }

    /// Column evaluation (SRM0 + WTA): metered ≡ plain, and exactly one
    /// decision counter ticks per volley.
    #[test]
    fn column_metered_eval_is_identical(
        neurons in prop::collection::vec(arb_neuron(), 2..4),
        inputs in arb_volley(3),
    ) {
        let width = neurons.iter().map(|n| n.synapses().len()).min().unwrap();
        let neurons: Vec<Srm0Neuron> = neurons
            .into_iter()
            .map(|n| Srm0Neuron::new(
                n.unit_response().clone(),
                n.synapses()[..width].to_vec(),
                n.threshold(),
            ))
            .collect();
        let column = Column::new(neurons, Inhibition::one_wta());
        let volley = Volley::new(inputs[..width].to_vec());
        let plain = column.eval(&volley);
        let mut registry = MetricsRegistry::new();
        let metered = column.eval_instrumented(&volley, &mut NullProbe, &mut registry);
        prop_assert_eq!(metered, plain);
        prop_assert_eq!(
            registry.counter("tnn.wta_decisions") + registry.counter("tnn.silent_decisions"),
            1
        );
    }

    /// The batch engine, on every artifact kind and on both kernel paths:
    /// a live metrics sink never changes any output volley, the packet
    /// counter counts SWAR packets only, and the engine counters
    /// (everything except the chunking-dependent `batch.chunks`) are
    /// identical at every thread count — the deterministic-merge
    /// contract.
    #[test]
    fn batch_metered_eval_is_identical_across_thread_counts(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 2usize..8,
    ) {
        let volleys = neuron_volleys(&neuron, &raw_volleys);
        for case in batch_cases(&neuron, &volleys) {
            let (artifact, volleys) = (&case.artifact, &case.volleys);
            let plain = BatchEvaluator::with_threads(1)
                .eval(artifact, volleys)
                .unwrap();
            let mut baseline: Option<Vec<(&'static str, u64)>> = None;
            for workers in [1, threads] {
                let mut registry = MetricsRegistry::new();
                let metered = BatchEvaluator::with_threads(workers)
                    .eval_instrumented(
                        artifact,
                        volleys,
                        &mut NullProbe,
                        &mut registry,
                        &mut NullTracer,
                        SpanId::NONE,
                    )
                    .unwrap();
                prop_assert_eq!(&metered, &plain, "workers = {}", workers);
                prop_assert_eq!(registry.counter("batch.volleys"), volleys.len() as u64);
                let packets = if case.swar { volleys.len().div_ceil(lane::LANES) } else { 0 };
                prop_assert_eq!(registry.counter("kernel.packets"), packets as u64);
                let counters: Vec<(&'static str, u64)> = registry
                    .counters()
                    .filter(|(name, _)| *name != "batch.chunks")
                    .collect();
                match &baseline {
                    None => baseline = Some(counters),
                    Some(expected) => prop_assert_eq!(
                        &counters, expected, "workers = {}", workers
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The same contract a third time for st-trace: a live span tracer never
// changes any output volley, every trace is structurally well-formed (all
// spans closed, parents enclose children), and the span profile — every name
// except the chunking-dependent `batch.chunk` — is identical at every thread
// count.

use spacetime::trace::{span_counts, well_formed, SpanId, TraceBuffer, Tracer};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batch engine under the span profiler, on every artifact kind
    /// and on both kernel paths at 1 and N worker threads: traced ≡
    /// plain; the trace passes the structural invariants; a call's
    /// `batch.chunk` spans sit on the calling thread (`tid` 0) exactly
    /// when it ran one chunk, and on distinct worker threads otherwise;
    /// `kernel.packet` spans count the SWAR packets (none on the scalar
    /// fallback); and per-name span counts are thread-count invariant
    /// except `batch.chunk` (which mirrors the `batch.chunks` metric).
    #[test]
    fn batch_traced_eval_is_identical_across_thread_counts(
        neuron in arb_neuron(),
        raw_volleys in prop::collection::vec(arb_volley(3), 1..24),
        threads in 2usize..8,
    ) {
        let volleys = neuron_volleys(&neuron, &raw_volleys);
        for case in batch_cases(&neuron, &volleys) {
            let (artifact, volleys) = (&case.artifact, &case.volleys);
            let plain = BatchEvaluator::with_threads(1)
                .eval(artifact, volleys)
                .unwrap();
            let mut baseline: Option<Vec<(&'static str, u64)>> = None;
            for workers in [1, threads] {
                let mut tracer = TraceBuffer::new();
                let stage = tracer.begin("batch.eval", SpanId::NONE);
                let traced = BatchEvaluator::with_threads(workers)
                    .eval_instrumented(
                        artifact,
                        volleys,
                        &mut NullProbe,
                        &mut NullMetrics,
                        &mut tracer,
                        stage,
                    )
                    .unwrap();
                tracer.end(stage);
                prop_assert_eq!(&traced, &plain, "workers = {}", workers);

                let records = tracer.into_records();
                // Every opened span closed, ids unique, parent edges
                // resolvable, children enclosed by their parents.
                if let Err(violation) = well_formed(&records) {
                    return Err(TestCaseError::fail(
                        format!("workers = {workers}: {violation}")
                    ));
                }
                // Every chunk (and through it every packet) nests under
                // the dispatching stage span.
                let chunks: Vec<_> = records.iter().filter(|r| r.name == "batch.chunk").collect();
                prop_assert!(chunks.iter().all(|r| r.parent == stage), "workers = {}", workers);
                let mut tids: Vec<u32> = chunks.iter().map(|r| r.tid).collect();
                if workers == 1 || tids.len() == 1 {
                    prop_assert_eq!(&tids, &vec![0], "workers = {}", workers);
                } else {
                    tids.sort_unstable();
                    tids.dedup();
                    prop_assert_eq!(tids.len(), chunks.len(), "workers = {}", workers);
                    prop_assert!(!tids.contains(&0), "workers = {}", workers);
                }
                let packets = records.iter().filter(|r| r.name == "kernel.packet").count();
                let expected = if case.swar { volleys.len().div_ceil(lane::LANES) } else { 0 };
                prop_assert_eq!(packets, expected, "workers = {}", workers);
                let counts: Vec<(&'static str, u64)> = span_counts(&records)
                    .into_iter()
                    .filter(|(name, _)| *name != "batch.chunk")
                    .collect();
                match &baseline {
                    None => baseline = Some(counts),
                    Some(expected) => prop_assert_eq!(
                        &counts, expected, "workers = {}", workers
                    ),
                }
            }
        }
    }

    /// A failed batch records no trace at any thread count, on the
    /// network, column and kernel engines: every span opened inside the
    /// evaluator is truncated away, leaving only the caller's own stage
    /// span.
    #[test]
    fn failed_batch_traces_nothing(
        neuron in arb_neuron(),
        threads in 1usize..6,
    ) {
        let width = neuron.synapses().len();
        let network = srm0_network(&neuron);
        // One good volley, then one with the wrong width.
        let volleys = vec![
            Volley::new(vec![Time::ZERO; width]),
            Volley::new(vec![Time::ZERO; width + 1]),
        ];
        for artifact in [
            CompiledArtifact::from_network(&network),
            CompiledArtifact::from(Column::new(vec![neuron.clone()], Inhibition::one_wta())),
            CompiledArtifact::from_kernel_network(&network),
        ] {
            let mut tracer = TraceBuffer::new();
            let stage = tracer.begin("batch.eval", SpanId::NONE);
            let error = BatchEvaluator::with_threads(threads)
                .eval_instrumented(
                    &artifact,
                    &volleys,
                    &mut NullProbe,
                    &mut NullMetrics,
                    &mut tracer,
                    stage,
                )
                .unwrap_err();
            prop_assert_eq!(error.index, 1);
            tracer.end(stage);
            let records = tracer.into_records();
            prop_assert_eq!(records.len(), 1);
            prop_assert_eq!(records[0].name, "batch.eval");
        }
    }
}

/// STDP training with a live metrics sink is bit-identical to plain
/// training, and the stdp.* counters mirror the report.
#[test]
fn metered_training_is_bit_identical() {
    for seed in 0..4u64 {
        let mut ds = PatternDataset::new(3, 16, 7, 1, 0.2, seed);
        let config = TrainConfig {
            seed: seed.wrapping_mul(31),
            ..TrainConfig::default()
        };
        let stream = ds.stream(150, 0.85);

        let mut plain = fresh_column(3, 16, 0.25, &config);
        let plain_report = train_column(&mut plain, &stream, &config);

        let mut metered = fresh_column(3, 16, 0.25, &config);
        let mut registry = MetricsRegistry::new();
        let metered_report = train_column_instrumented(
            &mut metered,
            &stream,
            &config,
            &mut NullProbe,
            &mut registry,
        );

        assert_eq!(metered_report, plain_report, "seed {seed}");
        for (a, b) in plain.neurons().iter().zip(metered.neurons()) {
            assert_eq!(a.synapses(), b.synapses(), "seed {seed}");
            assert_eq!(a.threshold(), b.threshold(), "seed {seed}");
        }
        assert_eq!(
            registry.counter("stdp.presentations"),
            plain_report.presentations as u64,
            "seed {seed}"
        );
        assert_eq!(
            registry.counter("stdp.weight_deltas"),
            plain_report.weight_changes as u64,
            "seed {seed}"
        );
    }
}
