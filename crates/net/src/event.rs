//! Discrete-event evaluation of space-time networks.
//!
//! Where [`crate::graph::Network::eval`] computes output times in one
//! functional pass, [`EventSim`] *plays the computation out in time*: a
//! single wave of spikes sweeps through the network (the paper's § III.B),
//! each gate fires at most once, and the simulator observes every firing.
//! This yields, in addition to the output times, the paper's key
//! efficiency statistic — how many events (spikes / level transitions)
//! each computation actually expends — which underpins the
//! minimal-transition energy argument of § VI.
//!
//! The two evaluators are algebraically equivalent; the test suites
//! cross-check them on hand-built and randomly generated networks.
//!
//! # Simultaneity
//!
//! Ties matter: `lt(a, b)` must not fire when `a` and `b` arrive at the
//! same instant, even when one of them arrives through a zero-delay path.
//! The simulator resolves this by processing pending evaluations in
//! lexicographic `(time, gate)` order. Builders only ever wire a gate to
//! earlier-created gates, so at equal times every source of a gate is
//! evaluated before the gate itself — simultaneous arrivals are always
//! visible to the firing decision.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use st_core::{CoreError, Time, Volley};
use st_metrics::{MetricSink, NullMetrics};
use st_obs::{NullProbe, ObsEvent, Probe};

use crate::graph::{GateKind, Network};

/// The observability label for a gate kind.
fn op_name(kind: GateKind) -> &'static str {
    match kind {
        GateKind::Input(_) => "input",
        GateKind::Const(_) => "const",
        GateKind::Inc(_) => "inc",
        GateKind::Min => "min",
        GateKind::Max => "max",
        GateKind::Lt => "lt",
    }
}

/// Result of an event-driven run: per-output times plus activity counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventReport {
    /// Event time on each output line (same as `Network::eval`).
    pub outputs: Vec<Time>,
    /// Firing time of every gate, indexed by [`crate::GateId::index`];
    /// `∞` for gates that never fired.
    pub firings: Vec<Time>,
    /// Total number of gate firings (spikes) during the computation,
    /// including input and constant events.
    pub total_events: usize,
    /// Firings on non-source gates only (excludes inputs and constants):
    /// the work the network itself performed.
    pub internal_events: usize,
}

impl EventReport {
    /// Fraction of gates that fired at all — the activity factor that the
    /// paper's sparse-coding energy argument (§ VI) aims to minimize.
    #[must_use]
    pub fn activity_factor(&self) -> f64 {
        if self.firings.is_empty() {
            0.0
        } else {
            self.total_events as f64 / self.firings.len() as f64
        }
    }
}

/// Event-driven simulator for [`Network`]s.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventSim;

impl EventSim {
    /// Creates a simulator.
    #[must_use]
    pub fn new() -> EventSim {
        EventSim
    }

    /// Plays the computation out in time and reports outputs + activity.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn run(&self, network: &Network, inputs: &[Time]) -> Result<EventReport, CoreError> {
        self.compile(network).run(inputs)
    }

    /// Extracts the network's topology into a [`CompiledNetwork`] so that
    /// repeated runs skip the per-run gate walk — the compile-once half of
    /// the batched engine's compile-once/evaluate-many contract.
    #[must_use]
    pub fn compile(&self, network: &Network) -> CompiledNetwork {
        let n = network.gate_count();
        let mut kinds: Vec<GateKind> = Vec::with_capacity(n);
        let mut sources: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, kind) in network.iter_gates() {
            let srcs = network.sources(id).expect("id from iter_gates");
            for &s in srcs {
                fanout[s.index()].push(id.index());
            }
            kinds.push(kind);
            sources.push(srcs.iter().map(|s| s.index()).collect());
        }
        CompiledNetwork {
            input_count: network.input_count(),
            outputs: network.outputs().iter().map(|o| o.index()).collect(),
            kinds,
            sources,
            fanout,
        }
    }

    /// Runs one input volley per entry of `volleys`, compiling the network
    /// once up front.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] for the first (lowest-index)
    /// volley whose width differs from the network's input count.
    pub fn run_batch(
        &self,
        network: &Network,
        volleys: &[Volley],
    ) -> Result<Vec<EventReport>, CoreError> {
        let compiled = self.compile(network);
        volleys.iter().map(|v| compiled.run(v.times())).collect()
    }
}

/// A [`Network`] with its topology (kinds, sources, fanout) extracted for
/// evaluate-many workloads. Immutable and cheap to share across threads.
///
/// Built with [`EventSim::compile`]; [`CompiledNetwork::run`] produces the
/// same [`EventReport`] as [`EventSim::run`] on the source network.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    input_count: usize,
    outputs: Vec<usize>,
    kinds: Vec<GateKind>,
    sources: Vec<Vec<usize>>,
    fanout: Vec<Vec<usize>>,
}

impl CompiledNetwork {
    /// The number of input lines.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The number of output lines.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The number of gates in the source network.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Plays one computation out in time, bit-identically to
    /// [`EventSim::run`] on the source network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn run(&self, inputs: &[Time]) -> Result<EventReport, CoreError> {
        self.run_instrumented(inputs, &mut NullProbe, &mut NullMetrics)
    }

    /// [`CompiledNetwork::run`] with a probe and a metric sink: every
    /// gate firing (inputs and constants included) is reported as an
    /// [`ObsEvent::GateFired`], and the sink accumulates the `net.*`
    /// counters (gate evaluations, firings, queue pushes/pops) and the
    /// `net.queue_peak_depth` histogram. With [`NullProbe`] and
    /// [`NullMetrics`] this compiles to exactly [`CompiledNetwork::run`];
    /// results are identical for any instruments.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the network's input count.
    pub fn run_instrumented<P: Probe, M: MetricSink>(
        &self,
        inputs: &[Time],
        probe: &mut P,
        sink: &mut M,
    ) -> Result<EventReport, CoreError> {
        if inputs.len() != self.input_count {
            return Err(CoreError::ArityMismatch {
                expected: self.input_count,
                actual: inputs.len(),
            });
        }
        let n = self.kinds.len();
        let kinds = &self.kinds;
        let sources = &self.sources;
        let fanout = &self.fanout;

        let mut fired: Vec<Time> = vec![Time::INFINITY; n];
        let mut total_events = 0usize;
        let mut internal_events = 0usize;
        // Pending "evaluate gate at time" tokens, popped in (time, gate)
        // order. Duplicate tokens are harmless (re-evaluation is
        // idempotent once a gate has fired).
        let mut queue: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
        // Metric bookkeeping is guarded by one hoisted liveness bool; with
        // a dead sink every branch below constant-folds away.
        let metered = sink.is_live();
        let mut queue_pushes = 0u64;
        let mut queue_pops = 0u64;
        let mut gate_evals = 0u64;
        let mut peak_depth = 0usize;

        // Seed: inputs and constants fire unconditionally at their times.
        for (i, kind) in kinds.iter().enumerate() {
            let at = match *kind {
                GateKind::Input(p) => inputs[p],
                GateKind::Const(t) => t,
                _ => continue,
            };
            if at.is_finite() {
                fired[i] = at;
                total_events += 1;
                if probe.is_enabled() {
                    probe.record(ObsEvent::GateFired {
                        gate: i,
                        op: op_name(*kind),
                        at,
                    });
                }
                for &consumer in &fanout[i] {
                    let due = match kinds[consumer] {
                        GateKind::Inc(c) => at + c,
                        _ => at,
                    };
                    queue.push(Reverse((due, consumer)));
                    if metered {
                        queue_pushes += 1;
                        peak_depth = peak_depth.max(queue.len());
                    }
                }
            }
        }

        while let Some(Reverse((now, gate))) = queue.pop() {
            if metered {
                queue_pops += 1;
            }
            if fired[gate].is_finite() {
                continue;
            }
            if metered {
                gate_evals += 1;
            }
            let decision: Option<Time> = match kinds[gate] {
                GateKind::Input(_) | GateKind::Const(_) => None,
                GateKind::Inc(_) => Some(now),
                GateKind::Min => Some(now),
                GateKind::Max => {
                    let times: Vec<Time> = sources[gate].iter().map(|&s| fired[s]).collect();
                    if times.iter().all(|t| t.is_finite()) {
                        Some(Time::max_of(times))
                    } else {
                        None
                    }
                }
                GateKind::Lt => {
                    let a = fired[sources[gate][0]];
                    let b = fired[sources[gate][1]];
                    (a.is_finite() && a < b).then_some(a)
                }
            };
            if let Some(at) = decision {
                debug_assert!(at >= now || matches!(kinds[gate], GateKind::Max));
                fired[gate] = at;
                total_events += 1;
                internal_events += 1;
                if probe.is_enabled() {
                    probe.record(ObsEvent::GateFired {
                        gate,
                        op: op_name(kinds[gate]),
                        at,
                    });
                }
                for &consumer in &fanout[gate] {
                    let due = match kinds[consumer] {
                        GateKind::Inc(c) => at + c,
                        _ => at,
                    };
                    queue.push(Reverse((due, consumer)));
                    if metered {
                        queue_pushes += 1;
                        peak_depth = peak_depth.max(queue.len());
                    }
                }
            }
        }

        if metered {
            sink.incr("net.runs", 1);
            sink.incr("net.gate_evals", gate_evals);
            sink.incr("net.gate_firings", total_events as u64);
            sink.incr("net.queue_pushes", queue_pushes);
            sink.incr("net.queue_pops", queue_pops);
            sink.observe("net.queue_peak_depth", peak_depth as u64);
        }
        let outputs = self.outputs.iter().map(|&o| fired[o]).collect();
        Ok(EventReport {
            outputs,
            firings: fired,
            total_events,
            internal_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Network, NetworkBuilder};

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn fig6() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let a1 = b.inc(a, 1);
        let m = b.min([a1, x]).unwrap();
        let y = b.lt(m, c);
        b.build([y])
    }

    #[test]
    fn matches_functional_eval_on_fig6() {
        let net = fig6();
        let sim = EventSim::new();
        for inputs in st_core::enumerate_inputs(3, 4) {
            let functional = net.eval(&inputs).unwrap();
            let report = sim.run(&net, &inputs).unwrap();
            assert_eq!(report.outputs, functional, "at {inputs:?}");
        }
    }

    #[test]
    fn activity_counts_firing_gates_only() {
        let net = fig6();
        let sim = EventSim::new();
        // All three inputs spike; inc, min fire; lt fires (1 < 2).
        let report = sim.run(&net, &[t(0), t(3), t(2)]).unwrap();
        assert_eq!(report.total_events, 6);
        assert_eq!(report.internal_events, 3);
        assert!((report.activity_factor() - 1.0).abs() < 1e-12);
        // A silent input volley produces zero events anywhere.
        let report = sim.run(&net, &[Time::INFINITY; 3]).unwrap();
        assert_eq!(report.total_events, 0);
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        // Sparse volley: only input 1 spikes → min fires, lt uninhibited
        // (c = ∞) so it fires too.
        let report = sim
            .run(&net, &[Time::INFINITY, t(3), Time::INFINITY])
            .unwrap();
        assert_eq!(report.outputs, vec![t(3)]);
        assert_eq!(report.total_events, 3); // input1, min, lt
    }

    #[test]
    fn lt_tie_does_not_fire() {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let c = b.input();
        let y = b.lt(a, c);
        let net = b.build([y]);
        let sim = EventSim::new();
        assert_eq!(
            sim.run(&net, &[t(2), t(2)]).unwrap().outputs,
            vec![Time::INFINITY]
        );
        assert_eq!(sim.run(&net, &[t(2), t(3)]).unwrap().outputs, vec![t(2)]);
        assert_eq!(
            sim.run(&net, &[t(3), t(2)]).unwrap().outputs,
            vec![Time::INFINITY]
        );
    }

    #[test]
    fn zero_delay_tie_is_resolved_correctly() {
        // lt(x, inc0(x)) must not fire: both events are simultaneous even
        // though one arrives through a gate.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let same = b.inc(x, 0);
        let y = b.lt(x, same);
        let net = b.build([y]);
        let report = EventSim::new().run(&net, &[t(3)]).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        assert_eq!(report.outputs, net.eval(&[t(3)]).unwrap());
    }

    #[test]
    fn max_waits_for_all_sources() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(3);
        let mx = b.max(ins).unwrap();
        let net = b.build([mx]);
        let sim = EventSim::new();
        let report = sim.run(&net, &[t(1), t(5), t(3)]).unwrap();
        assert_eq!(report.outputs, vec![t(5)]);
        // If one source never fires, max never fires.
        let report = sim.run(&net, &[t(1), Time::INFINITY, t(3)]).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY]);
        assert_eq!(report.total_events, 2);
    }

    #[test]
    fn firings_expose_waveform() {
        let net = fig6();
        let report = EventSim::new().run(&net, &[t(0), t(3), t(2)]).unwrap();
        assert_eq!(report.firings, net.trace(&[t(0), t(3), t(2)]).unwrap());
    }

    #[test]
    fn constants_seed_events() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let zero = b.constant(Time::ZERO);
        let never = b.constant(Time::INFINITY);
        let gated_off = b.lt(x, zero); // always ∞
        let gated_on = b.lt(x, never); // passes x
        let net = b.build([gated_off, gated_on]);
        let report = EventSim::new().run(&net, &[t(4)]).unwrap();
        assert_eq!(report.outputs, vec![Time::INFINITY, t(4)]);
        // Events: input, const-zero, gated_on.
        assert_eq!(report.total_events, 3);
    }

    #[test]
    fn arity_is_checked() {
        let net = fig6();
        assert!(EventSim::new().run(&net, &[t(0)]).is_err());
    }

    #[test]
    fn compiled_network_matches_run() {
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        assert_eq!(compiled.input_count(), 3);
        assert_eq!(compiled.output_count(), 1);
        assert_eq!(compiled.gate_count(), net.gate_count());
        for inputs in st_core::enumerate_inputs(3, 3) {
            assert_eq!(
                compiled.run(&inputs).unwrap(),
                EventSim::new().run(&net, &inputs).unwrap(),
                "at {inputs:?}"
            );
        }
        assert!(compiled.run(&[t(0)]).is_err());
    }

    #[test]
    fn run_batch_matches_per_volley_runs() {
        let net = fig6();
        let sim = EventSim::new();
        let volleys: Vec<st_core::Volley> = st_core::enumerate_inputs(3, 2)
            .map(st_core::Volley::new)
            .collect();
        let reports = sim.run_batch(&net, &volleys).unwrap();
        assert_eq!(reports.len(), volleys.len());
        for (v, report) in volleys.iter().zip(&reports) {
            assert_eq!(*report, sim.run(&net, v.times()).unwrap());
        }
        // A bad volley anywhere fails the whole batch.
        let bad = vec![st_core::Volley::new(vec![t(0), t(1)])];
        assert!(sim.run_batch(&net, &bad).is_err());
    }

    #[test]
    fn probed_run_records_every_firing_without_perturbing_results() {
        use st_obs::Recorder;
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        for inputs in st_core::enumerate_inputs(3, 3) {
            let mut recorder = Recorder::new();
            let probed = compiled
                .run_instrumented(&inputs, &mut recorder, &mut NullMetrics)
                .unwrap();
            let plain = compiled.run(&inputs).unwrap();
            assert_eq!(probed, plain, "at {inputs:?}");
            // One GateFired event per firing, times matching the report.
            assert_eq!(recorder.len(), plain.total_events, "at {inputs:?}");
            for event in recorder.events() {
                let st_obs::ObsEvent::GateFired { gate, at, .. } = *event else {
                    panic!("unexpected event {event:?}");
                };
                assert_eq!(plain.firings[gate], at);
            }
        }
        // Ops are labelled by kind.
        let mut recorder = Recorder::new();
        let _ = compiled
            .run_instrumented(&[t(0), t(3), t(2)], &mut recorder, &mut NullMetrics)
            .unwrap();
        let ops: Vec<&str> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                st_obs::ObsEvent::GateFired { op, .. } => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["input", "input", "input", "inc", "min", "lt"]);
    }

    #[test]
    fn metered_run_counts_activity_without_perturbing_results() {
        use st_metrics::{MetricSink, MetricsRegistry};
        let net = fig6();
        let compiled = EventSim::new().compile(&net);
        let mut sink = MetricsRegistry::new();
        let mut runs = 0u64;
        for inputs in st_core::enumerate_inputs(3, 3) {
            let metered = compiled
                .run_instrumented(&inputs, &mut NullProbe, &mut sink)
                .unwrap();
            assert_eq!(metered, compiled.run(&inputs).unwrap(), "at {inputs:?}");
            runs += 1;
        }
        assert_eq!(sink.counter("net.runs"), runs);
        assert!(sink.counter("net.gate_firings") > 0);
        assert!(sink.counter("net.queue_pushes") >= sink.counter("net.gate_evals"));
        assert_eq!(
            sink.counter("net.queue_pops"),
            sink.counter("net.queue_pushes")
        );
        let depth = sink.histogram("net.queue_peak_depth").unwrap();
        assert_eq!(depth.count(), runs);
        // A single all-finite volley: 3 seeds + 3 internal firings, and
        // every push is eventually popped.
        let mut one = MetricsRegistry::new();
        let report = compiled
            .run_instrumented(&[t(0), t(3), t(2)], &mut NullProbe, &mut one)
            .unwrap();
        assert_eq!(report.total_events, 6);
        assert_eq!(one.counter("net.gate_firings"), 6);
        assert_eq!(one.counter("net.runs"), 1);
        // The sink never influences results even when pre-populated.
        one.incr("net.gate_firings", 1000);
        let again = compiled
            .run_instrumented(&[t(0), t(3), t(2)], &mut NullProbe, &mut one)
            .unwrap();
        assert_eq!(again, report);
    }

    #[test]
    fn inc_chains_delay_events() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 2);
        let d2 = b.inc(d1, 3);
        let net = b.build([d2]);
        let report = EventSim::new().run(&net, &[t(1)]).unwrap();
        assert_eq!(report.outputs, vec![t(6)]);
        assert_eq!(report.firings, vec![t(1), t(3), t(6)]);
    }

    #[test]
    fn diamond_with_unequal_delays() {
        // x splits into a fast and a slow path that reconverge at lt:
        // fast = x+1, slow = x+4; lt(fast, slow) = x+1.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let fast = b.inc(x, 1);
        let slow = b.inc(x, 4);
        let y = b.lt(fast, slow);
        let net = b.build([y]);
        let report = EventSim::new().run(&net, &[t(10)]).unwrap();
        assert_eq!(report.outputs, vec![t(11)]);
        assert_eq!(report.outputs, net.eval(&[t(10)]).unwrap());
    }
}
