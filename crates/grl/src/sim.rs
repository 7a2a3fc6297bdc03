//! Cycle-accurate simulation of GRL netlists, with transition counting.
//!
//! The simulator models the § V.B scheme: a clock demarks idealized unit
//! time; combinational gates (AND/OR/latch) are zero-delay within a cycle;
//! each flip-flop stage contributes exactly one cycle. Every computation
//! is preceded by a **reset phase** that drives all wires high and makes
//! the `lt` latches transparent — exactly the reset the paper's Fig. 16
//! requires — and the simulator accounts reset transitions separately from
//! evaluation transitions, matching the paper's caveat that reset energy
//! must be paid before the next computation.
//!
//! Every wire falls at most once per computation (the minimal-transition
//! property of § VI conjecture 1); the test suites check both this and the
//! cycle-exact equivalence with the algebraic evaluator in `st-net`.

use st_core::{CoreError, Time, Volley};
use st_metrics::{MetricSink, NullMetrics};
use st_obs::{NullProbe, ObsEvent, Probe};

use crate::netlist::{GrlGate, GrlNetlist};

/// Result of simulating one computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrlReport {
    /// Event time (fall cycle) on each output wire; `∞` if it never fell.
    pub outputs: Vec<Time>,
    /// Fall time of every wire, by wire index; `∞` for wires that stayed
    /// high.
    pub fall_times: Vec<Time>,
    /// `1→0` transitions during evaluation (= wires that fell; each wire
    /// switches at most once).
    pub eval_transitions: usize,
    /// `0→1` transitions the subsequent reset phase must pay to restore
    /// the fallen wires (equal to `eval_transitions`) plus latch resets.
    pub reset_transitions: usize,
    /// Cycles simulated.
    pub cycles: u64,
}

impl GrlReport {
    /// Total switching activity per computation (evaluation + reset).
    #[must_use]
    pub fn total_transitions(&self) -> usize {
        self.eval_transitions + self.reset_transitions
    }

    /// Fraction of wires that switched during evaluation — the sparse-
    /// coding activity factor of § VI.
    #[must_use]
    pub fn activity_factor(&self) -> f64 {
        if self.fall_times.is_empty() {
            0.0
        } else {
            self.eval_transitions as f64 / self.fall_times.len() as f64
        }
    }
}

/// Reusable per-run wire state, so batched runs allocate once. Pass
/// `&mut GrlScratch::default()` to [`GrlSim::run_instrumented`] for a
/// one-off run.
#[derive(Debug, Default)]
pub struct GrlScratch {
    level: Vec<bool>,
    prev_level: Vec<bool>,
    blocked: Vec<bool>,
}

impl GrlScratch {
    /// Restores the reset state (all wires high, latches clear) for a
    /// netlist of `n` wires, growing the buffers if needed.
    fn reset(&mut self, n: usize) {
        self.level.clear();
        self.level.resize(n, true);
        self.prev_level.clear();
        self.prev_level.resize(n, true);
        self.blocked.clear();
        self.blocked.resize(n, false);
    }
}

/// Cycle-accurate GRL simulator.
#[derive(Debug, Default, Clone, Copy)]
pub struct GrlSim;

impl GrlSim {
    /// Creates a simulator.
    #[must_use]
    pub fn new() -> GrlSim {
        GrlSim
    }

    /// Simulates one computation: reset, then run until every transition
    /// has settled (a bound derived from the netlist), recording each
    /// wire's fall time.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the netlist's input count.
    pub fn run(&self, netlist: &GrlNetlist, inputs: &[Time]) -> Result<GrlReport, CoreError> {
        self.run_instrumented(
            netlist,
            inputs,
            &mut GrlScratch::default(),
            &mut NullProbe,
            &mut NullMetrics,
        )
    }

    /// Simulates one computation per entry of `volleys`, reusing the
    /// per-run scratch state (wire levels, latch flags) across the batch so
    /// only the fall-time vector is allocated per volley.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] for the first (lowest-index)
    /// volley whose width differs from the netlist's input count.
    pub fn run_batch(
        &self,
        netlist: &GrlNetlist,
        volleys: &[Volley],
    ) -> Result<Vec<GrlReport>, CoreError> {
        let mut scratch = GrlScratch::default();
        volleys
            .iter()
            .map(|v| {
                self.run_instrumented(
                    netlist,
                    v.times(),
                    &mut scratch,
                    &mut NullProbe,
                    &mut NullMetrics,
                )
            })
            .collect()
    }

    /// [`GrlSim::run`] with reusable scratch state, a probe and a metric
    /// sink: every wire fall is reported as an [`ObsEvent::WireFell`] (in
    /// cycle order) and every `lt` latch capture as an
    /// [`ObsEvent::LatchBlocked`], and the sink accumulates the `grl.*`
    /// counters — simulated cycles, wire transitions (the paper's § VI
    /// energy proxy), reset transitions, and latch captures. With
    /// [`NullProbe`] and [`NullMetrics`] this compiles to exactly
    /// [`GrlSim::run`]; results are identical for any instruments and
    /// any scratch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs.len()` differs from
    /// the netlist's input count.
    pub fn run_instrumented<P: Probe, M: MetricSink>(
        &self,
        netlist: &GrlNetlist,
        inputs: &[Time],
        scratch: &mut GrlScratch,
        probe: &mut P,
        sink: &mut M,
    ) -> Result<GrlReport, CoreError> {
        if inputs.len() != netlist.input_count() {
            return Err(CoreError::ArityMismatch {
                expected: netlist.input_count(),
                actual: inputs.len(),
            });
        }
        let n = netlist.wire_count();
        let horizon = netlist.settle_bound(inputs);

        // Reset state: every wire high, latches unblocked, flip-flops high.
        scratch.reset(n);
        let level = &mut scratch.level; // current-cycle level
        let prev_level = &mut scratch.prev_level; // previous cycle
        let blocked = &mut scratch.blocked; // latch state per wire
        let mut fall: Vec<Time> = vec![Time::INFINITY; n];
        let mut lt_latched = 0usize; // latches that captured a "blocked" state

        for cycle in 0..=horizon {
            let t = Time::finite(cycle);
            for (i, gate) in netlist.gates.iter().enumerate() {
                let new_level = match *gate {
                    GrlGate::Input(p) => t < inputs[p],
                    GrlGate::High => true,
                    GrlGate::FallAt(c) => cycle < c,
                    GrlGate::And(a, b) => level[a.index()] && level[b.index()],
                    GrlGate::Or(a, b) => level[a.index()] || level[b.index()],
                    GrlGate::LtLatch { a, b } => {
                        // Block once b is low while a was still high at the
                        // previous cycle (strictly earlier, or a tie).
                        if !level[b.index()] && prev_level[a.index()] && !blocked[i] {
                            blocked[i] = true;
                            lt_latched += 1;
                            if probe.is_enabled() {
                                probe.record(ObsEvent::LatchBlocked { wire: i, at: t });
                            }
                        }
                        level[a.index()] || blocked[i]
                    }
                    GrlGate::Delay(a) => prev_level[a.index()],
                };
                if level[i] && !new_level {
                    fall[i] = t;
                    if probe.is_enabled() {
                        probe.record(ObsEvent::WireFell { wire: i, at: t });
                    }
                }
                level[i] = new_level;
            }
            prev_level.copy_from_slice(level);
        }

        let eval_transitions = fall.iter().filter(|f| f.is_finite()).count();
        if sink.is_live() {
            sink.incr("grl.runs", 1);
            sink.incr("grl.cycles", horizon + 1);
            sink.incr("grl.wire_transitions", eval_transitions as u64);
            sink.incr(
                "grl.reset_transitions",
                (eval_transitions + lt_latched) as u64,
            );
            sink.incr("grl.latch_captures", lt_latched as u64);
        }
        let outputs = netlist.outputs().iter().map(|o| fall[o.index()]).collect();
        Ok(GrlReport {
            outputs,
            fall_times: fall,
            eval_transitions,
            // Reset must raise every fallen wire and clear captured latches.
            reset_transitions: eval_transitions + lt_latched,
            cycles: horizon + 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GrlBuilder;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    const INF: Time = Time::INFINITY;

    fn run1(netlist: &GrlNetlist, inputs: &[Time]) -> Vec<Time> {
        GrlSim::new().run(netlist, inputs).unwrap().outputs
    }

    #[test]
    fn and_computes_min() {
        // Falling-edge encoding: AND goes low with its *first* input.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.and2(x, y);
        let net = b.build([m]);
        assert_eq!(run1(&net, &[t(2), t(5)]), vec![t(2)]);
        assert_eq!(run1(&net, &[t(5), t(2)]), vec![t(2)]);
        assert_eq!(run1(&net, &[t(3), t(3)]), vec![t(3)]);
        assert_eq!(run1(&net, &[t(2), INF]), vec![t(2)]);
        assert_eq!(run1(&net, &[INF, INF]), vec![INF]);
    }

    #[test]
    fn or_computes_max() {
        // Falling-edge encoding: OR stays high until its *last* input falls.
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.or2(x, y);
        let net = b.build([m]);
        assert_eq!(run1(&net, &[t(2), t(5)]), vec![t(5)]);
        assert_eq!(run1(&net, &[INF, t(5)]), vec![INF]);
        assert_eq!(run1(&net, &[INF, INF]), vec![INF]);
    }

    #[test]
    fn latch_computes_strict_lt() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        assert_eq!(run1(&net, &[t(2), t(5)]), vec![t(2)]);
        assert_eq!(run1(&net, &[t(5), t(2)]), vec![INF]);
        assert_eq!(run1(&net, &[t(3), t(3)]), vec![INF]); // tie blocks
        assert_eq!(run1(&net, &[t(3), INF]), vec![t(3)]);
        assert_eq!(run1(&net, &[INF, t(3)]), vec![INF]);
        assert_eq!(run1(&net, &[t(0), t(0)]), vec![INF]); // tie at reset edge
        assert_eq!(run1(&net, &[t(0), t(1)]), vec![t(0)]);
    }

    #[test]
    fn latch_output_stays_low_after_b_falls() {
        // a falls at 1, b falls at 4: output falls at 1 and must remain
        // low when b later falls (the latch's raison d'être).
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        let report = GrlSim::new().run(&net, &[t(1), t(4)]).unwrap();
        assert_eq!(report.outputs, vec![t(1)]);
        // The wire fell exactly once.
        assert_eq!(
            report.fall_times.iter().filter(|f| f.is_finite()).count(),
            3
        );
    }

    #[test]
    fn shift_register_delays() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let d = b.shift_register(x, 4);
        let net = b.build([d]);
        assert_eq!(run1(&net, &[t(2)]), vec![t(6)]);
        assert_eq!(run1(&net, &[INF]), vec![INF]);
    }

    #[test]
    fn constants() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let hi = b.high();
        let k = b.fall_at(3);
        let pass = b.lt(x, hi); // always passes x
        let gated = b.and2(x, k); // min(x, 3)
        let net = b.build([pass, gated]);
        assert_eq!(run1(&net, &[t(5)]), vec![t(5), t(3)]);
        assert_eq!(run1(&net, &[t(1)]), vec![t(1), t(1)]);
    }

    #[test]
    fn every_wire_falls_at_most_once_and_counts_match() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let d = b.shift_register(x, 1);
        let mn = b.and2(d, y);
        let out = b.lt(mn, z);
        let net = b.build([out]);
        let report = GrlSim::new().run(&net, &[t(0), t(3), t(2)]).unwrap();
        assert_eq!(report.outputs, vec![t(1)]);
        // inputs x,y,z fall; delay falls; or falls; lt falls → 6.
        assert_eq!(report.eval_transitions, 6);
        assert_eq!(report.reset_transitions, 6); // no latch captured
        assert_eq!(report.total_transitions(), 12);
        assert!(report.activity_factor() > 0.99);
    }

    #[test]
    fn silent_computation_switches_nothing() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.and2(x, y);
        let d = b.shift_register(m, 2);
        let net = b.build([d]);
        let report = GrlSim::new().run(&net, &[INF, INF]).unwrap();
        assert_eq!(report.outputs, vec![INF]);
        assert_eq!(report.eval_transitions, 0);
        assert_eq!(report.total_transitions(), 0);
        assert_eq!(report.activity_factor(), 0.0);
    }

    #[test]
    fn latch_capture_costs_a_reset_transition() {
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        // b first: latch captures, output never falls.
        let report = GrlSim::new().run(&net, &[t(5), t(1)]).unwrap();
        assert_eq!(report.outputs, vec![INF]);
        // transitions: both inputs fell; lt stayed high.
        assert_eq!(report.eval_transitions, 2);
        assert_eq!(report.reset_transitions, 2 + 1); // + latch clear
    }

    #[test]
    fn arity_is_checked() {
        let mut b = GrlBuilder::new();
        let _ = b.input();
        let x = b.input();
        let net = b.build([x]);
        assert!(GrlSim::new().run(&net, &[t(0)]).is_err());
    }

    #[test]
    fn probed_run_records_falls_and_latch_captures() {
        use st_obs::Recorder;
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        let sim = GrlSim::new();
        // b falls first: latch captures, two wires fall.
        let mut recorder = Recorder::new();
        let probed = sim
            .run_instrumented(
                &net,
                &[t(5), t(1)],
                &mut GrlScratch::default(),
                &mut recorder,
                &mut NullMetrics,
            )
            .unwrap();
        assert_eq!(probed, sim.run(&net, &[t(5), t(1)]).unwrap());
        let falls: Vec<(usize, Time)> = recorder
            .events()
            .iter()
            .filter_map(|e| match *e {
                st_obs::ObsEvent::WireFell { wire, at } => Some((wire, at)),
                _ => None,
            })
            .collect();
        assert_eq!(falls.len(), probed.eval_transitions);
        for (wire, at) in falls {
            assert_eq!(probed.fall_times[wire], at);
        }
        let captures = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, st_obs::ObsEvent::LatchBlocked { .. }))
            .count();
        assert_eq!(captures, 1);
        // Falls arrive in cycle order.
        let times: Vec<Time> = recorder
            .events()
            .iter()
            .filter_map(st_obs::ObsEvent::model_time)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }

    #[test]
    fn metered_run_counts_transitions_without_perturbing_results() {
        use st_metrics::MetricsRegistry;
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.lt(x, y);
        let net = b.build([m]);
        let sim = GrlSim::new();
        // b falls first: latch captures, two wires fall.
        let mut sink = MetricsRegistry::new();
        let metered = sim
            .run_instrumented(
                &net,
                &[t(5), t(1)],
                &mut GrlScratch::default(),
                &mut NullProbe,
                &mut sink,
            )
            .unwrap();
        let plain = sim.run(&net, &[t(5), t(1)]).unwrap();
        assert_eq!(metered, plain);
        assert_eq!(sink.counter("grl.runs"), 1);
        assert_eq!(sink.counter("grl.cycles"), plain.cycles);
        assert_eq!(
            sink.counter("grl.wire_transitions"),
            plain.eval_transitions as u64
        );
        assert_eq!(
            sink.counter("grl.reset_transitions"),
            plain.reset_transitions as u64
        );
        assert_eq!(sink.counter("grl.latch_captures"), 1);
        // Counters accumulate across runs into the same sink.
        let _ = sim
            .run_instrumented(
                &net,
                &[t(5), t(1)],
                &mut GrlScratch::default(),
                &mut NullProbe,
                &mut sink,
            )
            .unwrap();
        assert_eq!(sink.counter("grl.runs"), 2);
        assert_eq!(
            sink.counter("grl.wire_transitions"),
            2 * plain.eval_transitions as u64
        );
    }

    #[test]
    fn run_batch_matches_per_volley_runs() {
        use st_core::Volley;
        let mut b = GrlBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let d = b.shift_register(x, 2);
        let mn = b.and2(d, y);
        let out = b.lt(mn, z);
        let net = b.build([out]);
        let sim = GrlSim::new();
        let volleys: Vec<Volley> = st_core::enumerate_inputs(3, 3).map(Volley::new).collect();
        let reports = sim.run_batch(&net, &volleys).unwrap();
        assert_eq!(reports.len(), volleys.len());
        for (v, report) in volleys.iter().zip(&reports) {
            assert_eq!(*report, sim.run(&net, v.times()).unwrap(), "at {v:?}");
        }
        // A bad volley anywhere fails the whole batch.
        assert!(sim.run_batch(&net, &[Volley::new(vec![t(0)])]).is_err());
    }
}
