//! Excitatory columns with lateral inhibition.
//!
//! The unit of TNN organisation (§ II, § IV): a group of SRM0 neurons
//! sharing the same input lines, with a bulk winner-take-all inhibitory
//! blanket across their outputs. This is the architecture of essentially
//! all the TNN proposals the paper surveys (Masquelier-Thorpe, Bichler,
//! Kheradpisheh): excitatory feedforward + WTA.
//!
//! [`Column::eval`] runs the behavioral neurons; the equivalent
//! primitives-only realization (Fig. 12 neurons + the Fig. 15 WTA network)
//! is available via [`Column::to_network`] and cross-checked in tests.

use st_core::Volley;
use st_metrics::MetricSink;
use st_net::wta::{k_wta_into, wta_into};
use st_net::{Network, NetworkBuilder};
use st_neuron::structural::srm0_into;
use st_neuron::Srm0Neuron;
use st_obs::{ObsEvent, Probe};

/// The lateral-inhibition policy applied across a column's outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inhibition {
    /// No lateral inhibition: all output spikes pass.
    None,
    /// `τ`-WTA (Fig. 15): spikes strictly within `first + τ` survive.
    Wta {
        /// The inhibition window `τ` (1 = first spikes only).
        tau: u64,
    },
    /// `k`-WTA: the `k` earliest spikes survive (ties included) — the
    /// paper's "first k spikes" parameterization, realized structurally
    /// with a sorting network.
    KWta {
        /// How many winners survive.
        k: usize,
    },
}

impl Inhibition {
    /// The paper's 1-WTA.
    #[must_use]
    pub fn one_wta() -> Inhibition {
        Inhibition::Wta { tau: 1 }
    }
}

/// A column: neurons sharing one input volley, plus lateral inhibition.
///
/// # Examples
///
/// ```
/// use st_core::{Time, Volley};
/// use st_neuron::{ResponseFn, Srm0Neuron, Synapse};
/// use st_tnn::{Column, Inhibition};
///
/// let neuron = |w: &[i32]| Srm0Neuron::new(
///     ResponseFn::step(1),
///     w.iter().map(|&w| Synapse::new(0, w)).collect(),
///     4,
/// );
/// // Two neurons tuned to opposite input pairs.
/// let col = Column::new(
///     vec![neuron(&[3, 3, 0]), neuron(&[0, 3, 3])],
///     Inhibition::one_wta(),
/// );
/// let out = col.eval(&Volley::encode([Some(0), Some(0), None]));
/// assert!(out[0].is_finite() && out[1].is_infinite());
/// ```
#[derive(Debug, Clone)]
pub struct Column {
    neurons: Vec<Srm0Neuron>,
    inhibition: Inhibition,
}

impl Column {
    /// Creates a column.
    ///
    /// # Panics
    ///
    /// Panics if `neurons` is empty or the neurons disagree on input width.
    #[must_use]
    pub fn new(neurons: Vec<Srm0Neuron>, inhibition: Inhibition) -> Column {
        assert!(!neurons.is_empty(), "a column needs at least one neuron");
        let width = neurons[0].synapses().len();
        assert!(
            neurons.iter().all(|n| n.synapses().len() == width),
            "all neurons in a column must share the input width"
        );
        Column {
            neurons,
            inhibition,
        }
    }

    /// The neurons, in output-line order.
    #[must_use]
    pub fn neurons(&self) -> &[Srm0Neuron] {
        &self.neurons
    }

    /// Mutable access to the neurons (training).
    pub fn neurons_mut(&mut self) -> &mut [Srm0Neuron] {
        &mut self.neurons
    }

    /// The inhibition policy.
    #[must_use]
    pub fn inhibition(&self) -> Inhibition {
        self.inhibition
    }

    /// The number of input lines.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.neurons[0].synapses().len()
    }

    /// The number of output lines (= neurons).
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.neurons.len()
    }

    /// Raw (pre-inhibition) output spike times.
    ///
    /// # Panics
    ///
    /// Panics if the volley width differs from [`Column::input_width`].
    #[must_use]
    pub fn eval_raw(&self, inputs: &Volley) -> Volley {
        assert_eq!(
            inputs.width(),
            self.input_width(),
            "volley width must match the column's input width"
        );
        self.neurons
            .iter()
            .map(|n| n.eval(inputs.times()))
            .collect()
    }

    /// Output spike times after lateral inhibition.
    ///
    /// # Panics
    ///
    /// Panics if the volley width differs from [`Column::input_width`].
    #[must_use]
    pub fn eval(&self, inputs: &Volley) -> Volley {
        self.apply_inhibition(self.eval_raw(inputs))
    }

    /// [`Column::eval`] with a probe and a metric sink: evaluates each
    /// neuron through [`Srm0Neuron::eval_instrumented`] (potentials and
    /// output spikes, attributed by neuron index; `srm0.*` counters),
    /// records the column's WTA decision ([`ObsEvent::WtaDecision`])
    /// before applying inhibition, and accumulates the `tnn.*` counters
    /// — volleys evaluated, WTA decisions with a winner, and silent
    /// (no-spike) decisions. With a [`st_obs::NullProbe`] and
    /// [`st_metrics::NullMetrics`] this is exactly [`Column::eval`];
    /// results are identical for any instruments.
    ///
    /// # Panics
    ///
    /// Panics if the volley width differs from [`Column::input_width`].
    pub fn eval_instrumented<P: Probe, M: MetricSink>(
        &self,
        inputs: &Volley,
        probe: &mut P,
        sink: &mut M,
    ) -> Volley {
        assert_eq!(
            inputs.width(),
            self.input_width(),
            "volley width must match the column's input width"
        );
        let metered = sink.is_live();
        let raw: Volley = self
            .neurons
            .iter()
            .enumerate()
            .map(|(i, n)| n.eval_instrumented(inputs.times(), i, probe, sink))
            .collect();
        if metered {
            sink.incr("tnn.volleys", 1);
            if raw.first_spike().is_infinite() {
                sink.incr("tnn.silent_decisions", 1);
            } else {
                sink.incr("tnn.wta_decisions", 1);
            }
        }
        if probe.is_enabled() {
            let first = raw.first_spike();
            let (winner, tied) = if first.is_infinite() {
                (None, 0)
            } else {
                (
                    raw.times().iter().position(|&t| t == first),
                    raw.times().iter().filter(|&&t| t == first).count(),
                )
            };
            probe.record(ObsEvent::WtaDecision { winner, tied });
        }
        self.apply_inhibition(raw)
    }

    /// Applies the column's inhibition policy to raw output spike times.
    fn apply_inhibition(&self, raw: Volley) -> Volley {
        match self.inhibition {
            Inhibition::None => raw,
            Inhibition::Wta { tau } => {
                let cutoff = raw.first_spike() + tau;
                raw.times().iter().map(|&t| t.lt_gate(cutoff)).collect()
            }
            Inhibition::KWta { k } => {
                let mut sorted: Vec<st_core::Time> = raw.times().to_vec();
                sorted.sort();
                let kth = sorted
                    .get(k.saturating_sub(1).min(sorted.len().saturating_sub(1)))
                    .copied()
                    .unwrap_or(st_core::Time::INFINITY);
                let cutoff = kth + 1;
                raw.times().iter().map(|&t| t.lt_gate(cutoff)).collect()
            }
        }
    }

    /// Evaluates one input volley per entry of `volleys` (inhibition
    /// included), checking widths instead of panicking — the batch engine's
    /// contract is that a malformed volley is reported, not absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] for the first (lowest-index)
    /// volley whose width differs from [`Column::input_width`].
    pub fn eval_batch(&self, volleys: &[Volley]) -> Result<Vec<Volley>, st_core::CoreError> {
        volleys
            .iter()
            .map(|v| {
                if v.width() != self.input_width() {
                    return Err(st_core::CoreError::ArityMismatch {
                        expected: self.input_width(),
                        actual: v.width(),
                    });
                }
                Ok(self.eval(v))
            })
            .collect()
    }

    /// The index of the earliest-spiking neuron (lowest index on ties), or
    /// `None` if no neuron fires — the column's "decision".
    #[must_use]
    pub fn winner(&self, inputs: &Volley) -> Option<usize> {
        let raw = self.eval_raw(inputs);
        let first = raw.first_spike();
        if first.is_infinite() {
            return None;
        }
        raw.times().iter().position(|&t| t == first)
    }

    /// All neurons tied for the earliest output spike (empty if none
    /// fires). Training uses this to break ties *randomly*: simultaneous
    /// spikes are indistinguishable under temporal coding, and a
    /// deterministic tie-break would let one neuron monopolize the early
    /// WTA races and prevent the others from ever specializing.
    #[must_use]
    pub fn tied_winners(&self, inputs: &Volley) -> Vec<usize> {
        let raw = self.eval_raw(inputs);
        let first = raw.first_spike();
        if first.is_infinite() {
            return Vec::new();
        }
        raw.times()
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| (t == first).then_some(i))
            .collect()
    }

    /// Compiles the column into a primitives-only network: one Fig. 12
    /// SRM0 sub-network per neuron plus the Fig. 15 WTA stage.
    #[must_use]
    pub fn to_network(&self) -> Network {
        let mut builder = NetworkBuilder::new();
        let inputs = builder.inputs(self.input_width());
        let raw: Vec<_> = self
            .neurons
            .iter()
            .map(|n| srm0_into(&mut builder, &inputs, n))
            .collect();
        let outputs = match self.inhibition {
            Inhibition::None => raw,
            Inhibition::Wta { tau } => wta_into(&mut builder, &raw, tau),
            Inhibition::KWta { k } => k_wta_into(&mut builder, &raw, k),
        };
        builder.build(outputs)
    }
}

/// Convenience: evaluates a full volley through a chain of columns.
#[must_use]
pub fn eval_chain(columns: &[Column], input: &Volley) -> Volley {
    let mut v = input.clone();
    for c in columns {
        v = c.eval(&v);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;
    use st_metrics::NullMetrics;
    use st_neuron::{ResponseFn, Synapse};
    use st_obs::NullProbe;

    const INF: Time = Time::INFINITY;

    fn step_neuron(weights: &[i32], theta: u32) -> Srm0Neuron {
        Srm0Neuron::new(
            ResponseFn::step(1),
            weights.iter().map(|&w| Synapse::new(0, w)).collect(),
            theta,
        )
    }

    fn two_detector_column(inhibition: Inhibition) -> Column {
        Column::new(
            vec![step_neuron(&[3, 3, 0, 0], 5), step_neuron(&[0, 0, 3, 3], 5)],
            inhibition,
        )
    }

    #[test]
    fn eval_batch_matches_per_volley_eval() {
        let col = two_detector_column(Inhibition::one_wta());
        let volleys = vec![
            Volley::encode([Some(0), Some(0), None, None]),
            Volley::encode([None, None, Some(1), Some(2)]),
            Volley::silent(4),
        ];
        let outs = col.eval_batch(&volleys).unwrap();
        assert_eq!(outs.len(), 3);
        for (v, out) in volleys.iter().zip(&outs) {
            assert_eq!(*out, col.eval(v));
        }
        // Width mismatches are reported, not panicked on.
        assert!(matches!(
            col.eval_batch(&[Volley::silent(3)]),
            Err(st_core::CoreError::ArityMismatch {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn neurons_detect_their_patterns() {
        let col = two_detector_column(Inhibition::None);
        let out = col.eval(&Volley::encode([Some(0), Some(0), None, None]));
        assert!(out[0].is_finite());
        assert_eq!(out[1], INF);
        let out = col.eval(&Volley::encode([None, None, Some(0), Some(0)]));
        assert_eq!(out[0], INF);
        assert!(out[1].is_finite());
    }

    #[test]
    fn wta_silences_the_later_neuron() {
        let col = Column::new(
            vec![step_neuron(&[3, 3, 1, 0], 5), step_neuron(&[1, 0, 3, 3], 5)],
            Inhibition::one_wta(),
        );
        // Both fire, but neuron 0 fires earlier: WTA silences neuron 1.
        let input = Volley::encode([Some(0), Some(0), Some(0), Some(3)]);
        let raw = col.eval_raw(&input);
        assert!(raw[0].is_finite() && raw[1].is_finite());
        assert!(raw[0] < raw[1]);
        let out = col.eval(&input);
        assert!(out[0].is_finite());
        assert_eq!(out[1], INF);
        assert_eq!(col.winner(&input), Some(0));
    }

    #[test]
    fn no_firing_no_winner() {
        let col = two_detector_column(Inhibition::one_wta());
        let input = Volley::silent(4);
        assert_eq!(col.winner(&input), None);
        assert_eq!(col.eval(&input), Volley::silent(2));
    }

    #[test]
    fn ties_all_survive_wta() {
        let col = Column::new(
            vec![step_neuron(&[3], 3), step_neuron(&[3], 3)],
            Inhibition::one_wta(),
        );
        let input = Volley::encode([Some(0)]);
        let out = col.eval(&input);
        assert_eq!(out[0], out[1]);
        assert!(out[0].is_finite());
        assert_eq!(col.winner(&input), Some(0)); // lowest index on ties
    }

    #[test]
    fn structural_column_matches_behavioral() {
        let col = Column::new(
            vec![
                step_neuron(&[2, 1, 0], 2),
                step_neuron(&[0, 1, 2], 2),
                step_neuron(&[1, 1, 1], 3),
            ],
            Inhibition::one_wta(),
        );
        let net = col.to_network();
        for inputs in st_core::enumerate_inputs(3, 3) {
            let behavioral = col.eval(&Volley::new(inputs.clone()));
            let structural = net.eval(&inputs).unwrap();
            assert_eq!(structural, behavioral.times(), "at {inputs:?}");
        }
    }

    #[test]
    fn structural_column_without_inhibition_matches() {
        let col = two_detector_column(Inhibition::None);
        let net = col.to_network();
        for inputs in st_core::enumerate_inputs(4, 2) {
            let behavioral = col.eval(&Volley::new(inputs.clone()));
            assert_eq!(net.eval(&inputs).unwrap(), behavioral.times());
        }
    }

    #[test]
    fn chain_evaluation() {
        let first = two_detector_column(Inhibition::None);
        let second = Column::new(vec![step_neuron(&[1, 1], 1)], Inhibition::None);
        let out = eval_chain(
            &[first, second],
            &Volley::encode([Some(0), Some(0), None, None]),
        );
        assert_eq!(out.width(), 1);
        assert!(out[0].is_finite());
    }

    #[test]
    fn accessors() {
        let mut col = two_detector_column(Inhibition::one_wta());
        assert_eq!(col.input_width(), 4);
        assert_eq!(col.output_width(), 2);
        assert_eq!(col.inhibition(), Inhibition::Wta { tau: 1 });
        assert_eq!(col.neurons().len(), 2);
        col.neurons_mut()[0].set_weight(0, 7);
        assert_eq!(col.neurons()[0].synapses()[0].weight, 7);
    }

    #[test]
    fn k_wta_column_passes_k_earliest() {
        let col = Column::new(
            vec![
                step_neuron(&[3], 3), // fires at 1 on spike at 0
                step_neuron(&[3], 3), // ties with neuron 0
                step_neuron(&[1], 3), // needs 3 spikes' worth: silent
            ],
            Inhibition::KWta { k: 2 },
        );
        let input = Volley::encode([Some(0)]);
        let out = col.eval(&input);
        assert!(out[0].is_finite() && out[1].is_finite());
        assert_eq!(out[2], INF);
    }

    #[test]
    fn structural_k_wta_column_matches_behavioral() {
        let col = Column::new(
            vec![
                step_neuron(&[2, 1, 0], 2),
                step_neuron(&[0, 1, 2], 2),
                step_neuron(&[1, 1, 1], 3),
            ],
            Inhibition::KWta { k: 2 },
        );
        let net = col.to_network();
        for inputs in st_core::enumerate_inputs(3, 3) {
            let behavioral = col.eval(&Volley::new(inputs.clone()));
            assert_eq!(
                net.eval(&inputs).unwrap(),
                behavioral.times(),
                "at {inputs:?}"
            );
        }
    }

    #[test]
    fn probed_eval_matches_and_records_decision() {
        use st_obs::Recorder;
        let col = two_detector_column(Inhibition::one_wta());
        let input = Volley::encode([Some(0), Some(0), None, None]);
        let mut recorder = Recorder::new();
        assert_eq!(
            col.eval_instrumented(&input, &mut recorder, &mut NullMetrics),
            col.eval(&input)
        );
        let decisions: Vec<_> = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::WtaDecision { .. }))
            .collect();
        assert_eq!(
            decisions,
            vec![&ObsEvent::WtaDecision {
                winner: Some(0),
                tied: 1
            }]
        );
        // Spikes are attributed to the winning neuron.
        assert!(recorder
            .events()
            .iter()
            .any(|e| matches!(e, ObsEvent::NeuronSpike { neuron: 0, .. })));

        // A silent volley records a silent decision.
        let mut recorder = Recorder::new();
        let out = col.eval_instrumented(&Volley::silent(4), &mut recorder, &mut NullMetrics);
        assert_eq!(out, Volley::silent(2));
        assert!(recorder.events().contains(&ObsEvent::WtaDecision {
            winner: None,
            tied: 0
        }));
    }

    #[test]
    fn metered_eval_counts_decisions_without_perturbing_results() {
        use st_metrics::MetricsRegistry;
        let col = two_detector_column(Inhibition::one_wta());
        let mut sink = MetricsRegistry::new();
        let input = Volley::encode([Some(0), Some(0), None, None]);
        assert_eq!(
            col.eval_instrumented(&input, &mut NullProbe, &mut sink),
            col.eval(&input)
        );
        assert_eq!(sink.counter("tnn.volleys"), 1);
        assert_eq!(sink.counter("tnn.wta_decisions"), 1);
        assert_eq!(sink.counter("tnn.silent_decisions"), 0);
        // Per-neuron srm0 counters flow into the same sink.
        assert_eq!(sink.counter("srm0.evals"), 2);
        // A silent volley counts as a silent decision.
        let silent = Volley::silent(4);
        assert_eq!(
            col.eval_instrumented(&silent, &mut NullProbe, &mut sink),
            col.eval(&silent)
        );
        assert_eq!(sink.counter("tnn.volleys"), 2);
        assert_eq!(sink.counter("tnn.silent_decisions"), 1);
    }

    #[test]
    #[should_panic(expected = "share the input width")]
    fn mismatched_widths_rejected() {
        let _ = Column::new(
            vec![step_neuron(&[1], 1), step_neuron(&[1, 1], 1)],
            Inhibition::None,
        );
    }

    #[test]
    #[should_panic(expected = "at least one neuron")]
    fn empty_column_rejected() {
        let _ = Column::new(vec![], Inhibition::None);
    }
}
