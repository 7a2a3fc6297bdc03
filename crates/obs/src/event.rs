//! The typed event vocabulary shared by every instrumented engine.
//!
//! Each engine emits the events that are native to its semantics — gate
//! firings for the discrete-event network evaluator, wire falls for the
//! CMOS race-logic simulator, membrane-potential samples and spikes for
//! SRM0 neurons, and WTA/STDP decisions for the training loop. Every
//! time an event carries is a model time, in ticks; host wall-clock time
//! is recorded as `st-trace` spans, never here. A [`crate::Probe`]
//! receives them all through one funnel, so exporters and statistics
//! never need to know which engine produced a trace.

use st_core::Time;

/// One observable occurrence inside an instrumented run.
///
/// Variants are grouped by the engine that emits them; drivers emit
/// [`ObsEvent::VolleyStart`] markers between per-volley runs so exporters
/// can attribute engine events to the volley that caused them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// Driver marker: subsequent engine events belong to this volley.
    VolleyStart {
        /// Index of the volley within the run's input batch.
        index: usize,
    },

    /// `st-net` event simulator: a gate fired (spiked) at `at`.
    GateFired {
        /// Gate index within the network ([`st-net`'s `GateId::index`]).
        gate: usize,
        /// The gate's operation (`"input"`, `"const"`, `"inc"`, `"min"`,
        /// `"max"`, `"lt"`).
        op: &'static str,
        /// Model time of the firing.
        at: Time,
    },

    /// `st-grl` simulator: a wire's level fell (`1→0`) at cycle `at`.
    WireFell {
        /// Wire index within the netlist.
        wire: usize,
        /// Fall cycle.
        at: Time,
    },

    /// `st-grl` simulator: an `lt` latch captured its blocked state —
    /// the inhibition path of the Fig. 16 reset latch.
    LatchBlocked {
        /// Wire index of the latch.
        wire: usize,
        /// Cycle at which the block was captured.
        at: Time,
    },

    /// SRM0 neuron: the body potential changed value at tick `at`.
    Potential {
        /// Neuron index within its column (0 for a lone neuron).
        neuron: usize,
        /// Tick of the change.
        at: Time,
        /// The potential after applying every step at this tick.
        potential: i64,
    },

    /// SRM0 neuron: the body potential first reached threshold — the
    /// neuron's (pre-inhibition) output spike.
    NeuronSpike {
        /// Neuron index within its column (0 for a lone neuron).
        neuron: usize,
        /// Spike time.
        at: Time,
    },

    /// WTA lateral inhibition resolved a volley: which neuron won (or
    /// none), and how many were tied for the earliest spike.
    WtaDecision {
        /// The winning neuron, or `None` when every neuron stayed silent.
        winner: Option<usize>,
        /// Number of neurons tied for the earliest output spike.
        tied: usize,
    },

    /// STDP training: one synapse's weight changed over a training call.
    WeightDelta {
        /// Neuron index within the column.
        neuron: usize,
        /// Synapse index within the neuron.
        synapse: usize,
        /// Weight before the training call.
        before: i32,
        /// Weight after the training call.
        after: i32,
    },
}

impl ObsEvent {
    /// The event's kind as a stable lowercase tag (used by the JSONL and
    /// CSV exporters, and handy for filtering).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::VolleyStart { .. } => "volley_start",
            ObsEvent::GateFired { .. } => "gate_fired",
            ObsEvent::WireFell { .. } => "wire_fell",
            ObsEvent::LatchBlocked { .. } => "latch_blocked",
            ObsEvent::Potential { .. } => "potential",
            ObsEvent::NeuronSpike { .. } => "neuron_spike",
            ObsEvent::WtaDecision { .. } => "wta_decision",
            ObsEvent::WeightDelta { .. } => "weight_delta",
        }
    }

    /// `true` for the events that represent a spike in the paper's sense
    /// — a gate firing, a wire fall, or a neuron's output spike. These are
    /// the rows of the spike-raster export.
    #[must_use]
    pub fn is_spike(&self) -> bool {
        matches!(
            self,
            ObsEvent::GateFired { .. } | ObsEvent::WireFell { .. } | ObsEvent::NeuronSpike { .. }
        )
    }

    /// The model time the event occurred at, for events that live on the
    /// model's clock (spikes, potentials, latch captures).
    #[must_use]
    pub fn model_time(&self) -> Option<Time> {
        match *self {
            ObsEvent::GateFired { at, .. }
            | ObsEvent::WireFell { at, .. }
            | ObsEvent::LatchBlocked { at, .. }
            | ObsEvent::Potential { at, .. }
            | ObsEvent::NeuronSpike { at, .. } => Some(at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_stable() {
        let events = [
            ObsEvent::VolleyStart { index: 0 },
            ObsEvent::GateFired {
                gate: 1,
                op: "min",
                at: Time::finite(2),
            },
            ObsEvent::WireFell {
                wire: 3,
                at: Time::finite(1),
            },
            ObsEvent::LatchBlocked {
                wire: 4,
                at: Time::ZERO,
            },
            ObsEvent::Potential {
                neuron: 0,
                at: Time::finite(1),
                potential: 2,
            },
            ObsEvent::NeuronSpike {
                neuron: 0,
                at: Time::finite(1),
            },
            ObsEvent::WtaDecision {
                winner: Some(1),
                tied: 2,
            },
            ObsEvent::WeightDelta {
                neuron: 0,
                synapse: 1,
                before: 3,
                after: 4,
            },
        ];
        let kinds: std::collections::HashSet<&str> = events.iter().map(ObsEvent::kind).collect();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn spike_classification() {
        assert!(ObsEvent::GateFired {
            gate: 0,
            op: "lt",
            at: Time::ZERO
        }
        .is_spike());
        assert!(ObsEvent::WireFell {
            wire: 0,
            at: Time::ZERO
        }
        .is_spike());
        assert!(ObsEvent::NeuronSpike {
            neuron: 0,
            at: Time::ZERO
        }
        .is_spike());
        assert!(!ObsEvent::VolleyStart { index: 0 }.is_spike());
        assert!(!ObsEvent::Potential {
            neuron: 0,
            at: Time::ZERO,
            potential: 1
        }
        .is_spike());
    }

    #[test]
    fn model_time_extraction() {
        let e = ObsEvent::GateFired {
            gate: 0,
            op: "min",
            at: Time::finite(7),
        };
        assert_eq!(e.model_time(), Some(Time::finite(7)));
        assert_eq!(ObsEvent::VolleyStart { index: 0 }.model_time(), None);
    }
}
