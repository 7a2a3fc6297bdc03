//! The indexed spike database every insight query runs against.
//!
//! A recorded [`ObsEvent`] stream is a flat arrival-order log; queries
//! need it sliced two ways — *by volley* (which spikes belong to one
//! input presentation) and *by unit* (when did gate 5 ever fire). A
//! [`SpikeDb`] builds both indices in one pass and carries the
//! truncation count from a capacity-bounded `Recorder`, so downstream
//! queries can refuse incomplete windows instead of answering wrong.

use std::collections::HashMap;

use core::fmt;
use st_core::Time;
use st_obs::ObsEvent;

/// A firing element in some engine's vocabulary: a gate (net engine), a
/// wire (GRL engine), or a neuron (SRM0/column engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// `st-net` gate, indexed by `GateId::index`.
    Gate(usize),
    /// `st-grl` wire.
    Wire(usize),
    /// SRM0 neuron within its column.
    Neuron(usize),
}

impl Unit {
    /// The unit's index within its kind.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Unit::Gate(i) | Unit::Wire(i) | Unit::Neuron(i) => i,
        }
    }

    /// Parses the display form back (`gate5`, `wire3`, `neuron1`; a bare
    /// number is a gate).
    #[must_use]
    pub fn parse(text: &str) -> Option<Unit> {
        if let Some(digits) = text.strip_prefix("gate") {
            return digits.parse().ok().map(Unit::Gate);
        }
        if let Some(digits) = text.strip_prefix("wire") {
            return digits.parse().ok().map(Unit::Wire);
        }
        if let Some(digits) = text.strip_prefix("neuron") {
            return digits.parse().ok().map(Unit::Neuron);
        }
        text.parse().ok().map(Unit::Gate)
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unit::Gate(i) => write!(f, "gate{i}"),
            Unit::Wire(i) => write!(f, "wire{i}"),
            Unit::Neuron(i) => write!(f, "neuron{i}"),
        }
    }
}

/// Everything one input presentation (volley) produced, indexed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VolleyTrace {
    /// The volley index the driver declared via `VolleyStart`.
    pub index: usize,
    /// Spike-like events in arrival order: gate firings, wire falls,
    /// neuron output spikes.
    pub spikes: Vec<(Unit, Time)>,
    /// The WTA decision for this volley, if the engine emitted one:
    /// `(winner, tied)`.
    pub wta: Option<(Option<usize>, usize)>,
    unit_times: HashMap<Unit, Time>,
}

impl VolleyTrace {
    /// The recorded firing time of a unit in this volley — `∞` when the
    /// unit never fired (no event is recorded for silent units).
    #[must_use]
    pub fn time_of(&self, unit: Unit) -> Time {
        self.unit_times
            .get(&unit)
            .copied()
            .unwrap_or(Time::INFINITY)
    }

    /// Firing times of every gate, as a dense vector of length
    /// `gate_count` (`∞` for gates that never fired). This is the
    /// concrete waveform the provenance cone walks.
    #[must_use]
    pub fn gate_waveform(&self, gate_count: usize) -> Vec<Time> {
        (0..gate_count)
            .map(|g| self.time_of(Unit::Gate(g)))
            .collect()
    }

    /// Neuron output-spike times in arrival order (column runs).
    pub fn neuron_spikes(&self) -> impl Iterator<Item = (usize, Time)> + '_ {
        self.spikes.iter().filter_map(|&(u, t)| match u {
            Unit::Neuron(n) => Some((n, t)),
            _ => None,
        })
    }
}

/// An indexed database over one recorded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpikeDb {
    volleys: Vec<VolleyTrace>,
    /// Per-unit global index: every `(volley position, time)` the unit
    /// fired at, in run order.
    by_unit: HashMap<Unit, Vec<(usize, Time)>>,
    /// STDP weight changes recorded over the run.
    weight_deltas: usize,
    dropped: u64,
    events: usize,
}

impl SpikeDb {
    /// Indexes a complete event stream (no truncation).
    #[must_use]
    pub fn from_events(events: &[ObsEvent]) -> SpikeDb {
        SpikeDb::from_events_with_dropped(events, 0)
    }

    /// Indexes an event stream recorded through a capacity-bounded
    /// `Recorder` that dropped `dropped` events. The count is carried so
    /// causal queries can refuse the incomplete window.
    #[must_use]
    pub fn from_events_with_dropped(events: &[ObsEvent], dropped: u64) -> SpikeDb {
        let mut db = SpikeDb {
            volleys: Vec::new(),
            by_unit: HashMap::new(),
            weight_deltas: 0,
            dropped,
            events: events.len(),
        };
        for event in events {
            match *event {
                ObsEvent::VolleyStart { index } => db.volleys.push(VolleyTrace {
                    index,
                    ..VolleyTrace::default()
                }),
                ObsEvent::GateFired { gate, at, .. } => db.push_spike(Unit::Gate(gate), at),
                ObsEvent::WireFell { wire, at } => db.push_spike(Unit::Wire(wire), at),
                ObsEvent::NeuronSpike { neuron, at } => db.push_spike(Unit::Neuron(neuron), at),
                ObsEvent::WtaDecision { winner, tied } => {
                    db.current().wta = Some((winner, tied));
                }
                ObsEvent::WeightDelta { .. } => db.weight_deltas += 1,
                ObsEvent::LatchBlocked { .. } | ObsEvent::Potential { .. } => {}
            }
        }
        db
    }

    fn current(&mut self) -> &mut VolleyTrace {
        // Events before any VolleyStart marker belong to an implicit
        // volley 0 (hand-built traces); drivers always mark first.
        if self.volleys.is_empty() {
            self.volleys.push(VolleyTrace::default());
        }
        let last = self.volleys.len() - 1;
        &mut self.volleys[last]
    }

    fn push_spike(&mut self, unit: Unit, at: Time) {
        let position = self.volleys.len().saturating_sub(1);
        let volley = self.current();
        volley.spikes.push((unit, at));
        // Race-logic units fire at most once per volley; keep the first
        // (earliest-arriving) event if a hand-built trace repeats one.
        volley.unit_times.entry(unit).or_insert(at);
        if at.is_finite() {
            self.by_unit.entry(unit).or_default().push((position, at));
        }
    }

    /// The per-volley traces, in recording order.
    #[must_use]
    pub fn volleys(&self) -> &[VolleyTrace] {
        &self.volleys
    }

    /// The first recorded trace for declared volley index `index`.
    #[must_use]
    pub fn volley(&self, index: usize) -> Option<&VolleyTrace> {
        self.volleys.iter().find(|v| v.index == index)
    }

    /// Every `(volley position, time)` at which `unit` fired, in run
    /// order.
    #[must_use]
    pub fn firings(&self, unit: Unit) -> &[(usize, Time)] {
        self.by_unit.get(&unit).map_or(&[], Vec::as_slice)
    }

    /// Every unit that fired at least once, sorted.
    #[must_use]
    pub fn units(&self) -> Vec<Unit> {
        let mut units: Vec<Unit> = self.by_unit.keys().copied().collect();
        units.sort_unstable();
        units
    }

    /// How many STDP weight changes the run recorded.
    #[must_use]
    pub fn weight_deltas(&self) -> usize {
        self.weight_deltas
    }

    /// How many events the producing recorder dropped (0 = complete).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` when the recording is incomplete — causal queries refuse.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Total indexed events.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn sample() -> Vec<ObsEvent> {
        vec![
            ObsEvent::VolleyStart { index: 0 },
            ObsEvent::GateFired {
                gate: 0,
                op: "input",
                at: t(0),
            },
            ObsEvent::GateFired {
                gate: 2,
                op: "min",
                at: t(1),
            },
            ObsEvent::VolleyStart { index: 1 },
            ObsEvent::NeuronSpike {
                neuron: 1,
                at: t(2),
            },
            ObsEvent::WtaDecision {
                winner: Some(1),
                tied: 1,
            },
            ObsEvent::WeightDelta {
                neuron: 1,
                synapse: 0,
                before: 3,
                after: 4,
            },
        ]
    }

    #[test]
    fn indexes_by_volley_and_unit() {
        let db = SpikeDb::from_events(&sample());
        assert_eq!(db.volleys().len(), 2);
        assert_eq!(db.volley(0).unwrap().time_of(Unit::Gate(2)), t(1));
        assert_eq!(db.volley(0).unwrap().time_of(Unit::Gate(7)), Time::INFINITY);
        assert_eq!(db.volley(1).unwrap().wta, Some((Some(1), 1)));
        assert_eq!(db.firings(Unit::Neuron(1)), &[(1, t(2))]);
        assert_eq!(db.units().len(), 3);
        assert_eq!(db.weight_deltas(), 1);
        assert!(!db.is_truncated());
    }

    #[test]
    fn gate_waveform_is_dense() {
        let db = SpikeDb::from_events(&sample());
        let wave = db.volley(0).unwrap().gate_waveform(4);
        assert_eq!(wave, vec![t(0), Time::INFINITY, t(1), Time::INFINITY]);
    }

    #[test]
    fn unit_round_trips_display_and_parse() {
        for unit in [Unit::Gate(5), Unit::Wire(0), Unit::Neuron(12)] {
            assert_eq!(Unit::parse(&unit.to_string()), Some(unit));
        }
        assert_eq!(Unit::parse("7"), Some(Unit::Gate(7)));
        assert_eq!(Unit::parse("gateX"), None);
        assert_eq!(Unit::parse(""), None);
    }

    #[test]
    fn truncation_is_carried() {
        let db = SpikeDb::from_events_with_dropped(&sample(), 3);
        assert_eq!(db.dropped(), 3);
        assert!(db.is_truncated());
    }
}
