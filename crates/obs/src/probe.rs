//! The [`Probe`] trait and its two canonical implementations.
//!
//! Engines take a `&mut P where P: Probe` parameter on their
//! `*_instrumented` entry points, beside a metric sink (and, for the
//! batch engine, a span tracer). The default implementation, [`NullProbe`], reports
//! itself disabled and ignores every event; because both methods are
//! trivially inlinable, a call site instantiated with `NullProbe`
//! compiles to exactly the uninstrumented code — observation is free
//! unless you ask for it. [`Recorder`] is the concrete collector: it
//! keeps every event in arrival order for export or scoring.

use crate::event::ObsEvent;

/// A sink for engine events.
///
/// Implementors decide what to do with each [`ObsEvent`]; engines promise
/// to call [`Probe::record`] only when [`Probe::is_enabled`] returns
/// `true`, and to never let the probe influence their results (the
/// equivalence property suite pins instrumented and uninstrumented runs
/// bit-identical).
pub trait Probe {
    /// Whether this probe wants events at all. Engines guard event
    /// construction behind this, so a disabled probe pays nothing.
    fn is_enabled(&self) -> bool;

    /// Accepts one event. Only called when [`Probe::is_enabled`] is
    /// `true`.
    fn record(&mut self, event: ObsEvent);
}

/// The zero-overhead default probe: disabled, ignores everything.
///
/// Pass `&mut NullProbe` (or use the plain engine entry points, which do
/// so internally) to run without instrumentation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, event: ObsEvent) {
        let _ = event;
    }
}

/// A probe that keeps every event, in arrival order.
///
/// By default the recorder grows without bound. Long-running drivers can
/// cap it with [`Recorder::with_capacity`]: once the cap is reached,
/// further events are counted in [`Recorder::dropped`] instead of stored,
/// so memory stays bounded and the truncation is *visible* — consumers
/// that need a complete causal window (`st-insight` provenance queries)
/// check [`Recorder::is_truncated`] and refuse rather than answer wrong.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Recorder {
    events: Vec<ObsEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// An empty recorder that stores at most `capacity` events. Events
    /// recorded past the cap are dropped (and counted) rather than kept,
    /// so a long run cannot grow memory without bound.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            events: Vec::new(),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// How many events were dropped because the capacity was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` when at least one event was dropped — the recorded window
    /// is incomplete and causal queries over it would be unsound.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.dropped > 0
    }

    /// Renders the recording as versioned JSONL (schema header line
    /// first, then one event per line), carrying the dropped-event count
    /// so readers can detect truncation. See [`crate::export`].
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        crate::export::events_jsonl_with_dropped(&self.events, self.dropped)
    }

    /// The recorded events, in arrival order.
    #[must_use]
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Consumes the recorder, returning its events.
    #[must_use]
    pub fn into_events(self) -> Vec<ObsEvent> {
        self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records a [`ObsEvent::VolleyStart`] marker: subsequent engine
    /// events belong to volley `index`. Drivers call this between
    /// per-volley runs. Subject to the capacity cap like any event.
    pub fn begin_volley(&mut self, index: usize) {
        self.record(ObsEvent::VolleyStart { index });
    }
}

impl Probe for Recorder {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, event: ObsEvent) {
        if self.capacity.is_some_and(|cap| self.events.len() >= cap) {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;

    #[test]
    fn null_probe_is_disabled() {
        let mut p = NullProbe;
        assert!(!p.is_enabled());
        p.record(ObsEvent::VolleyStart { index: 0 }); // must be a no-op
    }

    #[test]
    fn recorder_keeps_arrival_order() {
        let mut r = Recorder::new();
        assert!(r.is_enabled());
        assert!(r.is_empty());
        r.begin_volley(0);
        r.record(ObsEvent::GateFired {
            gate: 3,
            op: "min",
            at: Time::finite(1),
        });
        r.begin_volley(1);
        assert_eq!(r.len(), 3);
        assert_eq!(r.events()[0], ObsEvent::VolleyStart { index: 0 });
        assert_eq!(r.events()[2], ObsEvent::VolleyStart { index: 1 });
        let events = r.into_events();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn capacity_bounds_memory_and_counts_drops() {
        let mut r = Recorder::with_capacity(2);
        assert!(!r.is_truncated());
        r.begin_volley(0);
        r.record(ObsEvent::GateFired {
            gate: 0,
            op: "min",
            at: Time::ZERO,
        });
        // The cap is reached: further events (markers included) drop.
        r.record(ObsEvent::GateFired {
            gate: 1,
            op: "max",
            at: Time::finite(1),
        });
        r.begin_volley(1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 2);
        assert!(r.is_truncated());
        // The JSONL header carries the truncation for readers.
        let jsonl = r.to_jsonl();
        let header = jsonl.lines().next().unwrap();
        assert!(
            header.contains("\"schema\":\"spacetime-obs/2\""),
            "{header}"
        );
        assert!(header.contains("\"dropped\":2"), "{header}");
    }
}
