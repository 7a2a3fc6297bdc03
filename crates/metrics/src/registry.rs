//! The [`MetricSink`] trait and the collecting [`MetricsRegistry`].
//!
//! This mirrors the `st-obs` probe pattern exactly: engines expose
//! `*_metered` entry points generic over `M: MetricSink`, guard every
//! metric interaction behind [`MetricSink::is_live`], and the plain entry
//! points instantiate them with [`NullMetrics`], whose methods are
//! `#[inline(always)]` constants — after monomorphization the unmetered
//! code is exactly what was there before metrics existed.
//!
//! Unlike probes (which record a *stream*), sinks aggregate in place:
//! counters are monotonic sums keyed by a static name, histograms are
//! fixed-bucket distributions. Both live in `BTreeMap`s, so iteration —
//! and therefore every export — is deterministically name-ordered, and
//! merging per-worker registries in worker order yields the same snapshot
//! on every run regardless of thread scheduling.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// A sink for engine performance metrics.
///
/// Engines promise to call the recording methods only when
/// [`MetricSink::is_live`] returns `true`, and to never let the sink
/// influence their results (the workspace property suite pins metered and
/// plain runs bit-identical).
pub trait MetricSink {
    /// Whether this sink wants metrics at all. Engines hoist this into a
    /// local `bool` at entry, so a dead sink pays nothing — not even the
    /// bookkeeping needed to produce the numbers.
    fn is_live(&self) -> bool;

    /// Adds `by` to the named monotonic counter.
    fn incr(&mut self, counter: &'static str, by: u64);

    /// Records one observation into the named histogram.
    fn observe(&mut self, histogram: &'static str, value: u64);

    /// Folds a whole registry in (counters added, histograms merged
    /// bucket-wise). The batch engine's workers aggregate into private
    /// registries and the calling thread absorbs them post-join in worker
    /// order, keeping the merged result deterministic.
    fn absorb(&mut self, other: &MetricsRegistry);
}

/// The zero-overhead default sink: dead, ignores everything.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NullMetrics;

impl MetricSink for NullMetrics {
    #[inline(always)]
    fn is_live(&self) -> bool {
        false
    }

    #[inline(always)]
    fn incr(&mut self, _counter: &'static str, _by: u64) {}

    #[inline(always)]
    fn observe(&mut self, _histogram: &'static str, _value: u64) {}

    #[inline(always)]
    fn absorb(&mut self, _other: &MetricsRegistry) {}
}

/// The collecting sink: named monotonic counters plus named fixed-bucket
/// histograms, in deterministic (name) order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The value of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if anything was observed into it.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&name, &value)| (name, value))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&name, h)| (name, h))
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

impl MetricSink for MetricsRegistry {
    #[inline]
    fn is_live(&self) -> bool {
        true
    }

    #[inline]
    fn incr(&mut self, counter: &'static str, by: u64) {
        *self.counters.entry(counter).or_insert(0) += by;
    }

    #[inline]
    fn observe(&mut self, histogram: &'static str, value: u64) {
        self.histograms.entry(histogram).or_default().observe(value);
    }

    fn absorb(&mut self, other: &MetricsRegistry) {
        for (&name, &value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (&name, histogram) in &other.histograms {
            self.histograms.entry(name).or_default().merge(histogram);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_metrics_is_dead() {
        let mut m = NullMetrics;
        assert!(!m.is_live());
        m.incr("x", 1); // must be no-ops
        m.observe("y", 2);
        m.absorb(&MetricsRegistry::new());
    }

    #[test]
    fn registry_accumulates() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_live());
        assert!(r.is_empty());
        r.incr("net.gate_evals", 3);
        r.incr("net.gate_evals", 2);
        r.observe("net.queue_peak_depth", 100);
        r.observe("net.queue_peak_depth", 200);
        assert_eq!(r.counter("net.gate_evals"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.histogram("net.queue_peak_depth").unwrap().count(), 2);
        assert!(r.histogram("missing").is_none());
    }

    #[test]
    fn absorb_merges_both_kinds_commutatively() {
        let mut a = MetricsRegistry::new();
        a.incr("c", 1);
        a.observe("h", 10);
        let mut b = MetricsRegistry::new();
        b.incr("c", 2);
        b.incr("d", 7);
        b.observe("h", 20);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 3);
        assert_eq!(ab.counter("d"), 7);
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
        assert_eq!(ab.histogram("h").unwrap().sum(), 30);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut r = MetricsRegistry::new();
        r.incr("zeta", 1);
        r.incr("alpha", 1);
        r.incr("mid", 1);
        let names: Vec<&str> = r.counters().map(|(name, _)| name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }
}
