//! Prometheus text-format export.
//!
//! [`MetricsSnapshot`] freezes a [`MetricsRegistry`]
//! into an ordered, render-ready form; [`MetricsSnapshot::to_prom_text`]
//! emits the Prometheus exposition format (text version 0.0.4): one
//! `counter` family per counter and one `histogram` family (cumulative
//! `_bucket{le=...}` series plus `_sum`/`_count`) per histogram. Metric
//! names are the registry names with `.` mapped to `_` and a `spacetime_`
//! prefix, so `net.gate_evals` becomes `spacetime_net_gate_evals`.
//!
//! Output is deterministic: families appear in registry (name) order and
//! bucket series stop at the first bucket covering the observed maximum,
//! followed by the mandatory `+Inf` series.

use std::fmt::Write as _;

use crate::hist::{bucket_upper_bound, Histogram, BUCKET_COUNT};
use crate::registry::MetricsRegistry;

/// A frozen, render-ready view of a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

/// One-line help text for a registry metric name, mirroring the
/// catalogue tables in `docs/metrics.md`. Returns `None` for names
/// outside the documented catalogue (ad-hoc or test metrics), which
/// then render without a `# HELP` line.
#[must_use]
pub fn prom_help(name: &str) -> Option<&'static str> {
    Some(match name {
        "table.lookups" => "compiled-table evaluations",
        "net.runs" => "event-driven network evaluations",
        "net.gate_evals" => "gate evaluations popped and processed",
        "net.gate_firings" => "gates that produced a finite firing time",
        "net.queue_pushes" => "events pushed onto the priority queue",
        "net.queue_pops" => "events popped (stale pops included)",
        "net.queue_peak_depth" => "peak priority-queue depth per run",
        "grl.runs" => "cycle-accurate netlist evaluations",
        "grl.cycles" => "simulated cycles (horizon + 1 per run)",
        "grl.wire_transitions" => "1->0 wire falls during evaluation (energy proxy)",
        "grl.reset_transitions" => "0->1 reset-phase transitions",
        "grl.latch_captures" => "lt latches that captured during evaluation",
        "srm0.evals" => "neuron evaluations",
        "srm0.step_events" => "response up/down steps scheduled",
        "srm0.potential_updates" => "membrane-potential recomputations",
        "srm0.spikes" => "evaluations that crossed threshold",
        "tnn.volleys" => "column evaluations",
        "tnn.wta_decisions" => "volleys where WTA picked a winner",
        "tnn.silent_decisions" => "volleys where no neuron reached threshold",
        "stdp.presentations" => "training presentations",
        "stdp.updates" => "presentations that applied an STDP update",
        "stdp.weight_deltas" => "individual synapse weight changes",
        "stdp.rescues" => "rescue updates that changed at least one weight",
        "batch.volleys" => "volleys evaluated (successful batches only)",
        "batch.chunks" => "worker chunks processed (varies with thread count)",
        "kernel.packets" => "SWAR packets evaluated by the kernel engine",
        "kernel.gates_swar" => "gate evaluations taken on the SWAR path",
        "kernel.gates_skipped" => "gate evaluations skipped as all-silent",
        _ => return None,
    })
}

/// Maps a registry metric name to a Prometheus metric name.
#[must_use]
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("spacetime_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

impl MetricsSnapshot {
    /// Captures the current contents of a registry.
    #[must_use]
    pub fn from_registry(registry: &MetricsRegistry) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: registry
                .counters()
                .map(|(name, value)| (name.to_owned(), value))
                .collect(),
            histograms: registry
                .histograms()
                .map(|(name, h)| (name.to_owned(), h.clone()))
                .collect(),
        }
    }

    /// `true` if the snapshot holds no metrics at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    #[must_use]
    pub fn to_prom_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let prom = prom_name(name);
            if let Some(help) = prom_help(name) {
                let _ = writeln!(out, "# HELP {prom} {help}");
            }
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(out, "{prom} {value}");
        }
        for (name, h) in &self.histograms {
            let prom = prom_name(name);
            if let Some(help) = prom_help(name) {
                let _ = writeln!(out, "# HELP {prom} {help}");
            }
            let _ = writeln!(out, "# TYPE {prom} histogram");
            let last = last_used_bucket(h);
            let mut cumulative = 0u64;
            for (index, &n) in h.buckets().iter().enumerate().take(last + 1) {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{prom}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(index)
                );
            }
            let _ = writeln!(out, "{prom}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{prom}_sum {}", h.sum());
            let _ = writeln!(out, "{prom}_count {}", h.count());
        }
        out
    }
}

/// The highest bucket index with any observations (0 for empty histograms).
fn last_used_bucket(h: &Histogram) -> usize {
    h.buckets()
        .iter()
        .rposition(|&n| n > 0)
        .unwrap_or(0)
        .min(BUCKET_COUNT - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricSink;

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("net.gate_evals"), "spacetime_net_gate_evals");
        assert_eq!(prom_name("a-b c"), "spacetime_a_b_c");
    }

    #[test]
    fn renders_counters_and_histograms() {
        let mut r = MetricsRegistry::new();
        r.incr("net.gate_evals", 12);
        r.observe("net.queue_peak_depth", 3);
        r.observe("net.queue_peak_depth", 5);
        let text = MetricsSnapshot::from_registry(&r).to_prom_text();
        assert!(
            text.contains("# HELP spacetime_net_gate_evals gate evaluations popped and processed")
        );
        assert!(text.contains("# TYPE spacetime_net_gate_evals counter"));
        assert!(text
            .contains("# HELP spacetime_net_queue_peak_depth peak priority-queue depth per run"));
        assert!(text.contains("spacetime_net_gate_evals 12"));
        assert!(text.contains("# TYPE spacetime_net_queue_peak_depth histogram"));
        // 3 and 5 both have bit length 3 → bucket le="7" is cumulative 2.
        assert!(text.contains("spacetime_net_queue_peak_depth_bucket{le=\"7\"} 2"));
        assert!(text.contains("spacetime_net_queue_peak_depth_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("spacetime_net_queue_peak_depth_sum 8"));
        assert!(text.contains("spacetime_net_queue_peak_depth_count 2"));
    }

    #[test]
    fn buckets_are_cumulative() {
        let mut r = MetricsRegistry::new();
        r.observe("h", 0); // bucket 0
        r.observe("h", 1); // bucket 1
        r.observe("h", 2); // bucket 2
        let text = MetricsSnapshot::from_registry(&r).to_prom_text();
        assert!(text.contains("spacetime_h_bucket{le=\"0\"} 1"));
        assert!(text.contains("spacetime_h_bucket{le=\"1\"} 2"));
        assert!(text.contains("spacetime_h_bucket{le=\"3\"} 3"));
    }

    #[test]
    fn empty_snapshot_renders_nothing() {
        let snap = MetricsSnapshot::from_registry(&MetricsRegistry::new());
        assert!(snap.is_empty());
        assert_eq!(snap.to_prom_text(), "");
    }
}
