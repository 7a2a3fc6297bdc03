//! Per-layer metrics of a traced run, computed from its span records,
//! the batch evaluator's `kernel.*`/`batch.*` counters and the
//! optimizer's per-pass record.
//!
//! Stage times are `st_trace::self_times` aggregates. The batch layer is
//! the exception: its worker chunks run in parallel, so the time a call
//! spends outside its chunks (dispatch) and the time its chunks or
//! packets cover are measured as unions of span intervals on the shared
//! trace clock. Summing overlapping children, as self time does, would
//! count a two-worker call's chunk time twice.

use std::collections::BTreeMap;

use spacetime::metrics::MetricsRegistry;
use spacetime::trace::{self_times, SpanId, SpanRecord};

use crate::pipeline::CompileCounts;
use crate::Metric;

/// One traced batch call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// The `batch.eval` span the benchmark opened around the call.
    pub span: SpanId,
    /// Volleys in the call.
    pub volleys: u64,
    /// Whether the plan's lane check failed, so the whole call took the
    /// scalar fallback.
    pub fallback: bool,
}

/// The optimizer passes whose self time is reported one by one.
const OPT_PASSES: [(&str, &str); 5] = [
    ("opt.pass.constant_fold", "opt.pass.constant_fold.self_ms"),
    (
        "opt.pass.relational_fold",
        "opt.pass.relational_fold.self_ms",
    ),
    (
        "opt.pass.fuse_delay_chains",
        "opt.pass.fuse_delay_chains.self_ms",
    ),
    (
        "opt.pass.share_subexpressions",
        "opt.pass.share_subexpressions.self_ms",
    ),
    ("opt.pass.eliminate_dead", "opt.pass.eliminate_dead.self_ms"),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
#[must_use]
pub fn layer_metrics(
    records: &[SpanRecord],
    registry: &MetricsRegistry,
    counts: &CompileCounts,
    calls: &[Call],
    overhead_pct: f64,
) -> Vec<Metric> {
    let own = self_times(records);
    let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let prefixed_ms = |prefix: &str| {
        own.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &nanos)| nanos as f64 / 1e6)
            .sum::<f64>()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count =
        |name: &'static str, value: u64, unit: &'static str| Metric::new(name, value as f64, unit);

    let verify_ms = ms("verify.check_equiv") + ms("verify.window");
    let batch = BatchTimes::new(records, calls);
    let gates_swar = registry.counter("kernel.gates_swar");
    let gates_skipped = registry.counter("kernel.gates_skipped");
    let scalar_volleys = registry.counter("kernel.volleys");
    let volleys: u64 = calls.iter().map(|c| c.volleys).sum();
    let packet_ns = own.get("kernel.packet").copied().unwrap_or(0) as f64;

    let mut metrics = vec![
        Metric::new("verify.ms", verify_ms, "ms"),
        count("verify.checks", counts.checks, "count"),
        count("verify.sampled_checks", counts.sampled_checks, "count"),
        count("verify.volleys", counts.verify_volleys, "count"),
        Metric::new(
            "verify.volleys_per_s",
            ratio(counts.verify_volleys as f64, verify_ms / 1e3),
            "1/s",
        ),
        Metric::new("opt.ms", ms("opt") + prefixed_ms("opt.pass."), "ms"),
    ];
    for (span, metric) in OPT_PASSES {
        metrics.push(Metric::new(metric, ms(span), "ms"));
    }
    metrics.extend([
        count("opt.zone_fallbacks", counts.zone_fallbacks, "count"),
        count("opt.candidates", counts.candidates, "count"),
        count("opt.rejected", counts.rejected, "count"),
        Metric::new(
            "opt.accept_ratio",
            ratio(
                (counts.candidates - counts.rejected) as f64,
                counts.candidates as f64,
            ),
            "fraction",
        ),
        count("opt.gates_out", counts.gates_out, "gates"),
        count("kernel.plan_gates", counts.plan_gates, "gates"),
        Metric::new("core.parse_ms", ms("core.parse"), "ms"),
        Metric::new("net.parse_ms", ms("net.parse"), "ms"),
        Metric::new("tnn.parse_ms", ms("tnn.parse"), "ms"),
        Metric::new("net.synth_ms", ms("net.synth"), "ms"),
        Metric::new("tnn.lower_ms", ms("tnn.lower"), "ms"),
        count("net.gates_in", counts.gates_in, "gates"),
        Metric::new("lint.ms", ms("lint") + prefixed_ms("lint.pass."), "ms"),
        count("lint.findings", counts.lint_findings, "count"),
        Metric::new("kernel.plan_ms", ms("plan.build"), "ms"),
        count(
            "kernel.packets",
            registry.counter("kernel.packets"),
            "count",
        ),
        count("kernel.gates_swar", gates_swar, "count"),
        count("kernel.gates_skipped", gates_skipped, "count"),
        Metric::new(
            "kernel.skip_ratio",
            ratio(gates_skipped as f64, (gates_swar + gates_skipped) as f64),
            "fraction",
        ),
        Metric::new("kernel.packet_ms", batch.packet_ns / 1e6, "ms"),
        Metric::new(
            "kernel.ns_per_swar_gate",
            ratio(packet_ns, gates_swar as f64),
            "ns",
        ),
        count("batch.calls", calls.len() as u64, "count"),
        count("batch.volleys", volleys, "count"),
        Metric::new("batch.ms", batch.call_ns / 1e6, "ms"),
        Metric::new("batch.dispatch_ms", batch.dispatch_ns / 1e6, "ms"),
        count("batch.spawned_calls", batch.spawned_calls, "count"),
        Metric::new(
            "batch.spawn_wait_us",
            ratio(batch.spawn_wait_ns / 1e3, batch.spawned_calls as f64),
            "us",
        ),
        Metric::new("batch.join_wait_ms", batch.join_wait_ns / 1e6, "ms"),
        count(
            "kernel.fallback_calls",
            calls.iter().filter(|c| c.fallback).count() as u64,
            "count",
        ),
        count("kernel.scalar_volleys", scalar_volleys, "count"),
        Metric::new(
            "kernel.swar_share",
            ratio(
                volleys.saturating_sub(scalar_volleys) as f64,
                volleys as f64,
            ),
            "fraction",
        ),
        Metric::new("kernel.scalar_ms", batch.scalar_ns / 1e6, "ms"),
        Metric::new("trace.overhead_pct", overhead_pct, "%"),
    ]);
    metrics
}

/// Wall-clock decomposition of the traced batch calls.
#[derive(Debug, Default)]
struct BatchTimes {
    /// Summed call durations.
    call_ns: f64,
    /// Call time covered by none of the call's chunks.
    dispatch_ns: f64,
    /// Call time covered by at least one packet.
    packet_ns: f64,
    /// Chunk-covered time of calls that took the scalar fallback.
    scalar_ns: f64,
    /// Calls that ran chunks on spawned workers.
    spawned_calls: u64,
    /// Summed delay from a spawned call's start to its last worker's
    /// chunk start.
    spawn_wait_ns: f64,
    /// Summed delay from a spawned call's last chunk end to its return.
    join_wait_ns: f64,
}

impl BatchTimes {
    fn new(records: &[SpanRecord], calls: &[Call]) -> BatchTimes {
        let by_id: BTreeMap<SpanId, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
        let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
        for record in records {
            children.entry(record.parent).or_default().push(record);
        }
        let mut times = BatchTimes::default();
        for call in calls {
            let Some(&record) = by_id.get(&call.span).filter(|r| r.is_closed()) else {
                continue;
            };
            let (lo, hi) = (record.start_nanos, record.end_nanos);
            let chunks: Vec<&SpanRecord> = children
                .get(&call.span)
                .map(|list| {
                    list.iter()
                        .copied()
                        .filter(|r| r.name == "batch.chunk")
                        .collect()
                })
                .unwrap_or_default();
            let packets: Vec<(u64, u64)> = chunks
                .iter()
                .flat_map(|chunk| children.get(&chunk.id).into_iter().flatten())
                .map(|p| (p.start_nanos, p.end_nanos))
                .collect();
            let chunk_spans: Vec<(u64, u64)> = chunks
                .iter()
                .map(|c| (c.start_nanos, c.end_nanos))
                .collect();
            let chunk_covered = covered(chunk_spans.clone(), lo, hi);
            times.call_ns += (hi - lo) as f64;
            times.dispatch_ns += (hi - lo).saturating_sub(chunk_covered) as f64;
            times.packet_ns += covered(packets, lo, hi) as f64;
            if call.fallback {
                times.scalar_ns += chunk_covered as f64;
            }
            if chunks.iter().any(|c| c.tid != 0) {
                times.spawned_calls += 1;
                let last_start = chunk_spans.iter().map(|s| s.0).max().unwrap_or(lo);
                let last_end = chunk_spans.iter().map(|s| s.1).max().unwrap_or(hi);
                times.spawn_wait_ns += last_start.saturating_sub(lo) as f64;
                times.join_wait_ns += hi.saturating_sub(last_end) as f64;
            }
        }
        times
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::covered;

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered(vec![(2, 6), (4, 9), (12, 14)], 0, 13), 8);
        assert_eq!(covered(vec![(0, 10), (1, 2)], 3, 5), 2);
        assert_eq!(covered(Vec::new(), 0, 5), 0);
    }
}
