//! `st-metrics`: engine performance counters, histograms, and the bench
//! report schema for the space-time computing workspace.
//!
//! Where `st-obs` answers *what happened* (event streams, rasters,
//! traces), this crate answers *how much and how fast*: every engine's
//! instrumented entry point (`run_instrumented`, `eval_instrumented`, …)
//! is generic over a [`MetricSink`] that accumulates named monotonic
//! counters (gate evaluations, event-queue traffic, GRL wire transitions
//! — the ISCA 2018 paper's energy proxy — SRM0 potential updates, STDP
//! weight deltas) and fixed-bucket [`Histogram`]s (queue depth,
//! per-volley/per-chunk wall clocks).
//!
//! The design requirements, in order:
//!
//! 1. **Zero overhead when off.** [`NullMetrics`] is a dead sink whose
//!    methods are `#[inline(always)]` constants; monomorphized engine
//!    code with a dead sink is bit- and speed-identical to the
//!    pre-metrics code (the workspace property suite pins bit-equality).
//! 2. **Deterministic under parallelism.** Batch chunks aggregate into
//!    private [`MetricsRegistry`] instances; the calling thread
//!    [`absorb`](MetricSink::absorb)s them in worker order after join.
//!    Histogram [`merge`](Histogram::merge) is associative and
//!    commutative, registries iterate name-ordered — so snapshots are
//!    identical run-to-run regardless of scheduling.
//! 3. **Machine-readable.** [`MetricsSnapshot::to_prom_text`] renders
//!    Prometheus exposition text; [`BenchReport`] round-trips the
//!    schema-versioned `BENCH_<label>.json` the `spacetime bench`
//!    harness writes, and [`compare`] gates regressions against a
//!    committed baseline.
//!
//! Reports and ledger rows are read through the workspace's one JSON
//! reader, [`st_core::json`]. Counts are held as exact integers, so a
//! nanosecond total past 2^53 reads back as itself, and objects print
//! their keys sorted, so a parsed report re-renders byte-identically.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod hist;
pub mod prom;
pub mod registry;
pub mod report;
pub mod trend;

pub use hist::{bucket_index, bucket_upper_bound, nearest_rank, Histogram, BUCKET_COUNT};
pub use prom::{prom_help, prom_name, MetricsSnapshot};
pub use registry::{MetricSink, MetricsRegistry, NullMetrics};
pub use report::{
    compare, BenchReport, CompareOutcome, CompareRow, HistSummary, MachineInfo, Scenario,
    WallStats, SCHEMA,
};
pub use trend::{parse_history, render_trend, TrendRow, TREND_SCHEMA};
