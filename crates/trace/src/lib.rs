//! `st-trace`: a zero-overhead hierarchical span profiler for the
//! space-time workspace — causal timelines, flamegraph export, and the
//! self-time attribution behind `spacetime profile`.
//!
//! Everything the paper computes is a *when* (§ III volley coding makes
//! spike timing the value itself), yet `st-obs` events and `st-metrics`
//! counters only say *what* happened and *how much*. This crate answers
//! **where wall-clock time goes**: compile → lint → optimize (with the
//! verifier's proof obligations inside each pass) → plan build → batch
//! and kernel evaluation, as one tree of timed spans.
//!
//! The design requirements match the other two observability layers:
//!
//! 1. **Zero overhead when off.** [`NullTracer`] is a dead sink with
//!    `#[inline(always)]` constant methods; monomorphized engine code
//!    with a dead tracer is bit-identical to the untraced code (the
//!    workspace property suite pins this).
//! 2. **Causal across threads.** Spans carry explicit parent
//!    [`SpanId`]s, so batch chunks and kernel packets recorded in
//!    per-worker [`TraceBuffer`]s nest under the dispatching stage span
//!    across `std::thread::scope`; the caller absorbs worker buffers
//!    post-join in worker order.
//! 3. **Renderable three ways.** [`collapsed_stacks`] emits
//!    inferno-compatible flamegraph text, [`chrome_spans`] emits
//!    properly-nested Chrome `trace_event` B/E pairs with pid/tid, and
//!    [`top_table`] renders per-name self-time attribution.
//!
//! # Span vocabulary
//!
//! | Span | Recorded by |
//! |---|---|
//! | `compile` | CLI artifact construction |
//! | `lint.pass.*` | each `st-lint` graph pass |
//! | `opt.pass.*` | each verified optimizer pass (`st-opt`) |
//! | `verify.check_equiv` | the proof obligation gating a pass |
//! | `verify.window` | each input extent enumerated by the prover |
//! | `plan.build` | `st-kernel` plan construction |
//! | `batch.eval` | one batch dispatch (the volley stage) |
//! | `batch.chunk` | one worker's contiguous chunk |
//! | `kernel.packet` | one 8-volley lane packet |
//!
//! # Example
//!
//! ```
//! use st_trace::{collapsed_stacks, SpanId, TraceBuffer, Tracer};
//!
//! let mut trace = TraceBuffer::new();
//! {
//!     let mut compile = trace.span("compile", SpanId::NONE);
//!     let _plan = compile.child("plan.build");
//! }
//! let records = trace.into_records();
//! assert!(collapsed_stacks(&records).contains("compile;plan.build"));
//! ```

mod render;
mod span;

pub use render::{
    chrome_spans, collapsed_stacks, self_times, span_counts, spans_jsonl, top_rows, top_table,
    well_formed, TopRow,
};
pub use span::{NullTracer, SpanGuard, SpanId, SpanRecord, TraceBuffer, TraceMark, Tracer, OPEN};
