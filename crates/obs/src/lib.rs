//! # st-obs — unified observability for the space-time stack
//!
//! The paper's constructions are all *temporal*: the interesting behavior
//! is **when** each wire falls, each neuron fires, each WTA winner is
//! chosen. This crate gives every engine in the workspace one shared way
//! to expose those moments without paying for them when nobody is
//! watching:
//!
//! | Module | Contents |
//! |---|---|
//! | [`probe`] | the [`Probe`] trait, the zero-overhead [`NullProbe`], the collecting [`Recorder`] |
//! | [`event`] | the typed [`ObsEvent`] vocabulary every engine shares |
//! | [`export`] | spike-raster CSV, JSONL, Chrome `trace_event` exporters |
//!
//! Every time an event carries is a model time. Two sibling crates apply
//! the same zero-overhead pattern to the other observability axes:
//! `st-metrics` (counters and histograms behind `MetricSink`) and
//! `st-trace` (hierarchical wall-clock spans behind `Tracer`, rendered as
//! flamegraphs and Chrome timelines by `spacetime profile`) — the one
//! place a duration is recorded. Run summaries over an event stream live
//! in `st-insight` (`InsightStats`).
//!
//! ## The zero-overhead contract
//!
//! Engines expose `*_instrumented` entry points generic over `P: Probe`
//! (and a metric sink) and guard every event construction behind
//! [`Probe::is_enabled`]. The plain entry points instantiate them with
//! [`NullProbe`], whose two methods are `#[inline(always)]` constants —
//! the optimizer erases the instrumentation entirely, so existing call
//! sites compile to exactly the pre-observability code. The workspace property suite additionally
//! pins the semantic half of the contract: a [`Recorder`]-instrumented
//! run returns bit-identical results to an uninstrumented one, across
//! all four engines and any thread count.
//!
//! ## Example
//!
//! ```
//! use st_obs::{events_jsonl, spike_raster_csv, ObsEvent, Probe, Recorder};
//! use st_core::Time;
//!
//! // An engine records what happened…
//! let mut recorder = Recorder::new();
//! recorder.begin_volley(0);
//! recorder.record(ObsEvent::GateFired { gate: 2, op: "min", at: Time::finite(3) });
//!
//! // …and the same trace renders as a raster or as a JSONL log.
//! assert!(spike_raster_csv(recorder.events()).contains("0,3,net,gate2:min"));
//! assert_eq!(events_jsonl(recorder.events()).lines().count(), 3);
//! ```
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod event;
pub mod export;
pub mod probe;

pub use event::ObsEvent;
pub use export::{
    chrome_trace, events_jsonl, events_jsonl_with_dropped, spike_raster_csv, JSONL_SCHEMA,
};
pub use probe::{NullProbe, Probe, Recorder};
