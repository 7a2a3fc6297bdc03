//! # st-insight — semantic analysis over recorded space-time traces
//!
//! The observability triple (`st-obs` probes, `st-metrics` counters,
//! `st-trace` spans) answers *what happened* and *how fast*. This crate
//! answers the question the paper's model makes central: space-time
//! functions are causal (§ II), so every output spike has a bounded
//! backward cone of influence through the gate graph's delayed fan-in —
//! and that cone is computable from a recorded run. Three query families
//! share one indexed spike database:
//!
//! | Module | Contents |
//! |---|---|
//! | [`db`] | [`SpikeDb`]: per-volley, per-unit index over recorded [`st_obs::ObsEvent`] streams |
//! | [`trace_io`] | reading `spacetime-obs/2` (and `/1`) JSONL traces back with schema validation |
//! | [`cone`] | [`cone::why`]: causal provenance — the backward cone of influence of one `(gate, time)` event, with a verified, batch-replayable witness volley |
//! | [`diff`] | cross-run divergence diffing: the *first* divergent event in topological+time order, gate-level or output-level |
//! | [`analytics`] | § III.A volley-coding statistics: firing rates, spike-time histograms, temporal extent, WTA margins |
//!
//! The `spacetime inspect` CLI subcommand is a thin wrapper over these
//! (`docs/observability.md` has a query cookbook).
//!
//! ## Causality, concretely
//!
//! The cone rules follow directly from the primitive semantics over
//! `N0^∞` with `∞`-dominance:
//!
//! * `inc δ` — the (sole) source event, δ ticks earlier.
//! * `min` — the source(s) that *achieved* the minimum; later sources
//!   could be removed (set to `∞`) without changing the output.
//! * `max` — every source: the output waits for the last arrival, so
//!   silencing any earlier source would silence the output.
//! * `lt a b` — `a`'s event **and** `b` as an inhibitor: whether the
//!   output fired at all was decided by `b`'s (non-)arrival, so `b`'s
//!   timing is causal even when no `b` event appears in the output.
//!
//! Silence (`t = ∞`) is a queryable outcome too — "why did this gate
//! *not* fire" walks the same rules dualized (all `min` sources, the
//! inhibitor that won the `lt` race, the silent `max` source).
//!
//! ## Example
//!
//! ```
//! use st_insight::{cone, db::SpikeDb};
//! use st_lint::{LintGraph, LintOp};
//! use st_core::Time;
//!
//! // y = lt(min(x0+1, x1), x2) — the paper's Fig. 6(b).
//! let mut g = LintGraph::new(3);
//! let a = g.push(LintOp::Input(0), vec![]);
//! let x = g.push(LintOp::Input(1), vec![]);
//! let c = g.push(LintOp::Input(2), vec![]);
//! let a1 = g.push(LintOp::Inc(1), vec![a]);
//! let m = g.push(LintOp::Min, vec![a1, x]);
//! let y = g.push(LintOp::Lt, vec![m, c]);
//! g.set_outputs(vec![y]);
//!
//! let t = Time::finite;
//! let values = cone::eval_graph(&g, &[t(0), t(3), t(2)])?;
//! assert_eq!(values[y], t(1));
//!
//! // Why did y fire at 1? Because a fired at 0, delayed to 1, won the
//! // min, and beat the inhibitor c — x1's event at 3 is *not* causal.
//! let prov = cone::why(&g, &values, 0, y, t(1))?;
//! assert!(prov.gates().contains(&a));
//! assert!(!prov.gates().contains(&x));
//! // The witness silences the non-causal line and still reproduces it.
//! assert_eq!(prov.witness, vec![t(0), Time::INFINITY, t(2)]);
//! # Ok::<(), st_insight::InsightError>(())
//! ```
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analytics;
pub mod cone;
pub mod db;
pub mod diff;
pub mod trace_io;

pub use analytics::{InsightStats, UnitSummary};
pub use cone::{eval_graph, why, ProvEdge, Provenance};
pub use db::{SpikeDb, Unit, VolleyTrace};
pub use diff::{diff_gate_runs, diff_output_runs, GateDivergence, OutputDivergence};
pub use trace_io::{parse_trace, ParsedTrace};

use core::fmt;

/// Everything that can go wrong answering an insight query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsightError {
    /// The trace (or its header) is not a valid `spacetime-obs` JSONL
    /// document.
    BadTrace {
        /// 1-based line of the problem (0 for whole-file problems).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The recording was truncated by a capacity-bounded `Recorder`;
    /// causal queries over an incomplete window would silently be wrong,
    /// so they are refused instead.
    Truncated {
        /// How many events the recorder dropped.
        dropped: u64,
    },
    /// The gate graph is malformed (forward/self reference, bad arity,
    /// out-of-range source) — insight queries need a well-formed
    /// feedforward graph, which every workspace lowering guarantees.
    MalformedGraph {
        /// The offending node index.
        node: usize,
        /// What was wrong.
        message: String,
    },
    /// The queried event does not match the recorded run (wrong gate,
    /// wrong time, or wrong volley).
    QueryMismatch {
        /// What the query asked about.
        message: String,
    },
    /// The recorded trace and the supplied gate graph disagree — the
    /// trace was produced by a different artifact (or engine).
    TraceMismatch {
        /// What disagreed.
        message: String,
    },
    /// The two runs being diffed are not comparable (different volley
    /// counts or widths).
    ShapeMismatch {
        /// What disagreed.
        message: String,
    },
}

impl fmt::Display for InsightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InsightError::BadTrace { line: 0, message } => {
                write!(f, "not a spacetime-obs trace: {message}")
            }
            InsightError::BadTrace { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            InsightError::Truncated { dropped } => write!(
                f,
                "the recording dropped {dropped} event(s) at its capacity cap; provenance \
                 over a truncated window would be unsound (re-record with a larger capacity)"
            ),
            InsightError::MalformedGraph { node, message } => {
                write!(f, "malformed gate graph at node {node}: {message}")
            }
            InsightError::QueryMismatch { message } => write!(f, "{message}"),
            InsightError::TraceMismatch { message } => {
                write!(f, "trace does not match the artifact: {message}")
            }
            InsightError::ShapeMismatch { message } => {
                write!(f, "runs are not comparable: {message}")
            }
        }
    }
}

impl std::error::Error for InsightError {}
