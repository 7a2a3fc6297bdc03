//! `st-opt` — whole-artifact dataflow analysis and verified
//! optimization for space-time artifacts.
//!
//! The crate has three layers:
//!
//! * **[`dataflow`]** — a generic monotone framework over the shared
//!   [`st_lint::LintGraph`] IR: a worklist solver seeded in topological
//!   order, with pluggable domains. Three ship: the forward interval
//!   domain (the same `N0^∞` transfer functions as
//!   [`st_lint::interval`]), a backward liveness domain, and a forward
//!   value-numbering domain for congruence classes.
//! * **[`passes`]** — rewrite passes driven by those facts: interval
//!   constant folding, dead-gate elimination, hash-consed subexpression
//!   sharing, delay-chain fusion (the lint-graph form `st-kernel` lowers
//!   GRL through lives in `st_kernel::graphopt`), and Theorem-1 minterm
//!   minimization for tables.
//! * **[`manager`]** — the verified pipeline: every pass's candidate is
//!   gated behind `st-verify` bounded equivalence before it is
//!   committed, so an unsound rewrite is *rejected with a minimal
//!   counterexample*, never shipped. [`analyze`] surfaces the same
//!   facts advisorily as the `STA201`–`STA203` diagnostic tier through
//!   `st-lint`'s `Report` pipeline; the pipeline does not run it, its
//!   one renderer (`spacetime opt`) does, on its input.
//!
//! The `spacetime opt` CLI subcommand and the CI opt-gate are thin
//! wrappers over [`optimize_artifact`]; `docs/opt.md` is the user-level
//! tour.

// An analysis crate must not crash on the artifacts it analyzes:
// library code reports through `Report`/`Result`, never by panicking
// (tests are exempt via clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analyze;
pub mod dataflow;
pub mod manager;
pub mod passes;

pub use analyze::{analyze_graph, analyze_network};
pub use manager::{
    optimize_artifact, optimize_artifact_traced, optimize_network, optimize_network_traced,
    optimize_table, optimize_table_traced, record_metrics, OptOptions, OptOutcome, Pass,
    PassRecord, Verdict, ALL_PASSES,
};
