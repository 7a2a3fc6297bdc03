//! `st-opt` — whole-artifact analysis and verified optimization for
//! space-time artifacts.
//!
//! The crate has three layers:
//!
//! * **facts** — one linear sweep per analysis over the shared
//!   [`st_lint::LintGraph`] IR, each with one implementation that the
//!   passes and the STA2xx tier share: spike-time intervals from
//!   [`st_lint::interval::analyze`], liveness from
//!   [`st_lint::liveness::live_set`], and congruence classes from
//!   [`value_numbers`]. The algebra's networks are feedforward and
//!   every lowering defines each source before its node, so one pass in
//!   definition order reaches every fact; no worklist is needed.
//! * **[`passes`]** — rewrite passes driven by those facts: interval
//!   constant folding, zone-domain relational folding, dead-gate
//!   elimination, hash-consed subexpression sharing, delay-chain fusion
//!   (`st_kernel::Plan::from_grl` fuses a GRL netlist's flip-flop chains
//!   the same way as it flattens them), and Theorem-1 minterm
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
pub mod manager;
pub mod passes;
mod value_number;

pub use analyze::{analyze_graph, analyze_network};
pub use manager::{
    optimize_artifact, optimize_artifact_traced, optimize_network, optimize_network_traced,
    optimize_table, optimize_table_traced, record_metrics, OptOptions, OptOutcome, Pass,
    PassRecord, Verdict, ALL_PASSES,
};
pub use value_number::value_numbers;
