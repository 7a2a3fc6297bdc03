//! `pipebench`: the benchmark of record for the spec → volley pipeline.
//!
//! One command runs a named workload from a seed. It drives the public
//! API from outside through the stages `spacetime profile` runs (parse
//! and lowering, `st_lint::lint_graph`, `st_opt::optimize_network` with
//! its `st_verify` proof gates, `st_kernel::Plan::from_network`,
//! `spacetime::batch::BatchEvaluator::eval`), checks every output against
//! the spec's own evaluator, and prints the end-to-end metrics, its
//! timings scaled to a reference machine speed ([`speed`]). A traced run
//! of the same workload and seed prints the per-layer metrics.
//! `WORKLOADS.md` beside this crate says why each workload exists and
//! which end-to-end metric each layer metric should move.

pub mod corpus;
pub mod layers;
pub mod oracle;
pub mod pipeline;
pub mod speed;
pub mod stats;
pub mod workload;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}
