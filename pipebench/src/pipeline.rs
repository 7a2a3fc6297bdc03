//! The spec → verified plan pipeline, driven through the public API in
//! the stage order `spacetime profile` uses: `compile` (front-end parse
//! and lowering) → `lint` → `opt` (with its proof gates) → `plan.build`.
//!
//! Every stage runs under a span the benchmark opens itself, named as
//! `spacetime profile` names it, and front-end calls get one child span
//! per layer (`core.parse`, `net.parse`, `net.synth`, `tnn.parse`,
//! `tnn.lower`). Where a layer has a `*_traced` entry point the tracer
//! is passed in, so its own child spans come along. With a `NullTracer`
//! every span is free and this is the untraced pipeline.

use spacetime::core::FunctionTable;
use spacetime::kernel::Plan;
use spacetime::lint::{lint_graph_traced, LintOptions, MAX_RELATIONAL_NODES};
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::{parse_network, Network};
use spacetime::opt::{optimize_network_traced, OptOptions, OptOutcome, Pass, Verdict};
use spacetime::tnn::parse_column;
use spacetime::trace::{SpanId, Tracer};
use spacetime::verify::Artifact;

use crate::corpus::{Front, Spec};

/// What the pipeline produced for one spec.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The kernel plan of the verified, optimized network.
    pub plan: Plan,
    /// Gates of the lowered network that entered lint and opt.
    pub gates_in: usize,
    /// Input lines of the lowered network: the width every proof
    /// enumerates.
    pub width: usize,
    /// Diagnostics the lint stage reported.
    pub lint_findings: usize,
    /// The optimizer's per-pass record.
    pub outcome: OptOutcome,
}

/// Runs one spec's text through parse and lowering, lint, verified opt
/// and plan build.
///
/// # Errors
///
/// Returns the front end's parse error or the optimizer's error.
pub fn compile<T: Tracer>(spec: &Spec, tracer: &mut T) -> Result<Compiled, String> {
    let compile_span = tracer.begin("compile", SpanId::NONE);
    let network = front_end(spec, tracer, compile_span);
    tracer.end(compile_span);
    let network = network?;

    let lint_span = tracer.begin("lint", SpanId::NONE);
    let report = lint_graph_traced(
        &spacetime::net::lint::to_lint_graph(&network),
        &LintOptions::default(),
        tracer,
        lint_span,
    );
    tracer.end(lint_span);

    let opt_span = tracer.begin("opt", SpanId::NONE);
    let outcome = optimize_network_traced(&network, &OptOptions::default(), tracer, opt_span);
    tracer.end(opt_span);
    let outcome = outcome.map_err(|e| format!("{}: opt: {e}", spec.name))?;
    let Artifact::Net(optimized) = &outcome.artifact else {
        return Err(format!(
            "{}: opt returned a non-network artifact",
            spec.name
        ));
    };

    let plan = Plan::from_network_traced(optimized, tracer, SpanId::NONE);
    Ok(Compiled {
        plan,
        gates_in: network.gate_count(),
        width: network.input_count(),
        lint_findings: report.diagnostics().len(),
        outcome,
    })
}

/// Parses the spec with its front end and lowers it to a gate network.
fn front_end<T: Tracer>(spec: &Spec, tracer: &mut T, parent: SpanId) -> Result<Network, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
    match spec.front {
        Front::Table => {
            let table = {
                let _span = tracer.span("core.parse", parent);
                FunctionTable::parse(&spec.text).map_err(|e| err(&e))?
            };
            let _span = tracer.span("net.synth", parent);
            Ok(synthesize(&table, SynthesisOptions::default()))
        }
        Front::Net => {
            let _span = tracer.span("net.parse", parent);
            parse_network(&spec.text).map_err(|e| err(&e))
        }
        Front::Column => {
            let column = {
                let _span = tracer.span("tnn.parse", parent);
                parse_column(&spec.text).map_err(|e| err(&e))?
            };
            let _span = tracer.span("tnn.lower", parent);
            Ok(column.to_network())
        }
    }
}

/// Exact counts of the work one or more compiles did: the deterministic
/// half of the per-layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    /// Gates entering lint and opt (`net.gates_in`).
    pub gates_in: u64,
    /// Lint diagnostics (`lint.findings`).
    pub lint_findings: u64,
    /// Pass candidates that changed the network and went to a proof
    /// gate (`opt.candidates`).
    pub candidates: u64,
    /// Candidates the proof gate refuted (`opt.rejected`).
    pub rejected: u64,
    /// Gates after verified opt (`opt.gates_out`).
    pub gates_out: u64,
    /// Gates in the built plans (`kernel.plan_gates`).
    pub plan_gates: u64,
    /// Relational folds that fell back to intervals because the network
    /// exceeded the zone analysis's node limit (`opt.zone_fallbacks`).
    pub zone_fallbacks: u64,
    /// Exhaustive proofs that completed (`verify.checks`).
    pub checks: u64,
    /// Sampled differential checks that completed
    /// (`verify.sampled_checks`).
    pub sampled_checks: u64,
    /// Volleys the completed checks evaluated: `(w+2)^width` per
    /// exhaustive proof at window `w`, the sample size per sampled one
    /// (`verify.volleys`).
    pub verify_volleys: u64,
}

impl CompileCounts {
    /// Adds one compiled spec.
    pub fn absorb(&mut self, compiled: &Compiled) {
        self.gates_in += compiled.gates_in as u64;
        self.lint_findings += compiled.lint_findings as u64;
        self.gates_out += compiled.outcome.after as u64;
        self.plan_gates += compiled.plan.gate_count() as u64;
        for record in &compiled.outcome.records {
            if record.pass == Pass::RelationalFold && record.before > MAX_RELATIONAL_NODES {
                self.zone_fallbacks += 1;
            }
            match record.verdict {
                Verdict::Unchanged => continue,
                Verdict::Proved(window) => {
                    self.checks += 1;
                    let width = u32::try_from(compiled.width).unwrap_or(u32::MAX);
                    self.verify_volleys += (window + 2).saturating_pow(width);
                }
                Verdict::Sampled(volleys) => {
                    self.sampled_checks += 1;
                    self.verify_volleys += volleys as u64;
                }
                Verdict::Rejected(_) => self.rejected += 1,
            }
            self.candidates += 1;
        }
    }
}
