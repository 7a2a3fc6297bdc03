//! `st-verify` — a semantic verifier for space-time artifacts.
//!
//! `st-lint` proves structural invariants; this crate proves *semantic*
//! ones, with two complementary engines:
//!
//! * **Interval abstract interpretation** over the `N0^∞` lattice —
//!   hosted in [`st_lint::interval`] (re-exported here as [`interval`])
//!   so the linter and the verifier share one set of transfer
//!   functions. [`cert::certify_graph`] turns its sound per-gate bounds
//!   into a [`cert::Certificate`]: the § IV boundedness claim (every
//!   output fires by a finite deadline or provably never), the
//!   worst-case output delay, the logic depth, and the semantically
//!   dead gates/outputs.
//! * **Bounded equivalence checking** — space-time functions over a
//!   coding window have finite normalized tables (§ IV), so
//!   [`equiv::check_equiv`] decides equivalence by exhausting every
//!   volley with entries in `{0, …, w} ∪ {∞}`, in order of increasing
//!   temporal extent. A disagreement yields a **minimal
//!   counterexample** volley, replayable through `spacetime batch`.
//!
//! [`verify_artifact`] drives both over one parsed artifact: it checks
//! every lowering the workspace defines (table ↔ Theorem 1 net ↔ GRL
//! netlist, column ↔ Fig. 12/15 net ↔ GRL), optionally checks the
//! artifact against a separate `FunctionTable` spec, and reports
//! findings through `st-lint`'s [`Report`] pipeline under the `STA1xx`
//! codes (`docs/verify.md` catalogues them). The `spacetime verify` CLI
//! subcommand and the CI verify-gate are thin wrappers around it.

// An analysis crate must not crash on the artifacts it analyzes:
// library code reports through `Report`/`Result`, never by panicking
// (tests are exempt via clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cert;
pub mod equiv;
pub mod eval;
mod json;
pub mod mutate;

pub use st_lint::interval;
pub use st_lint::{Code, Diagnostic, Interval, Location, Report, Severity};

use st_core::FunctionTable;
use st_grl::{try_compile_network, GrlCompileReason};
use st_net::synth::{synthesize, SynthesisOptions};
use st_net::Network;
use st_tnn::Column;

use cert::{certify_graph, Certificate};
use equiv::{check_equiv, Counterexample, EquivProof, EquivResult};
use eval::{ColumnEvaluator, Evaluator, GrlEvaluator, NetEvaluator, TableEvaluator};

/// A parsed artifact in one of the three on-disk text formats.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A normalized function table (`*.table`).
    Table(FunctionTable),
    /// A gate network in the `st-net` text format (`*.net`).
    Net(Network),
    /// A TNN column (`*.tnn`).
    Column(Column),
}

impl Artifact {
    /// The lowercase kind tag ("table", "net", "column").
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Table(_) => "table",
            Artifact::Net(_) => "net",
            Artifact::Column(_) => "column",
        }
    }
}

/// Knobs for one verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// The coding window to verify over. `None` picks
    /// `max(4, window the spec requires)`; an explicit smaller window
    /// still verifies but earns an `STA103` warning because equivalence
    /// beyond it is unchecked.
    pub window: Option<u64>,
}

/// Everything one verification run proves, refutes, and reports.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// The artifact kind that was verified.
    pub kind: String,
    /// The coding window every check exhausted.
    pub window: u64,
    /// The interval-analysis boundedness certificate (always produced,
    /// over the artifact's primitive-gate lowering).
    pub certificate: Certificate,
    /// One proof per equivalence check that held.
    pub proofs: Vec<EquivProof>,
    /// One minimal counterexample per check that failed.
    pub counterexamples: Vec<Counterexample>,
    /// The `STA1xx` (and window-scoped `STA006`) findings.
    pub report: Report,
}

impl VerifyOutcome {
    /// Whether verification succeeded: no error-severity findings.
    #[must_use]
    pub fn is_verified(&self) -> bool {
        self.report.is_clean()
    }

    /// Renders the outcome human-readably: certificate first, then each
    /// proof, then the diagnostics (with their embedded counterexample
    /// volleys).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.certificate.render();
        for p in &self.proofs {
            let _ = writeln!(out, "proved: {p}");
        }
        out.push_str(&self.report.render());
        out
    }
}

/// The smallest window that exercises every row of a table: the largest
/// finite entry in any canonical input pattern.
#[must_use]
pub fn required_window(table: &FunctionTable) -> u64 {
    table
        .iter()
        .flat_map(|row| row.inputs().iter().filter_map(|t| t.value()))
        .max()
        .unwrap_or(0)
}

/// The default verification window when the user gives none: wide
/// enough for every spec row plus slack, never less than 4 ticks.
const DEFAULT_WINDOW: u64 = 4;

fn run_check(
    left: &dyn Evaluator,
    right: &dyn Evaluator,
    window: u64,
    code: Code,
    outcome: &mut VerifyOutcome,
) -> Result<(), String> {
    match check_equiv(left, right, window)? {
        EquivResult::Proved(p) => outcome.proofs.push(p),
        EquivResult::Refuted(c) => {
            outcome.report.push(
                Diagnostic::new(
                    code,
                    Severity::Error,
                    Location::Output(c.output),
                    c.to_string(),
                )
                .with_hint(format!(
                    "replay: put the volley `{}` in a file and run `spacetime batch`",
                    c.volley_line()
                )),
            );
            outcome.counterexamples.push(c);
        }
    }
    Ok(())
}

/// Checks a spec table's shape against an evaluator; reports `STA104`
/// and returns `false` when the comparison cannot even start.
fn spec_shape_ok(spec: &FunctionTable, against: &dyn Evaluator, report: &mut Report) -> bool {
    let mut ok = true;
    if spec.arity() != against.input_width() {
        report.push(Diagnostic::new(
            Code::SpecShape,
            Severity::Error,
            Location::Module,
            format!(
                "spec has {} input(s) but the {} has {}; nothing was compared",
                spec.arity(),
                against.name(),
                against.input_width()
            ),
        ));
        ok = false;
    }
    if against.output_width() != 1 {
        report.push(Diagnostic::new(
            Code::SpecShape,
            Severity::Error,
            Location::Module,
            format!(
                "a table spec has exactly 1 output but the {} has {}; nothing was compared",
                against.name(),
                against.output_width()
            ),
        ));
        ok = false;
    }
    ok
}

/// Verifies one artifact: every lowering against every other, the
/// artifact against an optional table spec, and an interval-analysis
/// boundedness certificate over its primitive-gate form.
///
/// # Errors
///
/// Returns a message on *operational* failures — an evaluation error
/// inside an engine, or a verification domain too large to exhaust.
/// Semantic failures are not errors: they come back as error-severity
/// diagnostics inside [`VerifyOutcome::report`].
pub fn verify_artifact(
    artifact: &Artifact,
    spec: Option<&FunctionTable>,
    options: &VerifyOptions,
) -> Result<VerifyOutcome, String> {
    // The window every check runs over: explicit, else wide enough for
    // the spec (and, for tables, the artifact's own rows).
    let mut required = spec.map_or(0, required_window);
    if let Artifact::Table(t) = artifact {
        required = required.max(required_window(t));
    }
    let window = options.window.unwrap_or(required.max(DEFAULT_WINDOW));

    // The primitive-gate lowering carries the certificate; for a table
    // that is its Theorem 1 synthesis, for a column its Fig. 12/15
    // compilation.
    let lowered: Network = match artifact {
        Artifact::Table(t) => synthesize(t, SynthesisOptions::default()),
        Artifact::Net(n) => n.clone(),
        Artifact::Column(c) => c.to_network(),
    };
    let graph = st_net::lint::to_lint_graph(&lowered);
    let certificate = certify_graph(&graph, window, artifact.kind());

    let mut outcome = VerifyOutcome {
        kind: artifact.kind().to_owned(),
        window,
        certificate,
        proofs: Vec::new(),
        counterexamples: Vec::new(),
        report: Report::new(),
    };

    if window < required {
        outcome.report.push(
            Diagnostic::new(
                Code::VerifyWindow,
                Severity::Warning,
                Location::Module,
                format!(
                    "verification window {window} is smaller than the window {required} the \
                     spec's rows need; equivalence beyond tick {window} is unchecked"
                ),
            )
            .with_hint(format!("rerun with --window {required} (or larger)")),
        );
    }

    // Window-scoped semantic dead outputs (the certificate's STA006
    // facts, surfaced through the shared report pipeline).
    for &line in &outcome.certificate.dead_outputs.clone() {
        outcome.report.push(Diagnostic::new(
            Code::DeadGate,
            Severity::Warning,
            Location::Output(line),
            format!(
                "output line never fires for any input volley in window {window} \
                 (interval analysis)"
            ),
        ));
    }

    // Every lowering against every adjacent lowering, native form first.
    let net_eval = NetEvaluator::new(&lowered);
    match artifact {
        Artifact::Table(t) => {
            let table_eval = TableEvaluator::new(t);
            run_check(
                &table_eval,
                &net_eval,
                window,
                Code::LoweringMismatch,
                &mut outcome,
            )?;
        }
        Artifact::Net(_) => {}
        Artifact::Column(c) => {
            let col_eval = ColumnEvaluator::new(c);
            run_check(
                &col_eval,
                &net_eval,
                window,
                Code::LoweringMismatch,
                &mut outcome,
            )?;
        }
    }
    match try_compile_network(&lowered) {
        Ok(netlist) => {
            let grl_eval = GrlEvaluator::new(&netlist);
            run_check(
                &net_eval,
                &grl_eval,
                window,
                Code::LoweringMismatch,
                &mut outcome,
            )?;
        }
        // A gate that cannot be lowered is itself a lowering failure;
        // the remaining checks still run.
        Err(e) => outcome.report.push(
            Diagnostic::new(
                Code::LoweringMismatch,
                Severity::Error,
                Location::Gate(e.gate),
                format!("the GRL lowering does not exist: {e}"),
            )
            .with_hint(match e.reason {
                GrlCompileReason::Unsupported(_) => {
                    "restrict the artifact to min/max/lt/inc/const gates (§ V.C)"
                }
                GrlCompileReason::DelayTooLong { .. } => {
                    "shorten the delays: each tick of an inc is one flip-flop stage"
                }
            }),
        ),
    }

    // The artifact against its external spec, if one was given.
    if let Some(spec) = spec {
        let spec_eval = TableEvaluator::spec(spec);
        match artifact {
            Artifact::Table(t) => {
                let table_eval = TableEvaluator::new(t);
                if spec_shape_ok(spec, &table_eval, &mut outcome.report) {
                    run_check(
                        &table_eval,
                        &spec_eval,
                        window,
                        Code::SpecMismatch,
                        &mut outcome,
                    )?;
                }
            }
            Artifact::Net(_) => {
                if spec_shape_ok(spec, &net_eval, &mut outcome.report) {
                    run_check(
                        &net_eval,
                        &spec_eval,
                        window,
                        Code::SpecMismatch,
                        &mut outcome,
                    )?;
                }
            }
            Artifact::Column(c) => {
                let col_eval = ColumnEvaluator::new(c);
                if spec_shape_ok(spec, &col_eval, &mut outcome.report) {
                    run_check(
                        &col_eval,
                        &spec_eval,
                        window,
                        Code::SpecMismatch,
                        &mut outcome,
                    )?;
                }
            }
        }
    }

    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7() -> FunctionTable {
        FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap()
    }

    #[test]
    fn fig7_verifies_clean_across_all_lowerings() {
        let outcome =
            verify_artifact(&Artifact::Table(fig7()), None, &VerifyOptions::default()).unwrap();
        assert!(outcome.is_verified(), "{}", outcome.report.render());
        // table ↔ net, net ↔ grl.
        assert_eq!(outcome.proofs.len(), 2, "{:?}", outcome.proofs);
        assert_eq!(outcome.window, 4, "default = max(4, required 2)");
        assert!(outcome.certificate.bounded);
        assert!(outcome.counterexamples.is_empty());
        let rendered = outcome.render();
        assert!(rendered.contains("proved: table ≡ net"), "{rendered}");
        assert!(rendered.contains("proved: net ≡ grl"), "{rendered}");
    }

    #[test]
    fn a_wrong_spec_is_refuted_with_a_minimal_counterexample() {
        let spec = FunctionTable::parse("0 1 2 -> 4\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap();
        let outcome = verify_artifact(
            &Artifact::Table(fig7()),
            Some(&spec),
            &VerifyOptions::default(),
        )
        .unwrap();
        assert!(!outcome.is_verified());
        let findings: Vec<_> = outcome.report.with_code(Code::SpecMismatch).collect();
        assert_eq!(findings.len(), 1, "{}", outcome.report.render());
        assert_eq!(outcome.counterexamples.len(), 1);
        assert_eq!(outcome.counterexamples[0].volley_line(), "0 1 2");
        // The lowering checks themselves still pass.
        assert_eq!(outcome.proofs.len(), 2);
    }

    #[test]
    fn shape_mismatched_specs_yield_sta104_not_a_crash() {
        let narrow = FunctionTable::parse("0 -> 1\n").unwrap();
        let outcome = verify_artifact(
            &Artifact::Table(fig7()),
            Some(&narrow),
            &VerifyOptions::default(),
        )
        .unwrap();
        assert_eq!(outcome.report.with_code(Code::SpecShape).count(), 1);
        assert!(!outcome.is_verified());
    }

    #[test]
    fn small_windows_warn_sta103_but_still_verify() {
        let outcome = verify_artifact(
            &Artifact::Table(fig7()),
            None,
            &VerifyOptions { window: Some(1) },
        )
        .unwrap();
        assert_eq!(outcome.window, 1);
        assert_eq!(outcome.report.with_code(Code::VerifyWindow).count(), 1);
        // Window 1 cannot exercise rows that need tick 2, but whatever
        // it does cover still agrees.
        assert!(outcome.is_verified(), "{}", outcome.report.render());
    }

    #[test]
    fn networks_and_columns_verify_through_their_own_lowerings() {
        let net =
            st_net::parse_network("g0 = input\ng1 = input\ng2 = min g0 g1\noutputs g2\n").unwrap();
        let outcome =
            verify_artifact(&Artifact::Net(net), None, &VerifyOptions::default()).unwrap();
        assert!(outcome.is_verified(), "{}", outcome.report.render());
        assert_eq!(outcome.proofs.len(), 1, "net ↔ grl only");
        assert_eq!(outcome.kind, "net");
    }

    #[test]
    fn json_embeds_certificate_proofs_and_report() {
        let outcome =
            verify_artifact(&Artifact::Table(fig7()), None, &VerifyOptions::default()).unwrap();
        let json = outcome.to_json();
        assert!(json.contains("\"version\": 1"), "{json}");
        assert!(json.contains("\"certificate\": {"), "{json}");
        assert!(json.contains("\"proofs\": ["), "{json}");
        assert!(json.contains("\"report\": {"), "{json}");
    }
}
