//! The verified pass manager.
//!
//! A pass is a *candidate generator*: it proposes a rewritten artifact,
//! or none when it would reproduce its input (recorded
//! [`Verdict::Unchanged`], at no proof cost), and the manager only
//! commits a candidate after `st-verify` bounded equivalence proves it
//! agrees with the current artifact on every normalized volley in the
//! window. A refuted candidate is dropped on the floor — the pipeline
//! continues from the last accepted artifact — and the refutation (with
//! its minimal counterexample volley) lands in the outcome's [`Report`]
//! as an error, so `spacetime opt --check` fails loudly instead of
//! shipping a miscompile. The report holds nothing else: the STA2xx
//! opportunity tier ([`crate::analyze`]) is computed by its one
//! renderer, `spacetime opt`, on the artifact it reads.
//!
//! When the exhaustive domain `(window + 2)^width` would exceed the
//! checker's ceiling, the manager first shrinks the window, and if even
//! window 0 is infeasible it falls back to a deterministic seeded
//! differential sample. Sampled acceptance is recorded as such in the
//! [`PassRecord`], never silently conflated with a proof.
//!
//! A network pipeline checks every candidate against the *original*
//! network, through one [`Reference`] per run. A candidate accepted by
//! a proof agrees with the original on the whole window, and one
//! accepted on a sample agrees with it on that sample (every sampled
//! check of a run draws the same volleys), so every verdict and
//! counterexample is the one a check against the previous pass's
//! network would give, while each proof evaluates only the candidate:
//! its plan runs over the original's stored walk. The original is
//! flattened, and its walk stored, on the run's first proof, inside
//! that proof's `verify.check_equiv` span; a run whose passes propose
//! nothing stores nothing. Each side's plan is the live cone of its
//! network, and the reference keeps its last proof: a candidate whose
//! plan equals the last one proved, at the same window and walk kind —
//! typically `eliminate_dead`'s, which only drops the gates the proved
//! `share_subexpressions` candidate left dead — gets that proof back
//! without a walk, and its `verify.check_equiv` span has no
//! `verify.window` spans under it.

use std::cell::OnceCell;
use std::time::Instant;

use st_core::{FunctionTable, Time, Volley};
use st_lint::{Code, Diagnostic, Location, Report, Severity};
use st_metrics::MetricSink;
use st_net::Network;
use st_trace::{NullTracer, SpanId, Tracer};
use st_verify::equiv::{check_sampled, feasible_window, EquivResult, Reference};
use st_verify::eval::{ByteBlock, Evaluator, NetEvaluator, Plan, TableEvaluator};
use st_verify::{required_window, Artifact};

use crate::passes;

/// The default bounded-equivalence window, matching `st-verify`'s.
const DEFAULT_WINDOW: u64 = 4;

/// Volleys drawn by the seeded differential fallback when even an
/// exhaustive window-0 sweep is infeasible.
const SAMPLE_VOLLEYS: usize = 4096;

/// One optimization pass, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Interval-driven constant folding (`constant_fold`).
    ConstantFold,
    /// Zone-domain relational folding (`relational_fold`): rewrites
    /// decided by difference-bound facts over *pairs* of spike times.
    RelationalFold,
    /// Delay-chain fusion (`fuse_delay_chains`).
    FuseDelayChains,
    /// Hash-consed common-subexpression sharing
    /// (`share_subexpressions`).
    ShareSubexpressions,
    /// Dead-gate elimination (`eliminate_dead`).
    EliminateDead,
    /// Theorem-1 minterm minimization (`minimize_table`).
    MinimizeTable,
}

/// Every pass, in the order the default network pipeline runs them
/// (minimization last; it only applies to tables).
pub const ALL_PASSES: [Pass; 6] = [
    Pass::ConstantFold,
    Pass::RelationalFold,
    Pass::FuseDelayChains,
    Pass::ShareSubexpressions,
    Pass::EliminateDead,
    Pass::MinimizeTable,
];

impl Pass {
    /// The CLI/metrics name of the pass.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Pass::ConstantFold => "constant_fold",
            Pass::RelationalFold => "relational_fold",
            Pass::FuseDelayChains => "fuse_delay_chains",
            Pass::ShareSubexpressions => "share_subexpressions",
            Pass::EliminateDead => "eliminate_dead",
            Pass::MinimizeTable => "minimize_table",
        }
    }

    /// Parses a pass name as written on the CLI.
    #[must_use]
    pub fn parse(name: &str) -> Option<Pass> {
        ALL_PASSES.iter().copied().find(|p| p.name() == name)
    }

    /// The per-pass wall-time histogram name.
    fn nanos_metric(self) -> &'static str {
        match self {
            Pass::ConstantFold => "opt.pass.constant_fold.nanos",
            Pass::RelationalFold => "opt.pass.relational_fold.nanos",
            Pass::FuseDelayChains => "opt.pass.fuse_delay_chains.nanos",
            Pass::ShareSubexpressions => "opt.pass.share_subexpressions.nanos",
            Pass::EliminateDead => "opt.pass.eliminate_dead.nanos",
            Pass::MinimizeTable => "opt.pass.minimize_table.nanos",
        }
    }

    /// The per-pass span name recorded by the traced pipeline.
    fn span_name(self) -> &'static str {
        match self {
            Pass::ConstantFold => "opt.pass.constant_fold",
            Pass::RelationalFold => "opt.pass.relational_fold",
            Pass::FuseDelayChains => "opt.pass.fuse_delay_chains",
            Pass::ShareSubexpressions => "opt.pass.share_subexpressions",
            Pass::EliminateDead => "opt.pass.eliminate_dead",
            Pass::MinimizeTable => "opt.pass.minimize_table",
        }
    }
}

/// Knobs for one optimization run.
#[derive(Debug, Clone, Default)]
pub struct OptOptions {
    /// The passes to run, in order. `None` runs the default pipeline
    /// for the artifact kind: fold → relational fold → fuse → share →
    /// sweep for networks, minimize for tables.
    pub passes: Option<Vec<Pass>>,
    /// The bounded-equivalence window gating every pass. `None` picks
    /// `max(4, window the artifact's rows require)`.
    pub window: Option<u64>,
}

/// How a pass's candidate was checked before acceptance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The pass proposed no change; nothing to verify.
    Unchanged,
    /// Exhaustively proved equivalent over the recorded window.
    Proved(u64),
    /// Accepted on a seeded differential sample (domain too large to
    /// exhaust even at window 0).
    Sampled(usize),
    /// Refuted or failed; the candidate was discarded. Carries the
    /// counterexample (or error) text.
    Rejected(String),
}

/// What one pass did, and how its candidate fared.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Which pass ran.
    pub pass: Pass,
    /// Gate (or row) count going in.
    pub before: usize,
    /// Gate (or row) count of whatever survived the gate — the
    /// candidate's if accepted, `before` if rejected.
    pub after: usize,
    /// How the candidate was checked.
    pub verdict: Verdict,
    /// Volleys the check covered: [`EquivProof::volleys`] for a proof
    /// (for a kept proof, the count of the walk it came from), the
    /// sample size for a sampled check, and 0 when the pass proposed
    /// nothing or its candidate was rejected.
    ///
    /// [`EquivProof::volleys`]: st_verify::equiv::EquivProof::volleys
    pub volleys: u64,
    /// Wall-clock nanoseconds spent in the pass plus its check.
    pub wall_nanos: u64,
}

impl PassRecord {
    /// Whether the candidate was committed.
    #[must_use]
    pub fn accepted(&self) -> bool {
        !matches!(self.verdict, Verdict::Rejected(_))
    }
}

/// Everything one optimization run produced.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// The kind of the artifact that came in ("table", "net", "column").
    pub kind: String,
    /// The optimized artifact (a column comes back as its optimized
    /// network lowering).
    pub artifact: Artifact,
    /// Gate (or row) count before any pass ran.
    pub before: usize,
    /// Gate (or row) count after the last accepted pass.
    pub after: usize,
    /// The verification window the run gated against.
    pub window: u64,
    /// One record per pass, in execution order.
    pub records: Vec<PassRecord>,
    /// One error per rejected pass, in pass order. The STA2xx
    /// opportunities are not here: `spacetime opt`, which renders them,
    /// finds them on its input with [`crate::analyze_network`].
    pub report: Report,
}

impl OptOutcome {
    /// How many passes were rejected by the verifier.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.records.iter().filter(|r| !r.accepted()).count()
    }

    /// Whether the run is clean: every pass that changed something was
    /// verified and accepted.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.rejected() == 0 && self.report.is_clean()
    }

    /// Renders the outcome human-readably: one line per pass, then the
    /// totals, then the diagnostics.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let verdict = match &r.verdict {
                Verdict::Unchanged => "no change".to_owned(),
                Verdict::Proved(w) => format!("accepted (proved, window {w})"),
                Verdict::Sampled(n) => format!("accepted (sampled, {n} volleys)"),
                Verdict::Rejected(why) => format!("REJECTED: {why}"),
            };
            let _ = writeln!(
                out,
                "{:<22} {:>4} -> {:<4} {}",
                r.pass.name(),
                r.before,
                r.after,
                verdict
            );
        }
        let unit = if self.kind == "table" {
            "rows"
        } else {
            "gates"
        };
        let _ = writeln!(
            out,
            "{}: {} -> {} {unit} over window {} ({} rejection(s))",
            self.kind,
            self.before,
            self.after,
            self.window,
            self.rejected()
        );
        out.push_str(&self.report.render());
        out
    }
}

/// Records the run into a metric sink under the `opt.*` names the bench
/// matrix and `docs/metrics.md` catalogue.
pub fn record_metrics<M: MetricSink>(outcome: &OptOutcome, sink: &mut M) {
    if !sink.is_live() {
        return;
    }
    sink.incr("opt.gates_before", outcome.before as u64);
    sink.incr("opt.gates_after", outcome.after as u64);
    sink.incr(
        "opt.gates_saved",
        (outcome.before.saturating_sub(outcome.after)) as u64,
    );
    sink.incr("opt.passes_run", outcome.records.len() as u64);
    sink.incr("opt.passes_rejected", outcome.rejected() as u64);
    for r in &outcome.records {
        sink.observe(r.pass.nanos_metric(), r.wall_nanos);
    }
}

/// Gates one candidate behind the artifact it must equal: exhaustive
/// when feasible, seeded differential sample otherwise. The proof
/// obligation is recorded as a `verify.check_equiv` span under the pass
/// span, with the prover's own `verify.window` sub-spans below it.
/// Returns the verdict and the volleys the check covered.
fn gate<T: Tracer, E: Evaluator>(
    reference: &Reference<E>,
    candidate: &dyn Evaluator,
    window: u64,
    tracer: &mut T,
    parent: SpanId,
) -> (Verdict, u64) {
    let original = reference.original();
    if let Some(w) = feasible_window(window, original.input_width()) {
        let span = tracer.begin("verify.check_equiv", parent);
        let result = reference.check_equiv_traced(candidate, w, tracer, span);
        tracer.end(span);
        return match result {
            Ok(EquivResult::Proved(proof)) => (Verdict::Proved(w), proof.volleys),
            Ok(EquivResult::Refuted(c)) => (
                Verdict::Rejected(format!(
                    "{c}; replay: put the volley `{}` in a file and run `spacetime batch`",
                    c.volley_line()
                )),
                0,
            ),
            Err(e) => (Verdict::Rejected(e), 0),
        };
    }
    match check_sampled(original, candidate, window, SAMPLE_VOLLEYS) {
        Ok(None) => (Verdict::Sampled(SAMPLE_VOLLEYS), SAMPLE_VOLLEYS as u64),
        Ok(Some(c)) => (
            Verdict::Rejected(format!(
                "sampled differential check diverged on input [{}]",
                c.volley_line()
            )),
            0,
        ),
        Err(e) => (Verdict::Rejected(e), 0),
    }
}

/// One network side of a proof: answers its shape from the network and
/// flattens the network into a [`NetEvaluator`] on first evaluation, so
/// the flattening is timed inside the proof's `verify.check_equiv` span.
struct NetSide<'a> {
    network: &'a Network,
    evaluator: OnceCell<NetEvaluator>,
}

impl<'a> NetSide<'a> {
    fn new(network: &'a Network) -> NetSide<'a> {
        NetSide {
            network,
            evaluator: OnceCell::new(),
        }
    }

    fn evaluator(&self) -> &NetEvaluator {
        self.evaluator
            .get_or_init(|| NetEvaluator::new(self.network))
    }
}

impl Evaluator for NetSide<'_> {
    fn name(&self) -> &'static str {
        "net"
    }

    fn input_width(&self) -> usize {
        self.network.input_count()
    }

    fn output_width(&self) -> usize {
        self.network.output_count()
    }

    fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, String> {
        self.evaluator().eval(inputs)
    }

    fn eval_packet(&self, volleys: &[Volley], out: &mut [Volley]) -> Result<(), (usize, String)> {
        self.evaluator().eval_packet(volleys, out)
    }

    fn eval_lanes(&self, inputs: &[ByteBlock], lanes: usize, out: &mut [ByteBlock]) -> bool {
        self.evaluator().eval_lanes(inputs, lanes, out)
    }

    fn invariant(&self) -> bool {
        self.evaluator().invariant()
    }

    fn plan(&self) -> Option<&Plan> {
        self.evaluator().plan()
    }
}

fn rejection_diagnostic(pass: Pass, why: &str) -> Diagnostic {
    Diagnostic::new(
        Code::LoweringMismatch,
        Severity::Error,
        Location::Module,
        format!(
            "pass {} produced a non-equivalent artifact: {why}",
            pass.name()
        ),
    )
    .with_hint("the candidate was discarded; the artifact on disk is untouched")
}

/// Runs the pipeline over a gate network, gating every pass.
///
/// # Errors
///
/// Currently infallible in practice (kept `Result` for parity with the
/// other drivers); rejections come back inside the outcome, not as
/// errors.
pub fn optimize_network(network: &Network, options: &OptOptions) -> Result<OptOutcome, String> {
    optimize_network_traced(network, options, &mut NullTracer, SpanId::NONE)
}

/// [`optimize_network`] with one `opt.pass.*` span per pass recorded
/// under `parent`, each nesting its `verify.check_equiv` proof
/// obligation. With a [`NullTracer`] this is exactly
/// [`optimize_network`].
///
/// # Errors
///
/// See [`optimize_network`].
pub fn optimize_network_traced<T: Tracer>(
    network: &Network,
    options: &OptOptions,
    tracer: &mut T,
    parent: SpanId,
) -> Result<OptOutcome, String> {
    let window = options.window.unwrap_or(DEFAULT_WINDOW);
    let default = vec![
        Pass::ConstantFold,
        Pass::RelationalFold,
        Pass::FuseDelayChains,
        Pass::ShareSubexpressions,
        Pass::EliminateDead,
    ];
    let pipeline = options.passes.clone().unwrap_or(default);

    let mut report = Report::new();
    let mut current = network.clone();
    let reference = Reference::new(NetSide::new(network));
    let mut records = Vec::new();

    for pass in pipeline {
        let start = Instant::now();
        let span = tracer.begin(pass.span_name(), parent);
        let before = current.gate_count();
        let candidate = match pass {
            Pass::ConstantFold => passes::constant_fold(&current),
            Pass::RelationalFold => passes::relational_fold(&current),
            Pass::FuseDelayChains => passes::fuse_delay_chains(&current),
            Pass::ShareSubexpressions => passes::share_subexpressions(&current),
            Pass::EliminateDead => passes::eliminate_dead(&current),
            // Minimization is a table pass; on a network it proposes
            // nothing.
            Pass::MinimizeTable => None,
        };
        let (verdict, volleys) = match &candidate {
            None => (Verdict::Unchanged, 0),
            Some(c) => gate(&reference, &NetSide::new(c), window, tracer, span),
        };
        tracer.end(span);
        match (&verdict, candidate) {
            (Verdict::Proved(_) | Verdict::Sampled(_), Some(c)) => current = c,
            (Verdict::Rejected(why), _) => report.push(rejection_diagnostic(pass, why)),
            _ => {}
        }
        records.push(PassRecord {
            pass,
            before,
            after: current.gate_count(),
            verdict,
            volleys,
            wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }

    Ok(OptOutcome {
        kind: "net".to_owned(),
        before: network.gate_count(),
        after: current.gate_count(),
        window,
        artifact: Artifact::Net(current),
        records,
        report,
    })
}

/// Runs the pipeline over a function table (minimization only), gating
/// the result table-vs-table.
///
/// # Errors
///
/// Currently infallible in practice; see [`optimize_network`].
pub fn optimize_table(table: &FunctionTable, options: &OptOptions) -> Result<OptOutcome, String> {
    optimize_table_traced(table, options, &mut NullTracer, SpanId::NONE)
}

/// [`optimize_table`] with per-pass spans; see
/// [`optimize_network_traced`].
///
/// # Errors
///
/// See [`optimize_table`].
pub fn optimize_table_traced<T: Tracer>(
    table: &FunctionTable,
    options: &OptOptions,
    tracer: &mut T,
    parent: SpanId,
) -> Result<OptOutcome, String> {
    let window = options
        .window
        .unwrap_or_else(|| required_window(table).max(DEFAULT_WINDOW));
    let pipeline = options.passes.clone().unwrap_or(vec![Pass::MinimizeTable]);

    let mut report = Report::new();
    let mut current = table.clone();
    let mut records = Vec::new();

    for pass in pipeline {
        let start = Instant::now();
        let span = tracer.begin(pass.span_name(), parent);
        let before = current.len();
        let (candidate, dropped) = match pass {
            Pass::MinimizeTable => passes::minimize_table(&current),
            // Network passes propose nothing on a table.
            _ => (current.clone(), 0),
        };
        let (verdict, volleys, after) = if dropped == 0 {
            (Verdict::Unchanged, 0, before)
        } else {
            let (v, volleys) = gate(
                &Reference::new(TableEvaluator::new(&current)),
                &TableEvaluator::spec(&candidate),
                window,
                tracer,
                span,
            );
            let after = if matches!(v, Verdict::Rejected(_)) {
                before
            } else {
                candidate.len()
            };
            (v, volleys, after)
        };
        tracer.end(span);
        match &verdict {
            Verdict::Rejected(why) => report.push(rejection_diagnostic(pass, why)),
            Verdict::Unchanged => {}
            _ => current = candidate,
        }
        records.push(PassRecord {
            pass,
            before,
            after,
            verdict,
            volleys,
            wall_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }

    Ok(OptOutcome {
        kind: "table".to_owned(),
        before: table.len(),
        after: current.len(),
        window,
        artifact: Artifact::Table(current),
        records,
        report,
    })
}

/// Runs the pipeline over any parsed artifact. A column is lowered to
/// its Fig. 12/15 network first and comes back as an optimized network.
///
/// # Errors
///
/// Propagates the per-kind drivers' operational errors.
pub fn optimize_artifact(artifact: &Artifact, options: &OptOptions) -> Result<OptOutcome, String> {
    optimize_artifact_traced(artifact, options, &mut NullTracer, SpanId::NONE)
}

/// [`optimize_artifact`] with per-pass spans; see
/// [`optimize_network_traced`].
///
/// # Errors
///
/// Propagates the per-kind drivers' operational errors.
pub fn optimize_artifact_traced<T: Tracer>(
    artifact: &Artifact,
    options: &OptOptions,
    tracer: &mut T,
    parent: SpanId,
) -> Result<OptOutcome, String> {
    match artifact {
        Artifact::Table(t) => optimize_table_traced(t, options, tracer, parent),
        Artifact::Net(n) => optimize_network_traced(n, options, tracer, parent),
        Artifact::Column(c) => {
            let mut outcome = optimize_network_traced(&c.to_network(), options, tracer, parent)?;
            outcome.kind = "column".to_owned();
            Ok(outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;
    use st_metrics::MetricsRegistry;
    use st_net::NetworkBuilder;

    fn redundant_network() -> Network {
        // Foldable inner min, duplicated min, a 3-stage delay chain,
        // and a dead branch: every default pass has work.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let c3 = b.constant(Time::finite(3));
        let c5 = b.constant(Time::finite(5));
        let folded = b.min2(c3, c5);
        let m1 = b.min2(ins[0], ins[1]);
        let m2 = b.min2(ins[1], ins[0]);
        let d1 = b.inc(m1, 1);
        let d2 = b.inc(d1, 2);
        let d3 = b.inc(d2, 1);
        let _dead = b.max2(m2, folded);
        let keep = b.min2(d3, folded);
        b.build([keep, m2])
    }

    #[test]
    fn the_default_pipeline_shrinks_and_verifies() {
        let network = redundant_network();
        let outcome = optimize_network(&network, &OptOptions::default()).unwrap();
        assert_eq!(outcome.rejected(), 0, "{}", outcome.render());
        assert!(outcome.after < outcome.before, "{}", outcome.render());
        // Every changed pass was exhaustively proved at the full window.
        for r in &outcome.records {
            match &r.verdict {
                Verdict::Proved(w) => assert_eq!(*w, 4),
                Verdict::Unchanged => {}
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        // The optimized network still evaluates identically (spot
        // check beyond the proof window).
        let Artifact::Net(optimized) = &outcome.artifact else {
            panic!("network in, network out");
        };
        let probe = [Time::finite(9), Time::finite(7)];
        assert_eq!(
            network.eval(&probe).unwrap(),
            optimized.eval(&probe).unwrap()
        );
    }

    #[test]
    fn optimization_is_idempotent_at_fixpoint() {
        let outcome = optimize_network(&redundant_network(), &OptOptions::default()).unwrap();
        let Artifact::Net(once) = &outcome.artifact else {
            panic!("network in, network out");
        };
        let again = optimize_network(once, &OptOptions::default()).unwrap();
        assert_eq!(again.before, again.after, "{}", again.render());
        assert!(
            again
                .records
                .iter()
                .all(|r| r.verdict == Verdict::Unchanged),
            "{}",
            again.render()
        );
    }

    #[test]
    fn explicit_pass_lists_run_in_order() {
        let outcome = optimize_network(
            &redundant_network(),
            &OptOptions {
                passes: Some(vec![Pass::EliminateDead]),
                window: Some(3),
            },
        )
        .unwrap();
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.records[0].pass, Pass::EliminateDead);
        assert_eq!(outcome.window, 3);
    }

    #[test]
    fn tables_minimize_under_their_required_window() {
        let table = FunctionTable::from_rows(
            2,
            vec![
                (vec![Time::finite(0), Time::INFINITY], Time::finite(1)),
                (vec![Time::finite(0), Time::finite(3)], Time::finite(3)),
                (vec![Time::finite(2), Time::finite(0)], Time::finite(3)),
            ],
        )
        .unwrap();
        let outcome = optimize_table(&table, &OptOptions::default()).unwrap();
        assert_eq!(outcome.before, 3);
        assert_eq!(outcome.after, 2);
        assert_eq!(outcome.window, 4, "max(required 2, default 4)");
        assert_eq!(outcome.rejected(), 0, "{}", outcome.render());
        assert!(outcome.is_clean());
    }

    /// A width-22 network needs 2^22 > 4M volleys even at window 0, so
    /// the gate falls back to the seeded sample. Pins the accept verdict
    /// and the exact rejection text (the divergent sample is the 12th
    /// drawn, not the first).
    #[test]
    fn sampled_fallback_accepts_and_rejects_with_pinned_text() {
        let wide_min = |extra: Option<Time>| {
            let mut b = NetworkBuilder::new();
            let mut sources = b.inputs(22);
            if let Some(t) = extra {
                sources.push(b.constant(t));
            }
            let m = b.min(sources).unwrap();
            b.build([m])
        };
        let base = wide_min(None);
        let verdict = |other: &Network| {
            gate(
                &Reference::new(NetEvaluator::new(&base)),
                &NetEvaluator::new(other),
                DEFAULT_WINDOW,
                &mut NullTracer,
                SpanId::NONE,
            )
            .0
        };
        // min(x, ∞) = min(x): equivalent, so every sample agrees.
        assert_eq!(
            verdict(&wide_min(Some(Time::INFINITY))),
            Verdict::Sampled(4096)
        );
        // min(x, 0) = 0 differs only on samples without a 0 input.
        assert_eq!(
            verdict(&wide_min(Some(Time::finite(0)))),
            Verdict::Rejected(
                "sampled differential check diverged on input \
                 [∞ 2 1 3 ∞ 4 1 1 2 ∞ ∞ 4 ∞ 1 2 2 4 4 1 3 1 2]"
                    .to_owned()
            )
        );
    }

    /// Each record carries the volleys its check walked. Width 2 at
    /// window 4: a constant-free network's proofs walk the normalized
    /// 6² − 5² + 1 = 12 volleys, one with a finite constant the full
    /// 6² = 36; a width-22 network is sampled, 4 096 volleys; a pass that
    /// proposes nothing walks none.
    #[test]
    fn records_count_the_volleys_their_checks_walked() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let m2 = b.min2(ins[1], ins[0]);
        let d1 = b.inc(m1, 1);
        let d2 = b.inc(d1, 2);
        let constant_free = b.build([d2, m2]);
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(22);
        let m = b.min(ins.iter().copied()).unwrap();
        let _dead = b.max(ins).unwrap();
        let wide = b.build([m]);
        for (network, walked) in [
            (constant_free, 12),
            (redundant_network(), 36),
            (wide, SAMPLE_VOLLEYS as u64),
        ] {
            let outcome = optimize_network(&network, &OptOptions::default()).unwrap();
            assert!(outcome.records.iter().any(|r| r.volleys > 0));
            for r in &outcome.records {
                let expected = match r.verdict {
                    Verdict::Unchanged => 0,
                    Verdict::Proved(_) | Verdict::Sampled(_) => walked,
                    Verdict::Rejected(_) => panic!("{}", outcome.render()),
                };
                assert_eq!(r.volleys, expected, "{}", outcome.render());
            }
        }
    }

    #[test]
    fn pass_names_round_trip_through_parse() {
        for pass in ALL_PASSES {
            assert_eq!(Pass::parse(pass.name()), Some(pass));
        }
        assert_eq!(Pass::parse("nonsense"), None);
    }

    #[test]
    fn metrics_record_the_run_under_opt_names() {
        let outcome = optimize_network(&redundant_network(), &OptOptions::default()).unwrap();
        let mut registry = MetricsRegistry::new();
        record_metrics(&outcome, &mut registry);
        let counters: std::collections::HashMap<_, _> = registry.counters().collect();
        assert_eq!(counters["opt.gates_before"], outcome.before as u64);
        assert_eq!(counters["opt.gates_after"], outcome.after as u64);
        assert_eq!(counters["opt.passes_run"], 5);
        assert_eq!(counters["opt.passes_rejected"], 0);
        assert!(
            registry
                .histograms()
                .any(|(name, _)| name == "opt.pass.constant_fold.nanos"),
            "per-pass timing histogram"
        );
    }
}
