//! Static passes over [`LintGraph`]s.
//!
//! The passes run in two phases. Phase one checks *structure*: dangling
//! references (STA002), fan-in arity (STA003), and feedforward
//! acyclicity (STA001). If any structural defect is found the report
//! stops there — the semantic analyses below are only meaningful on a
//! well-formed DAG.
//!
//! Phase two proves or refutes the paper's invariants from structure
//! alone, with a single sweep of the shared [interval
//! engine](crate::interval): every node gets a sound spike-time
//! [`Interval`] (firing bounds plus a possible-silence flag) under the
//! free input model. Saturation (STA006) is then `Interval::is_never` —
//! provable not only through constant propagation but through any
//! non-constant path whose bounds separate, e.g. an `lt` whose data
//! side provably arrives no earlier than its inhibitor's deadline.
//! `st-verify` runs the *same* engine for its boundedness certificates,
//! so lint and verify can never disagree on bounds.
//!
//! Causality (§ III-B) is a reachability property: a *finite
//! constant* with a timing path to an output lets the output fire at a
//! fixed clock time regardless of the inputs — the static witness of an
//! output "preceding its inputs". Timing paths follow `min`/`max`
//! sources, `inc`'s source, and only the *first* (data) input of `lt`:
//! the inhibitor side can suppress an output but never schedule one,
//! which is exactly why the micro-weight idiom (`lt(x, μ)` with
//! `μ ∈ {0, ∞}`, Figs. 13–14) is causal. Temporal invariance (§ III-C)
//! fails only for finite non-zero constants — `∞` shifts to `∞` and a
//! dead gate is constantly `∞` — so those earn STA005 on inhibitor-only
//! paths (on timing paths STA004 already fires, strictly stronger).

use st_core::Time;
use st_trace::{NullTracer, SpanId, Tracer};

use crate::diag::{Code, Diagnostic, Location, Report, Severity};
use crate::graph::{LintGraph, LintOp};
use crate::interval::{self, Interval};
use crate::liveness;

/// Tunable thresholds for the passes.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// The largest plausible history window for bounded functions; § IV
    /// argues biological plausibility for roughly 8–16 ticks. Table rows
    /// needing more earn STA010.
    pub max_window: u64,
    /// Whether the graph passes should emit STA008 when `max` gates are
    /// present. Representation-specific frontends that compute basis
    /// conformance themselves (e.g. via `GateCounts::is_minimal_basis`)
    /// disable this to avoid duplicate findings.
    pub check_basis: bool,
    /// Whether to run the relational (zone/DBM) temporal-safety tier
    /// (STA301–STA304). Off by default: the findings are advisory
    /// rather than structural, and graphs past
    /// [`MAX_RELATIONAL_NODES`](crate::MAX_RELATIONAL_NODES) skip it.
    /// The CLI enables it with `spacetime lint --relational`.
    pub relational: bool,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions {
            max_window: 16,
            check_basis: true,
            relational: false,
        }
    }
}

/// Runs every graph pass and returns the combined report.
#[must_use]
pub fn lint_graph(graph: &LintGraph, options: &LintOptions) -> Report {
    lint_graph_traced(graph, options, &mut NullTracer, SpanId::NONE)
}

/// [`lint_graph`] with a span per pass recorded under `parent`
/// (`lint.pass.structure`, `lint.pass.intervals`, ...). With a
/// [`NullTracer`] this is exactly `lint_graph`.
#[must_use]
pub fn lint_graph_traced<T: Tracer>(
    graph: &LintGraph,
    options: &LintOptions,
    tracer: &mut T,
    parent: SpanId,
) -> Report {
    let mut report = Report::new();
    {
        let _span = tracer.span("lint.pass.structure", parent);
        check_structure(graph, &mut report);
    }
    if report.has_structural_errors() {
        return report;
    }
    let span = tracer.begin("lint.pass.intervals", parent);
    let intervals = interval::analyze(graph, Interval::free());
    let reachable = liveness::live_set(graph);
    tracer.end(span);
    {
        let _span = tracer.span("lint.pass.dead_gates", parent);
        check_dead_gates(graph, &intervals, &reachable, &mut report);
    }
    {
        let _span = tracer.span("lint.pass.unreachable", parent);
        check_unreachable(graph, &reachable, &mut report);
    }
    {
        let _span = tracer.span("lint.pass.constants", parent);
        check_constants(graph, &reachable, &mut report);
    }
    if options.check_basis {
        let _span = tracer.span("lint.pass.basis", parent);
        check_basis(graph, &reachable, &mut report);
    }
    {
        let _span = tracer.span("lint.pass.wta_shape", parent);
        check_wta_shape(graph, &mut report);
    }
    if options.relational {
        let _span = tracer.span("lint.pass.relational", parent);
        check_relational(graph, &intervals, &reachable, options, &mut report);
    }
    report
}

// ---------------------------------------------------------------------------
// Phase one: structure (STA001, STA002, STA003)
// ---------------------------------------------------------------------------

fn check_structure(graph: &LintGraph, report: &mut Report) {
    let n = graph.len();
    for (id, node) in graph.nodes().iter().enumerate() {
        for &s in &node.sources {
            if s >= n {
                report.push(
                    Diagnostic::new(
                        Code::Dangling,
                        Severity::Error,
                        Location::Gate(id),
                        format!("{} gate references undefined gate g{s}", node.op.name()),
                    )
                    .with_hint(format!("only g0..g{} exist", n.saturating_sub(1))),
                );
            }
        }
        let fan_in = node.sources.len();
        let expected: Option<&str> = match node.op {
            LintOp::Input(_) | LintOp::Const(_) if fan_in != 0 => Some("no sources"),
            LintOp::Min | LintOp::Max if fan_in == 0 => Some("at least one source"),
            LintOp::Lt if fan_in != 2 => Some("exactly two sources"),
            LintOp::Inc(_) if fan_in != 1 => Some("exactly one source"),
            _ => None,
        };
        if let Some(expected) = expected {
            report.push(Diagnostic::new(
                Code::ArityMismatch,
                Severity::Error,
                Location::Gate(id),
                format!(
                    "{} gate has {fan_in} source(s) but needs {expected}",
                    node.op.name()
                ),
            ));
        }
        if let LintOp::Input(line) = node.op {
            if line >= graph.input_count() {
                report.push(
                    Diagnostic::new(
                        Code::ArityMismatch,
                        Severity::Error,
                        Location::Gate(id),
                        format!(
                            "input gate reads line {line} but only {} line(s) are declared",
                            graph.input_count()
                        ),
                    )
                    .with_hint("widen the declared input count or renumber the line"),
                );
            }
        }
    }
    for (line, &o) in graph.outputs().iter().enumerate() {
        if o >= n {
            report.push(Diagnostic::new(
                Code::Dangling,
                Severity::Error,
                Location::Output(line),
                format!("output line references undefined gate g{o}"),
            ));
        }
    }
    check_cycles(graph, report);
}

/// Depth-first cycle detection with an explicit stack (graphs can be deep).
fn check_cycles(graph: &LintGraph, report: &mut Report) {
    const WHITE: u8 = 0; // unvisited
    const GRAY: u8 = 1; // on the current DFS path
    const BLACK: u8 = 2; // finished
    let n = graph.len();
    let mut color = vec![WHITE; n];
    let mut reported = vec![false; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        // Stack of (node, next-source-index); GRAY nodes form the path.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GRAY;
        while let Some(top) = stack.last_mut() {
            let (node, next) = *top;
            let sources = &graph.nodes()[node].sources;
            if next >= sources.len() {
                color[node] = BLACK;
                stack.pop();
                continue;
            }
            top.1 += 1;
            let s = sources[next];
            if s >= n {
                continue; // dangling: reported by check_structure
            }
            match color[s] {
                WHITE => {
                    color[s] = GRAY;
                    stack.push((s, 0));
                }
                GRAY if !reported[s] => {
                    reported[s] = true;
                    let cycle: Vec<String> = stack
                        .iter()
                        .map(|&(id, _)| id)
                        .skip_while(|&id| id != s)
                        .map(|id| format!("g{id}"))
                        .collect();
                    report.push(
                        Diagnostic::new(
                            Code::Cycle,
                            Severity::Error,
                            Location::Gate(s),
                            format!("combinational cycle: {} → g{s}", cycle.join(" → ")),
                        )
                        .with_hint(
                            "space-time networks are feedforward (§ III); break the \
                                 loop or insert state",
                        ),
                    );
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// STA006: dead gates and dead output lines
// ---------------------------------------------------------------------------

fn check_dead_gates(
    graph: &LintGraph,
    intervals: &[Interval],
    reachable: &[bool],
    report: &mut Report,
) {
    for (id, node) in graph.nodes().iter().enumerate() {
        if !reachable[id] || !node.op.is_operator() || !intervals[id].is_never() {
            continue;
        }
        let mut diag = Diagnostic::new(
            Code::DeadGate,
            Severity::Warning,
            Location::Gate(id),
            format!(
                "{} gate is saturated at ∞ and can never fire",
                node.op.name()
            ),
        );
        if node.op == LintOp::Lt && intervals[node.sources[1]].as_exact() == Some(Time::ZERO) {
            diag = diag.with_hint(
                "this is the disabled micro-weight configuration (μ=0, Fig. 13); set μ=∞ to \
                 enable the tap",
            );
        }
        report.push(diag);
    }
    for (line, &o) in graph.outputs().iter().enumerate() {
        if intervals[o].is_never() {
            report.push(Diagnostic::new(
                Code::DeadGate,
                Severity::Warning,
                Location::Output(line),
                "output line is constantly ∞ (it never fires)".to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// STA007: unreachable gates and ignored input lines
// ---------------------------------------------------------------------------

fn check_unreachable(graph: &LintGraph, reachable: &[bool], report: &mut Report) {
    let mut line_used = vec![false; graph.input_count()];
    for (id, node) in graph.nodes().iter().enumerate() {
        if let LintOp::Input(line) = node.op {
            if reachable[id] {
                if let Some(used) = line_used.get_mut(line) {
                    *used = true;
                }
                continue;
            }
        }
        if !reachable[id] && !matches!(node.op, LintOp::Input(_)) {
            report.push(
                Diagnostic::new(
                    Code::Unreachable,
                    Severity::Info,
                    Location::Gate(id),
                    format!("{} gate has no path to any output", node.op.name()),
                )
                .with_hint("delete it, or wire it to an output"),
            );
        }
    }
    for (line, used) in line_used.iter().enumerate() {
        if !used {
            report.push(Diagnostic::new(
                Code::Unreachable,
                Severity::Info,
                Location::Input(line),
                "input line never influences any output".to_owned(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// STA004 / STA005: constants versus causality and temporal invariance
// ---------------------------------------------------------------------------

fn check_constants(graph: &LintGraph, reachable: &[bool], report: &mut Report) {
    if graph.input_count() == 0 {
        // A closed network computes a constant; causality and invariance
        // are relative to inputs it does not have.
        return;
    }
    let timing = liveness::timing_live_set(graph);
    for (id, node) in graph.nodes().iter().enumerate() {
        let LintOp::Const(t) = node.op else { continue };
        let Some(v) = t.value() else { continue }; // ∞ is always fine
        if timing[id] {
            report.push(
                Diagnostic::new(
                    Code::Causality,
                    Severity::Error,
                    Location::Gate(id),
                    format!(
                        "finite constant {v} lies on a timing path to an output: the output \
                         can fire at a fixed time regardless of the inputs (§ III-B)"
                    ),
                )
                .with_hint(
                    "use ∞ for an absent event, or route the constant into an lt inhibitor \
                     (the micro-weight idiom, Fig. 13)",
                ),
            );
        } else if reachable[id] && v > 0 {
            report.push(
                Diagnostic::new(
                    Code::Invariance,
                    Severity::Warning,
                    Location::Gate(id),
                    format!(
                        "finite constant {v} inhibits an lt: shifting every input by one tick \
                         does not shift this threshold, so the network is temporally \
                         invariant only for μ ∈ {{0, ∞}} (§ III-C)"
                    ),
                )
                .with_hint("treat the artifact as configuration-dependent, or use 0 / ∞"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// STA008: minimal-basis conformance (Theorem 1)
// ---------------------------------------------------------------------------

fn check_basis(graph: &LintGraph, reachable: &[bool], report: &mut Report) {
    let max_gates = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|&(id, node)| reachable[id] && node.op == LintOp::Max)
        .count();
    if max_gates > 0 {
        report.push(
            Diagnostic::new(
                Code::NonMinimalBasis,
                Severity::Info,
                Location::Module,
                format!(
                    "network uses {max_gates} max gate(s); {{min, lt, inc}} is already \
                     complete (Theorem 1)"
                ),
            )
            .with_hint("rewrite max via Lemma 2 if a minimal-basis implementation is wanted"),
        );
    }
}

// ---------------------------------------------------------------------------
// STA009: WTA mutual-exclusion wiring shape (Fig. 15)
// ---------------------------------------------------------------------------

/// The Fig. 15 1-WTA idiom, as found by [`recognize_wta`]: every output
/// is `lt(xᵢ, d)` with a shared inhibitor `d = inc(m, τ)` where `m` is
/// a `min` over the competing lines.
pub(crate) struct WtaIdiom {
    /// The competing data lines `xᵢ`, one per output.
    pub data: Vec<usize>,
    /// The shared inhibitor gate `d = inc(m, τ)`.
    pub inhibitor: usize,
    /// The inhibition window τ.
    pub tau: u64,
    /// The first-spike `min` gate `m`.
    pub min_gate: usize,
}

/// Recognizes the Fig. 15 1-WTA wiring shape on a structurally clean
/// graph. The candidate is confirmed only if the min really is a
/// first-spike detector over the competing lines (k-WTA's sorter
/// outputs are internal gates, which correctly escapes this
/// recognizer). Shared by the shape check (STA011) and the relational
/// margin check (STA302).
pub(crate) fn recognize_wta(graph: &LintGraph) -> Option<WtaIdiom> {
    let outputs = graph.outputs();
    if outputs.len() < 2 {
        return None;
    }
    let n = graph.len();
    // Every output must be an lt sharing one inhibitor.
    let mut data: Vec<usize> = Vec::with_capacity(outputs.len());
    let mut shared: Option<usize> = None;
    for &o in outputs {
        let node = graph.nodes().get(o)?;
        if node.op != LintOp::Lt || node.sources.len() != 2 {
            return None;
        }
        match shared {
            None => shared = Some(node.sources[1]),
            Some(d) if d == node.sources[1] => {}
            Some(_) => return None,
        }
        data.push(node.sources[0]);
    }
    let inhibitor = shared?;
    let inh = graph.nodes().get(inhibitor)?;
    let LintOp::Inc(tau) = inh.op else {
        return None;
    };
    let min_gate = *inh.sources.first()?;
    if min_gate >= n || graph.nodes()[min_gate].op != LintOp::Min {
        return None;
    }
    if !graph.nodes()[min_gate]
        .sources
        .iter()
        .all(|s| data.contains(s))
    {
        return None;
    }
    Some(WtaIdiom {
        data,
        inhibitor,
        tau,
        min_gate,
    })
}

/// Checks the Fig. 15 1-WTA idiom for mutual-exclusion soundness.
fn check_wta_shape(graph: &LintGraph, report: &mut Report) {
    let Some(wta) = recognize_wta(graph) else {
        return;
    };
    let (d, tau, m, lines) = (wta.inhibitor, wta.tau, wta.min_gate, &wta.data);
    let node = |id: usize| &graph.nodes()[id];
    if tau == 0 {
        report.push(
            Diagnostic::new(
                Code::WtaShape,
                Severity::Error,
                Location::Gate(d),
                "WTA inhibition window τ=0 suppresses every line, including the winner: \
                 no output can ever fire"
                    .to_owned(),
            )
            .with_hint("use τ ≥ 1 so the first spike escapes before inhibition lands (Fig. 15)"),
        );
    }
    for (line, &x) in lines.iter().enumerate() {
        if !node(m).sources.contains(&x) {
            report.push(
                Diagnostic::new(
                    Code::WtaShape,
                    Severity::Warning,
                    Location::Output(line),
                    "competing line is missing from the shared first-spike min: when it \
                     spikes first it cannot suppress the other lines"
                        .to_owned(),
                )
                .with_hint("feed every competing line into the min (Fig. 15)"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// STA301–STA304: the relational (zone/DBM) temporal-safety tier
// ---------------------------------------------------------------------------

/// Runs the zone engine under the § IV window premise (inputs fire
/// within `max_window` or not at all) and reports what the difference
/// bounds decide that the interval sweep could not: statically-decided
/// `lt` gates (STA301), tie-capable WTA competitors (STA302), provable
/// data/inhibitor races in the GRL latch lowering (STA303), and merges
/// whose operand skew provably exceeds the coding window (STA304).
fn check_relational(
    graph: &LintGraph,
    intervals: &[Interval],
    reachable: &[bool],
    options: &LintOptions,
    report: &mut Report,
) {
    let Some(zone) = crate::zone::Zone::analyze(graph, Interval::within(options.max_window)) else {
        // Graph beyond MAX_RELATIONAL_NODES: the tier is advisory, so
        // silently fall back to the interval results.
        return;
    };
    let n = graph.len();
    for (id, node) in graph.nodes().iter().enumerate() {
        if !reachable[id] || intervals[id].is_never() {
            // Unreachable gates and interval-dead gates already have
            // STA007 / STA006 findings; relational claims add nothing.
            continue;
        }
        match node.op {
            LintOp::Lt if node.sources.len() == 2 => {
                let (a, b) = (node.sources[0], node.sources[1]);
                if a >= n || b >= n {
                    continue;
                }
                if !zone.can_fire(id) {
                    // The zone refined the gate to *never fires* (e.g. a
                    // retracted infeasible row) — decided, and invisible
                    // to the interval domain by the guard above.
                    report.push(decided_lt(id, false));
                } else if zone.proves_lt(a, b) {
                    report.push(decided_lt(id, true));
                } else if zone.proves_le(b, a) && zone.fires_implies(a, b) {
                    // Whenever the data edge arrives the inhibitor has
                    // (provably) already arrived, and the inhibitor
                    // cannot stay silent while the data side fires.
                    report.push(decided_lt(id, false));
                }
                if zone.can_fire(a)
                    && zone.can_fire(b)
                    && zone.proves_le(a, b)
                    && zone.proves_le(b, a)
                {
                    report.push(
                        Diagnostic::new(
                            Code::GrlRace,
                            Severity::Warning,
                            Location::Gate(id),
                            format!(
                                "lt data edge g{a} and inhibitor edge g{b} provably arrive \
                                 in the same cycle whenever both fire: the GRL LtLatch \
                                 lowering (§ V) races on simultaneous capture"
                            ),
                        )
                        .with_hint(
                            "separate the edges by at least one tick (inc the inhibitor) or \
                             latch the decision explicitly",
                        ),
                    );
                }
            }
            LintOp::Min | LintOp::Max if node.sources.len() >= 2 => {
                let window = i128::from(options.max_window);
                'pairs: for (i, &s1) in node.sources.iter().enumerate() {
                    for &s2 in &node.sources[i + 1..] {
                        if s1 >= n || s2 >= n || !zone.can_fire(s1) || !zone.can_fire(s2) {
                            continue;
                        }
                        for (late, early) in [(s1, s2), (s2, s1)] {
                            let skew = zone.diff_lo(late, early).unwrap_or(0);
                            if skew > window {
                                report.push(
                                    Diagnostic::new(
                                        Code::UnsyncMerge,
                                        Severity::Warning,
                                        Location::Gate(id),
                                        format!(
                                            "{} operands are unsynchronized: g{late} provably \
                                             arrives ≥ {skew} ticks after g{early}, beyond the \
                                             {window}-tick coding window the § IV premise \
                                             allows between merged events",
                                            node.op.name()
                                        ),
                                    )
                                    .with_hint(
                                        "re-align the operands (delay the early one) or widen \
                                         --max-window if the volley really is that long",
                                    ),
                                );
                                break 'pairs; // one finding per gate
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(wta) = recognize_wta(graph) {
        if wta.tau >= 1 {
            for (i, &xi) in wta.data.iter().enumerate() {
                for (j, &xj) in wta.data.iter().enumerate().skip(i + 1) {
                    if xi == xj || xi >= n || xj >= n {
                        continue;
                    }
                    if zone.can_tie(xi, xj) {
                        report.push(
                            Diagnostic::new(
                                Code::WtaMargin,
                                Severity::Warning,
                                Location::Output(j),
                                format!(
                                    "competing lines {i} and {j} can tie at zero inhibition \
                                     margin: with τ={} both outputs fire on a tied volley, so \
                                     the winner is decided by evaluation order (Fig. 15)",
                                    wta.tau
                                ),
                            )
                            .with_hint(
                                "stagger the competing lines, or accept multi-winner ties \
                                 downstream",
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The STA301 finding for an `lt` gate whose outcome the zone decided.
fn decided_lt(id: usize, passes: bool) -> Diagnostic {
    let outcome = if passes {
        "it always passes its data edge through (t_data < t_inhibitor is provable)"
    } else {
        "it can never fire (the inhibitor provably arrives no later than the data edge)"
    };
    Diagnostic::new(
        Code::DecidedLt,
        Severity::Info,
        Location::Gate(id),
        format!("lt gate's outcome is relationally decided: {outcome}"),
    )
    .with_hint("spacetime opt's relational fold can remove this gate")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn codes(report: &Report) -> Vec<Code> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    /// The Fig. 6 network: y = min(x0+1, x1) ≺ x2.
    fn fig6() -> LintGraph {
        let mut g = LintGraph::new(3);
        let a = g.push(LintOp::Input(0), vec![]);
        let x = g.push(LintOp::Input(1), vec![]);
        let c = g.push(LintOp::Input(2), vec![]);
        let a1 = g.push(LintOp::Inc(1), vec![a]);
        let m = g.push(LintOp::Min, vec![a1, x]);
        let y = g.push(LintOp::Lt, vec![m, c]);
        g.set_outputs(vec![y]);
        g
    }

    #[test]
    fn fig6_lints_clean_with_no_findings_at_all() {
        let report = lint_graph(&fig6(), &LintOptions::default());
        assert!(report.diagnostics().is_empty(), "{}", report.render());
    }

    #[test]
    fn self_loop_and_two_cycle_are_reported() {
        let mut g = fig6();
        g.set_sources(4, vec![4, 1]); // min feeding itself
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Cycle]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(4));

        let mut g = fig6();
        g.set_sources(3, vec![4]); // inc → min → inc
        g.set_sources(4, vec![3, 1]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Cycle]);
        assert!(report.diagnostics()[0].message.contains("→"));
    }

    #[test]
    fn dangling_references_are_reported() {
        let mut g = fig6();
        g.set_sources(5, vec![4, 99]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Dangling]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(5));

        let mut g = fig6();
        g.set_outputs(vec![42]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Dangling]);
        assert_eq!(report.diagnostics()[0].location, Location::Output(0));
    }

    #[test]
    fn arity_mismatches_are_reported() {
        let mut g = fig6();
        g.set_sources(5, vec![4, 2, 1]); // lt with three sources
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::ArityMismatch]);

        let mut g = fig6();
        g.set_op(0, LintOp::Input(7)); // beyond the declared width
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::ArityMismatch]);

        let mut g = fig6();
        g.set_sources(4, vec![]); // min with no sources
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::ArityMismatch]);
    }

    #[test]
    fn finite_constant_on_timing_path_refutes_causality() {
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let k = g.push(LintOp::Const(t(5)), vec![]);
        let m = g.push(LintOp::Min, vec![x, k]);
        g.set_outputs(vec![m]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Causality]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(k));
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);
    }

    #[test]
    fn infinite_constants_are_always_fine() {
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let k = g.push(LintOp::Const(Time::INFINITY), vec![]);
        let m = g.push(LintOp::Min, vec![x, k]);
        g.set_outputs(vec![m]);
        let report = lint_graph(&g, &LintOptions::default());
        assert!(report.diagnostics().is_empty(), "{}", report.render());
    }

    #[test]
    fn finite_inhibitor_breaks_invariance_but_not_causality() {
        // lt(x, 3): an intermediate micro-weight value.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let mu = g.push(LintOp::Const(t(3)), vec![]);
        let y = g.push(LintOp::Lt, vec![x, mu]);
        g.set_outputs(vec![y]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Invariance]);
        assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(mu));
    }

    #[test]
    fn enabled_micro_weight_is_silent_and_disabled_is_dead() {
        for (mu_value, expect_dead) in [(Time::INFINITY, false), (Time::ZERO, true)] {
            let mut g = LintGraph::new(1);
            let x = g.push(LintOp::Input(0), vec![]);
            let mu = g.push(LintOp::Const(mu_value), vec![]);
            let y = g.push(LintOp::Lt, vec![x, mu]);
            g.set_outputs(vec![y]);
            let report = lint_graph(&g, &LintOptions::default());
            if expect_dead {
                // The gate and the output line it drives are both dead.
                assert_eq!(codes(&report), vec![Code::DeadGate, Code::DeadGate]);
                assert!(report.diagnostics()[0]
                    .hint
                    .as_deref()
                    .unwrap()
                    .contains("micro-weight"));
                assert!(
                    report.is_clean(),
                    "dead taps are a configuration, not an error"
                );
            } else {
                assert!(report.diagnostics().is_empty(), "{}", report.render());
            }
        }
    }

    #[test]
    fn saturation_propagates_through_min_max_and_inc() {
        // max(x, ∞) is dead; min(x, ∞) is not; inc propagates.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let inf = g.push(LintOp::Const(Time::INFINITY), vec![]);
        let mx = g.push(LintOp::Max, vec![x, inf]);
        let mn = g.push(LintOp::Min, vec![x, inf]);
        let d = g.push(LintOp::Inc(2), vec![mx]);
        g.set_outputs(vec![d, mn]);
        let report = lint_graph(&g, &LintOptions::default());
        let dead: Vec<Location> = report
            .with_code(Code::DeadGate)
            .map(|d| d.location)
            .collect();
        assert!(dead.contains(&Location::Gate(mx)));
        assert!(dead.contains(&Location::Gate(d)));
        assert!(dead.contains(&Location::Output(0)));
        assert!(!dead.contains(&Location::Gate(mn)));
    }

    #[test]
    fn saturation_through_non_constant_paths_is_caught() {
        // out = lt(x0 + 3, min(x1, 2)): the inhibitor is *not* constant,
        // but its interval tops out at 2 while the data side starts at 3,
        // so the lt can never fire. Constant propagation alone (the old
        // STA006) misses this; the interval engine proves it.
        let mut g = LintGraph::new(2);
        let x = g.push(LintOp::Input(0), vec![]);
        let y = g.push(LintOp::Input(1), vec![]);
        let k = g.push(LintOp::Const(t(2)), vec![]);
        let cap = g.push(LintOp::Min, vec![y, k]);
        let a = g.push(LintOp::Inc(3), vec![x]);
        let out = g.push(LintOp::Lt, vec![a, cap]);
        g.set_outputs(vec![out]);
        let report = lint_graph(&g, &LintOptions::default());
        let dead: Vec<Location> = report
            .with_code(Code::DeadGate)
            .map(|d| d.location)
            .collect();
        assert!(dead.contains(&Location::Gate(out)), "{}", report.render());
        assert!(dead.contains(&Location::Output(0)));
        // The finite inhibitor constant still earns its invariance
        // warning; nothing is misclassified as a causality error.
        assert_eq!(report.with_code(Code::Invariance).count(), 1);
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn unreachable_gates_and_ignored_inputs_are_informational() {
        let mut g = fig6();
        let orphan = g.push(LintOp::Inc(1), vec![0]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Unreachable]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(orphan));
        assert_eq!(report.diagnostics()[0].severity, Severity::Info);

        // An input line that exists but never reaches an output.
        let mut g = LintGraph::new(2);
        let x = g.push(LintOp::Input(0), vec![]);
        let _ignored = g.push(LintOp::Input(1), vec![]);
        let y = g.push(LintOp::Inc(1), vec![x]);
        g.set_outputs(vec![y]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::Unreachable]);
        assert_eq!(report.diagnostics()[0].location, Location::Input(1));
    }

    #[test]
    fn max_gates_are_flagged_unless_basis_checking_is_off() {
        let mut g = LintGraph::new(2);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let m = g.push(LintOp::Max, vec![a, b]);
        g.set_outputs(vec![m]);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::NonMinimalBasis]);
        assert_eq!(report.diagnostics()[0].severity, Severity::Info);

        let opts = LintOptions {
            check_basis: false,
            ..LintOptions::default()
        };
        assert!(lint_graph(&g, &opts).diagnostics().is_empty());
    }

    /// Builds the Fig. 15 WTA shape directly in the IR.
    fn wta(width: usize, tau: u64) -> LintGraph {
        let mut g = LintGraph::new(width);
        let xs: Vec<usize> = (0..width)
            .map(|i| g.push(LintOp::Input(i), vec![]))
            .collect();
        let m = g.push(LintOp::Min, xs.clone());
        let d = g.push(LintOp::Inc(tau), vec![m]);
        let outs = xs.iter().map(|&x| g.push(LintOp::Lt, vec![x, d])).collect();
        g.set_outputs(outs);
        g
    }

    #[test]
    fn well_formed_wta_is_clean() {
        let report = lint_graph(&wta(4, 2), &LintOptions::default());
        assert!(report.diagnostics().is_empty(), "{}", report.render());
    }

    #[test]
    fn zero_window_wta_is_an_error() {
        let report = lint_graph(&wta(4, 0), &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::WtaShape]);
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);
    }

    #[test]
    fn line_missing_from_the_min_is_flagged() {
        let mut g = LintGraph::new(3);
        let xs: Vec<usize> = (0..3).map(|i| g.push(LintOp::Input(i), vec![])).collect();
        let m = g.push(LintOp::Min, vec![xs[0], xs[1]]); // x2 left out
        let d = g.push(LintOp::Inc(1), vec![m]);
        let outs = xs.iter().map(|&x| g.push(LintOp::Lt, vec![x, d])).collect();
        g.set_outputs(outs);
        let report = lint_graph(&g, &LintOptions::default());
        assert_eq!(codes(&report), vec![Code::WtaShape]);
        assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
        assert_eq!(report.diagnostics()[0].location, Location::Output(2));
    }

    fn relational() -> LintOptions {
        LintOptions {
            relational: true,
            ..LintOptions::default()
        }
    }

    /// The race2 idiom: lt over two delay chains with equal total delay.
    /// The interval domain sees both operands as [2, ∞] and decides
    /// nothing; the zone proves the operands equal.
    fn race2() -> LintGraph {
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let a = g.push(LintOp::Inc(2), vec![x]);
        let b1 = g.push(LintOp::Inc(1), vec![x]);
        let b = g.push(LintOp::Inc(1), vec![b1]);
        let y = g.push(LintOp::Lt, vec![a, b]);
        g.set_outputs(vec![y]);
        g
    }

    #[test]
    fn relational_tier_is_off_by_default() {
        let report = lint_graph(&race2(), &LintOptions::default());
        assert!(
            !codes(&report).contains(&Code::DecidedLt),
            "{}",
            report.render()
        );
        assert!(!codes(&report).contains(&Code::GrlRace));
    }

    #[test]
    fn equal_delay_race_is_decided_and_flagged() {
        let report = lint_graph(&race2(), &relational());
        let cs = codes(&report);
        // STA301: the gate can never fire. STA303: the edges provably
        // coincide, so the GRL latch lowering races.
        assert!(cs.contains(&Code::DecidedLt), "{}", report.render());
        assert!(cs.contains(&Code::GrlRace), "{}", report.render());
        // And the interval tier alone says nothing about the gate.
        assert!(!cs.contains(&Code::DeadGate));
    }

    #[test]
    fn provably_ordered_lt_passes_through() {
        // lt(x, x + 3): the data edge always precedes the inhibitor.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let d = g.push(LintOp::Inc(3), vec![x]);
        let y = g.push(LintOp::Lt, vec![x, d]);
        g.set_outputs(vec![y]);
        let report = lint_graph(&g, &relational());
        let decided: Vec<_> = report.with_code(Code::DecidedLt).collect();
        assert_eq!(decided.len(), 1, "{}", report.render());
        assert!(decided[0].message.contains("passes its data edge"));
        // Strictly ordered edges cannot race.
        assert!(!codes(&report).contains(&Code::GrlRace));
    }

    #[test]
    fn undecidable_lt_stays_silent() {
        // fig6's lt depends on genuinely free inputs: no decision, no
        // race claim.
        let report = lint_graph(&fig6(), &relational());
        assert!(report.diagnostics().is_empty(), "{}", report.render());
    }

    #[test]
    fn wta_ties_earn_margin_warnings() {
        let report = lint_graph(&wta(3, 1), &relational());
        let margins: Vec<_> = report.with_code(Code::WtaMargin).collect();
        // Three competing raw lines: every pair can tie.
        assert_eq!(margins.len(), 3, "{}", report.render());
        assert_eq!(margins[0].severity, Severity::Warning);
        assert!(margins[0].message.contains("evaluation order"));
    }

    #[test]
    fn staggered_wta_lines_cannot_tie() {
        // Each line is delayed by a distinct amount before competing, so
        // the zone proves every pair strictly ordered... except that a
        // shared delay keeps them tied. Use distinct delays: clean.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let a = g.push(LintOp::Inc(1), vec![x]);
        let b = g.push(LintOp::Inc(3), vec![x]);
        let m = g.push(LintOp::Min, vec![a, b]);
        let d = g.push(LintOp::Inc(1), vec![m]);
        let o1 = g.push(LintOp::Lt, vec![a, d]);
        let o2 = g.push(LintOp::Lt, vec![b, d]);
        g.set_outputs(vec![o1, o2]);
        let report = lint_graph(&g, &relational());
        assert!(
            !codes(&report).contains(&Code::WtaMargin),
            "{}",
            report.render()
        );
    }

    #[test]
    fn skewed_merge_beyond_the_window_is_flagged() {
        // min(x, x + 20) under the default 16-tick window premise: the
        // delayed copy provably lands outside any volley containing the
        // direct one.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let d = g.push(LintOp::Inc(20), vec![x]);
        let m = g.push(LintOp::Min, vec![x, d]);
        g.set_outputs(vec![m]);
        let report = lint_graph(&g, &relational());
        let merges: Vec<_> = report.with_code(Code::UnsyncMerge).collect();
        assert_eq!(merges.len(), 1, "{}", report.render());
        assert_eq!(merges[0].location, Location::Gate(m));
        // Within the window: clean.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let d = g.push(LintOp::Inc(16), vec![x]);
        let m = g.push(LintOp::Min, vec![x, d]);
        g.set_outputs(vec![m]);
        let report = lint_graph(&g, &relational());
        assert!(!codes(&report).contains(&Code::UnsyncMerge));
    }

    #[test]
    fn structural_errors_suppress_semantic_passes() {
        let mut g = fig6();
        g.set_sources(4, vec![4, 99]); // a cycle and a dangling ref
        let report = lint_graph(&g, &LintOptions::default());
        assert!(report.has_structural_errors());
        assert!(report.diagnostics().iter().all(|d| d.code.is_structural()));
    }
}
