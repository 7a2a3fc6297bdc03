//! Boundedness certificates from interval abstract interpretation.
//!
//! A certificate is the § IV boundedness claim made concrete: assuming
//! every primary input fires within the coding window (or not at all),
//! the interval engine shared with `st-lint` assigns each gate a sound
//! spike-time bound. The certificate records the per-output bounds, the
//! worst-case output delay, the logic depth, and the gates/outputs
//! proven `∞`-saturated — facts that hold for **all** inputs in the
//! window, not just the tested ones.

use st_core::Time;
use st_lint::interval::{analyze, Interval};
use st_lint::liveness::live_set;
use st_lint::{LintGraph, Zone};

/// Skew pairs are only enumerated up to this output width (the pair
/// count is quadratic and wide artifacts rarely want all of them).
const MAX_SKEW_OUTPUTS: usize = 8;

/// Sound spike-time bounds for one output line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBound {
    /// The output line index.
    pub line: usize,
    /// Earliest possible firing time (`∞` iff the line never fires).
    pub lo: Time,
    /// Latest possible *finite* firing time (`∞` iff the line never
    /// fires).
    pub hi: Time,
    /// Whether the line can stay silent for some in-window input.
    pub maybe_silent: bool,
}

/// A provable bound on the spread between two output lines, from the
/// relational zone domain: whenever both lines fire, the later minus
/// the earlier spike time satisfies `lo ≤ t_b − t_a ≤ hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewBound {
    /// The first output line index.
    pub a: usize,
    /// The second output line index.
    pub b: usize,
    /// Least possible `t_b − t_a` when both lines fire.
    pub lo: i64,
    /// Greatest possible `t_b − t_a` when both lines fire.
    pub hi: i64,
}

/// A provable boundedness certificate for one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The artifact kind the certificate covers ("table", "net", "grl",
    /// or "column"); lowered artifacts are certified on their gate
    /// graph.
    pub kind: String,
    /// The coding window the § IV premise assumes: inputs fire at
    /// `t ≤ window` or not at all.
    pub window: u64,
    /// Number of primary input lines.
    pub input_width: usize,
    /// Number of output lines.
    pub output_width: usize,
    /// Number of nodes in the analyzed graph.
    pub gate_count: usize,
    /// Longest operator chain from any input/constant to any output
    /// ([`LintGraph::logic_depth`]).
    pub depth: usize,
    /// Per-output spike-time bounds.
    pub outputs: Vec<OutputBound>,
    /// The largest finite `hi` over all live outputs: every output event
    /// happens by this tick. `None` when every output is dead.
    ///
    /// This is an interval bound over the window, so it counts the
    /// inputs' own times and what `lt` gates and constants make of them;
    /// `st_net::analysis::critical_delay` is a different quantity, the
    /// largest sum of `inc` delays along any path, independent of the
    /// window.
    pub worst_case_delay: Option<u64>,
    /// Whether every output is bounded: it either fires by a finite
    /// deadline or provably never fires. Feedforward graphs over
    /// `{min, max, lt, inc}` always are; the field makes the claim
    /// explicit and machine-checkable.
    pub bounded: bool,
    /// Reachable operator gates proven to never fire (semantic dead
    /// gates, the certificate form of STA006).
    pub dead_gates: Vec<usize>,
    /// Output lines proven to never fire.
    pub dead_outputs: Vec<usize>,
    /// Per-output-pair skew bounds from the zone domain (empty when the
    /// artifact is too wide or declines relational analysis).
    pub skews: Vec<SkewBound>,
}

impl Certificate {
    /// A short human-readable summary (one line per fact).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "certificate ({}): {} input(s), {} output(s), {} gate(s), depth {}",
            self.kind, self.input_width, self.output_width, self.gate_count, self.depth
        );
        let _ = writeln!(
            out,
            "  window: inputs fire at t ≤ {} or never (§ IV premise)",
            self.window
        );
        match self.worst_case_delay {
            Some(d) => {
                let _ = writeln!(
                    out,
                    "  worst-case delay: every output event lands by t = {d}"
                );
            }
            None => {
                let _ = writeln!(out, "  worst-case delay: none (no output ever fires)");
            }
        }
        for b in &self.outputs {
            let silence = if b.lo.is_infinite() {
                " (dead: never fires)"
            } else if b.maybe_silent {
                " or stays silent"
            } else {
                ""
            };
            if b.lo.is_infinite() {
                let _ = writeln!(out, "  output {}: ∞{silence}", b.line);
            } else {
                let _ = writeln!(
                    out,
                    "  output {}: fires within [{}, {}]{silence}",
                    b.line, b.lo, b.hi
                );
            }
        }
        if !self.dead_gates.is_empty() {
            let gates: Vec<String> = self.dead_gates.iter().map(|g| format!("g{g}")).collect();
            let _ = writeln!(out, "  dead gates: {}", gates.join(", "));
        }
        for s in &self.skews {
            let _ = writeln!(
                out,
                "  skew: t(out {}) − t(out {}) ∈ [{}, {}] whenever both fire",
                s.b, s.a, s.lo, s.hi
            );
        }
        out
    }
}

/// Per-output-pair skew bounds from the zone domain. Pairs where either
/// line provably never fires carry no claim and are skipped, as is
/// anything the zone cannot bound on both sides.
fn skew_bounds(graph: &LintGraph, window: u64) -> Vec<SkewBound> {
    let outputs = graph.outputs();
    if outputs.len() < 2 || outputs.len() > MAX_SKEW_OUTPUTS {
        return Vec::new();
    }
    let Some(zone) = Zone::analyze(graph, Interval::within(window)) else {
        return Vec::new();
    };
    let mut skews = Vec::new();
    for (i, &oa) in outputs.iter().enumerate() {
        for (j, &ob) in outputs.iter().enumerate().skip(i + 1) {
            if !zone.can_fire(oa) || !zone.can_fire(ob) {
                continue;
            }
            let (Some(lo), Some(hi)) = (zone.diff_lo(ob, oa), zone.diff_hi(ob, oa)) else {
                continue;
            };
            skews.push(SkewBound {
                a: i,
                b: j,
                lo: i64::try_from(lo).unwrap_or(i64::MIN),
                hi: i64::try_from(hi).unwrap_or(i64::MAX),
            });
        }
    }
    skews
}

/// Certifies a (structurally valid) gate graph over the given coding
/// window.
#[must_use]
pub fn certify_graph(graph: &LintGraph, window: u64, kind: &str) -> Certificate {
    let intervals = analyze(graph, Interval::within(window));
    let reachable = live_set(graph);

    let outputs: Vec<OutputBound> = graph
        .outputs()
        .iter()
        .enumerate()
        .map(|(line, &o)| {
            let iv = intervals.get(o).copied().unwrap_or_else(Interval::free);
            OutputBound {
                line,
                lo: iv.lo(),
                hi: iv.hi(),
                maybe_silent: iv.maybe_silent(),
            }
        })
        .collect();
    let worst_case_delay = outputs.iter().filter_map(|b| b.hi.value()).max();
    let bounded = outputs
        .iter()
        .all(|b| b.hi.is_finite() || b.lo.is_infinite());
    let dead_gates: Vec<usize> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|&(id, node)| reachable[id] && node.op.is_operator() && intervals[id].is_never())
        .map(|(id, _)| id)
        .collect();
    let dead_outputs: Vec<usize> = outputs
        .iter()
        .filter(|b| b.lo.is_infinite())
        .map(|b| b.line)
        .collect();
    Certificate {
        kind: kind.to_owned(),
        window,
        input_width: graph.input_count(),
        output_width: graph.outputs().len(),
        gate_count: graph.len(),
        depth: graph.logic_depth(),
        outputs,
        worst_case_delay,
        bounded,
        dead_gates,
        dead_outputs,
        skews: skew_bounds(graph, window),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_lint::LintOp;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// Fig. 6: y = lt(min(x0 + 1, x1), x2).
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
    fn fig6_certificate_bounds_the_output_by_window_plus_one() {
        let cert = certify_graph(&fig6(), 3, "net");
        assert_eq!(cert.input_width, 3);
        assert_eq!(cert.output_width, 1);
        assert_eq!(cert.depth, 3);
        assert!(cert.bounded);
        // min(x0+1, x1) is at most window+1 when it fires; lt passes it
        // through or suppresses it.
        assert_eq!(cert.worst_case_delay, Some(4));
        assert_eq!(cert.outputs[0].lo, Time::ZERO);
        assert_eq!(cert.outputs[0].hi, t(4));
        assert!(cert.outputs[0].maybe_silent);
        assert!(cert.dead_gates.is_empty());
        assert!(cert.dead_outputs.is_empty());
        let text = cert.render();
        assert!(text.contains("worst-case delay"), "{text}");
    }

    #[test]
    fn skew_bounds_relate_output_pairs() {
        // out0 = x + 1, out1 = x + 4: the zone proves the pair always
        // lands exactly 3 ticks apart, which no per-output interval can
        // express (each alone spans the whole window).
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let a = g.push(LintOp::Inc(1), vec![x]);
        let b = g.push(LintOp::Inc(4), vec![x]);
        g.set_outputs(vec![a, b]);
        let cert = certify_graph(&g, 5, "net");
        assert_eq!(
            cert.skews,
            vec![SkewBound {
                a: 0,
                b: 1,
                lo: 3,
                hi: 3
            }]
        );
        assert!(cert.render().contains("∈ [3, 3]"), "{}", cert.render());
        // A single-output artifact has no pairs to relate.
        assert!(certify_graph(&fig6(), 3, "net").skews.is_empty());
    }

    #[test]
    fn dead_paths_are_certified_dead() {
        // out = lt(x + 3, min(y, 2)) can never fire.
        let mut g = LintGraph::new(2);
        let x = g.push(LintOp::Input(0), vec![]);
        let y = g.push(LintOp::Input(1), vec![]);
        let k = g.push(LintOp::Const(t(2)), vec![]);
        let cap = g.push(LintOp::Min, vec![y, k]);
        let a = g.push(LintOp::Inc(3), vec![x]);
        let out = g.push(LintOp::Lt, vec![a, cap]);
        g.set_outputs(vec![out]);
        let cert = certify_graph(&g, 4, "net");
        assert_eq!(cert.dead_gates, vec![out]);
        assert_eq!(cert.dead_outputs, vec![0]);
        assert_eq!(cert.worst_case_delay, None);
        assert!(cert.bounded, "a dead output is (vacuously) bounded");
        assert!(cert.render().contains("dead"), "{}", cert.render());
    }
}
