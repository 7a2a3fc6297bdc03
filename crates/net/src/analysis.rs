//! Structural analysis of networks: gate census, logic depth, critical
//! delay, and Graphviz export.
//!
//! These are the cost metrics used throughout the experiment harness: the
//! paper's constructions (Theorem 1 synthesis, bitonic sorters, SRM0
//! neurons) each come with an expected asymptotic size/depth, and the
//! benches regenerate those scaling curves from the numbers computed here.

use core::fmt;
use std::fmt::Write as _;

use crate::graph::{GateKind, Network};
use crate::lint::to_lint_graph;

/// Census of a network's gates by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounts {
    /// Primary inputs.
    pub inputs: usize,
    /// Constant sources (including micro-weights).
    pub constants: usize,
    /// `min` gates.
    pub min: usize,
    /// `max` gates.
    pub max: usize,
    /// `lt` gates.
    pub lt: usize,
    /// `inc` (delay) gates.
    pub inc: usize,
}

impl GateCounts {
    /// Operator gates only (everything except inputs and constants).
    #[must_use]
    pub fn operators(&self) -> usize {
        self.min + self.max + self.lt + self.inc
    }

    /// All gates.
    #[must_use]
    pub fn total(&self) -> usize {
        self.operators() + self.inputs + self.constants
    }

    /// Whether the census uses only the minimal complete primitive set
    /// `{min, lt, inc}` of Theorem 1 (i.e. no `max` gates).
    #[must_use]
    pub fn is_minimal_basis(&self) -> bool {
        self.max == 0
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inputs={} consts={} min={} max={} lt={} inc={} (operators={})",
            self.inputs,
            self.constants,
            self.min,
            self.max,
            self.lt,
            self.inc,
            self.operators()
        )
    }
}

/// Counts the network's gates by kind.
#[must_use]
pub fn gate_counts(network: &Network) -> GateCounts {
    let mut c = GateCounts::default();
    for (_, kind) in network.iter_gates() {
        match kind {
            GateKind::Input(_) => c.inputs += 1,
            GateKind::Const(_) => c.constants += 1,
            GateKind::Min => c.min += 1,
            GateKind::Max => c.max += 1,
            GateKind::Lt => c.lt += 1,
            GateKind::Inc(_) => c.inc += 1,
        }
    }
    c
}

/// The longest operator-gate path from any source to any output (inputs
/// and constants contribute 0).
///
/// This is the *logic depth* a direct hardware implementation would pay in
/// gate delays, on top of the modeled unit-time delays. It is
/// [`LintGraph::logic_depth`](st_lint::LintGraph::logic_depth) of the
/// network's lint lowering, the one depth computation that the
/// verifier's certificates also report.
#[must_use]
pub fn logic_depth(network: &Network) -> usize {
    to_lint_graph(network).logic_depth()
}

/// The largest total `inc` delay along any source-to-output path: the
/// worst-case *modeled time* an event spends in flight, which bounds how
/// long after the last input event the outputs settle.
///
/// This is a structural sum over paths, independent of any window. The
/// verifier certificate's `worst_case_delay` is a different quantity: an
/// interval bound on the output spike times for inputs within a coding
/// window, which also counts the inputs' own times and what `lt` gates
/// and constants make of them.
#[must_use]
pub fn critical_delay(network: &Network) -> u64 {
    let mut delay = vec![0u64; network.gate_count()];
    for (id, kind) in network.iter_gates() {
        let sources = network.sources(id).expect("id from iter_gates");
        let src_delay = sources.iter().map(|s| delay[s.index()]).max().unwrap_or(0);
        delay[id.index()] = match kind {
            GateKind::Inc(c) => src_delay + c,
            _ => src_delay,
        };
    }
    network
        .outputs()
        .iter()
        .map(|o| delay[o.index()])
        .max()
        .unwrap_or(0)
}

/// Escapes a string for use inside a double-quoted DOT attribute.
///
/// Today's gate labels are drawn from a fixed alphabet that needs no
/// escaping, but the format must stay valid if a future gate kind (or a
/// changed `Time` rendering) ever produces `"` or `\`.
fn escape_dot(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if matches!(c, '"' | '\\') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

/// Renders the network in Graphviz DOT format for visualization.
///
/// The output is deterministic: gates appear in index order, followed by
/// edges in (source, gate) order, followed by output markers in line
/// order, so the same network always renders byte-for-byte identically.
#[must_use]
pub fn to_dot(network: &Network) -> String {
    let mut out = String::from("digraph spacetime {\n  rankdir=LR;\n");
    for (id, kind) in network.iter_gates() {
        let label = match kind {
            GateKind::Input(n) => format!("x{n}"),
            GateKind::Const(t) => format!("{t}"),
            GateKind::Min => "∧".to_owned(),
            GateKind::Max => "∨".to_owned(),
            GateKind::Lt => "≺".to_owned(),
            GateKind::Inc(c) => format!("+{c}"),
        };
        let shape = match kind {
            GateKind::Input(_) | GateKind::Const(_) => "circle",
            _ => "box",
        };
        let _ = writeln!(
            out,
            "  g{} [label=\"{}\", shape={}];",
            id.index(),
            escape_dot(&label),
            shape
        );
    }
    for (id, _) in network.iter_gates() {
        for &s in network.sources(id).expect("id from iter_gates") {
            let _ = writeln!(out, "  g{} -> g{};", s.index(), id.index());
        }
    }
    for (line, o) in network.outputs().iter().enumerate() {
        let _ = writeln!(out, "  y{line} [shape=plaintext];");
        let _ = writeln!(out, "  g{} -> y{line};", o.index());
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use st_core::Time;

    fn fig6() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.input();
        let x = b.input();
        let c = b.input();
        let a1 = b.inc(a, 1);
        let m = b.min([a1, x]).unwrap();
        let y = b.lt(m, c);
        b.build([y])
    }

    #[test]
    fn census_counts_each_kind() {
        let net = fig6();
        let c = gate_counts(&net);
        assert_eq!(
            c,
            GateCounts {
                inputs: 3,
                constants: 0,
                min: 1,
                max: 0,
                lt: 1,
                inc: 1,
            }
        );
        assert_eq!(c.operators(), 3);
        assert_eq!(c.total(), 6);
        assert!(c.is_minimal_basis());
        assert!(c.to_string().contains("operators=3"));
    }

    #[test]
    fn depth_and_delay() {
        let net = fig6();
        assert_eq!(logic_depth(&net), 3); // inc → min → lt
        assert_eq!(critical_delay(&net), 1);

        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 2);
        let d2 = b.inc(d1, 3);
        let direct = b.inc(x, 1);
        let m = b.min([d2, direct]).unwrap();
        let net = b.build([m]);
        assert_eq!(logic_depth(&net), 3);
        assert_eq!(critical_delay(&net), 5);
    }

    #[test]
    fn max_gate_breaks_minimal_basis() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let y = b.input();
        let m = b.max([x, y]).unwrap();
        let net = b.build([m]);
        assert!(!gate_counts(&net).is_minimal_basis());
    }

    #[test]
    fn empty_outputs_have_zero_depth() {
        let mut b = NetworkBuilder::new();
        let _ = b.input();
        let net = b.build([]);
        assert_eq!(logic_depth(&net), 0);
        assert_eq!(critical_delay(&net), 0);
    }

    #[test]
    fn dot_export_mentions_every_gate() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let k = b.constant(Time::INFINITY);
        let g = b.lt(x, k);
        let net = b.build([g]);
        let dot = to_dot(&net);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("x0"));
        assert!(dot.contains('∞'));
        assert!(dot.contains('≺'));
        assert!(dot.contains("g2 -> y0"));
        assert_eq!(dot.matches("->").count(), 3); // two sources + output
    }

    #[test]
    fn dot_escaping_quotes_and_backslashes() {
        assert_eq!(escape_dot("plain ∧ +3"), "plain ∧ +3");
        assert_eq!(escape_dot(r#"a"b\c"#), r#"a\"b\\c"#);
    }

    #[test]
    fn dot_export_is_deterministic_and_matches_the_golden_form() {
        // Fig. 6(b): y = lt(min(inc(a, 1), x), c). The exact rendering is
        // pinned so downstream tooling can diff exports byte-for-byte.
        let golden = "\
digraph spacetime {
  rankdir=LR;
  g0 [label=\"x0\", shape=circle];
  g1 [label=\"x1\", shape=circle];
  g2 [label=\"x2\", shape=circle];
  g3 [label=\"+1\", shape=box];
  g4 [label=\"∧\", shape=box];
  g5 [label=\"≺\", shape=box];
  g0 -> g3;
  g3 -> g4;
  g1 -> g4;
  g4 -> g5;
  g2 -> g5;
  y0 [shape=plaintext];
  g5 -> y0;
}
";
        assert_eq!(to_dot(&fig6()), golden);
        assert_eq!(to_dot(&fig6()), to_dot(&fig6()));
    }
}
