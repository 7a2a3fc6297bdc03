//! Causal provenance: the backward cone of influence of one event.
//!
//! Space-time functions are causal (§ II of the paper): a gate's output
//! at time *t* is fully determined by source events at times ≤ *t*. Over
//! a *recorded* run the converse question becomes answerable — which
//! upstream events actually decided this `(gate, time)` outcome? The
//! rules, derived from the primitive semantics over `N0^∞` (see the
//! crate docs), walk one concrete waveform backwards:
//!
//! | gate | fired at `t` | silent (`t = ∞`) |
//! |---|---|---|
//! | `inc δ` | its source | its source |
//! | `min`  | the source(s) that achieved `t` | every source |
//! | `max`  | every source (output waits for the last) | the `∞` source(s) |
//! | `lt a b` | `a`, **and** `b` as the beaten inhibitor | `a`, and `b` when it won the race |
//!
//! The cone's leaves are input lines; raising every *other* input to `∞`
//! gives a candidate minimal witness volley. Because `lt` is
//! **non-monotone** in its inhibitor operand (raising `b` to `∞` can turn
//! a silent output into a firing one), the candidate is *verified by
//! re-evaluation* — if silencing the non-causal lines changes the queried
//! outcome, [`why`] falls back to the full recorded volley and marks the
//! witness [`Provenance::minimized`]` = false`. Either way the witness
//! it returns is guaranteed to reproduce the queried event under
//! `spacetime batch`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use st_core::json::Json;
use st_core::Time;
use st_lint::{LintGraph, LintOp};

use crate::InsightError;

/// Evaluates a [`LintGraph`] forward over one input volley, validating
/// well-formedness as it goes. Returns the firing time of every node.
///
/// This is the reference waveform provenance queries are checked
/// against; it matches the `st-net` event simulator on lowered networks
/// (node indices coincide with `GateId::index`).
///
/// # Errors
///
/// [`InsightError::MalformedGraph`] on forward/self references, arity
/// violations, or out-of-range input lines;
/// [`InsightError::ShapeMismatch`] when `inputs` is narrower than the
/// graph's declared input count.
pub fn eval_graph(graph: &LintGraph, inputs: &[Time]) -> Result<Vec<Time>, InsightError> {
    if inputs.len() < graph.input_count() {
        return Err(InsightError::ShapeMismatch {
            message: format!(
                "graph declares {} input line(s), volley has {}",
                graph.input_count(),
                inputs.len()
            ),
        });
    }
    let mut values = Vec::with_capacity(graph.len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let malformed = |message: String| InsightError::MalformedGraph { node: i, message };
        if let Some(&bad) = node.sources.iter().find(|&&s| s >= i) {
            return Err(malformed(format!(
                "source {bad} is not defined before the node (feedforward violation)"
            )));
        }
        let arity_ok = match node.op {
            LintOp::Input(_) | LintOp::Const(_) => node.sources.is_empty(),
            LintOp::Min | LintOp::Max => !node.sources.is_empty(),
            LintOp::Lt => node.sources.len() == 2,
            LintOp::Inc(_) => node.sources.len() == 1,
        };
        if !arity_ok {
            return Err(malformed(format!(
                "{} gate with fan-in {}",
                node.op.name(),
                node.sources.len()
            )));
        }
        let src = |k: usize| values[node.sources[k]];
        let value = match node.op {
            LintOp::Input(n) => *inputs.get(n).ok_or_else(|| InsightError::MalformedGraph {
                node: i,
                message: format!(
                    "input line {n} out of range (width {})",
                    graph.input_count()
                ),
            })?,
            LintOp::Const(t) => t,
            LintOp::Min => Time::min_of(node.sources.iter().map(|&s| values[s])),
            LintOp::Max => Time::max_of(node.sources.iter().map(|&s| values[s])),
            LintOp::Lt => src(0).lt_gate(src(1)),
            LintOp::Inc(delta) => src(0) + delta,
        };
        values.push(value);
    }
    Ok(values)
}

/// One edge of a provenance subgraph: `from` causally influenced `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvEdge {
    /// The upstream (cause) node.
    pub from: usize,
    /// The downstream (effect) node.
    pub to: usize,
    /// `true` when `from` is the inhibitor operand of an `lt` — the edge
    /// that decides *whether* rather than *when*.
    pub inhibits: bool,
}

/// The answer to a `--why` query: the minimal causal subgraph behind one
/// `(gate, time)` event, plus a replayable witness volley.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The volley index the query was answered in.
    pub volley: usize,
    /// The queried gate.
    pub gate: usize,
    /// The queried outcome (`∞` = "why was it silent").
    pub at: Time,
    /// Nodes in the cone, with their op names and recorded firing times,
    /// in ascending node order.
    pub nodes: Vec<(usize, &'static str, Time)>,
    /// Causal edges within the cone.
    pub edges: Vec<ProvEdge>,
    /// A witness input volley that reproduces the queried event: cone
    /// inputs keep their recorded times, the rest are silenced to `∞`
    /// when that provably preserves the outcome.
    pub witness: Vec<Time>,
    /// `true` when the witness silences every non-cone input; `false`
    /// when non-monotone inhibition forced a fall-back to the full
    /// recorded volley.
    pub minimized: bool,
}

impl Provenance {
    /// The node indices in the cone, ascending.
    #[must_use]
    pub fn gates(&self) -> Vec<usize> {
        self.nodes.iter().map(|&(id, _, _)| id).collect()
    }

    /// The witness volley as a `spacetime batch` input line
    /// (space-separated ticks, `inf` for silenced lines).
    #[must_use]
    pub fn witness_line(&self) -> String {
        let fields: Vec<String> = self
            .witness
            .iter()
            .map(|t| {
                t.value()
                    .map_or_else(|| "inf".to_owned(), |v| v.to_string())
            })
            .collect();
        fields.join(" ")
    }

    /// Renders the cone as Graphviz dot: cone nodes labelled with their
    /// recorded times, inhibitor edges dashed, the queried gate doubled.
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph provenance {\n  rankdir=LR;\n");
        for &(id, op, at) in &self.nodes {
            let shape = if id == self.gate {
                "doublecircle"
            } else {
                "ellipse"
            };
            let _ = writeln!(
                out,
                "  g{id} [label=\"g{id} {op}\\n@{}\" shape={shape}];",
                fmt_time(at)
            );
        }
        for edge in &self.edges {
            let style = if edge.inhibits { " [style=dashed]" } else { "" };
            let _ = writeln!(out, "  g{} -> g{}{style};", edge.from, edge.to);
        }
        out.push_str("}\n");
        out
    }

    /// Renders the provenance as a single JSON object (machine-readable
    /// `spacetime inspect --why … --json` output).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"volley\":{},\"gate\":{},\"at\":{},\"minimized\":{},",
            self.volley,
            self.gate,
            Json::from(self.at),
            self.minimized
        );
        out.push_str("\"nodes\":[");
        for (i, &(id, op, at)) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"gate\":{id},\"op\":\"{op}\",\"at\":{}}}",
                Json::from(at)
            );
        }
        out.push_str("],\"edges\":[");
        for (i, edge) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"from\":{},\"to\":{},\"inhibits\":{}}}",
                edge.from, edge.to, edge.inhibits
            );
        }
        out.push_str("],\"witness\":[");
        for (i, t) in self.witness.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", Json::from(*t));
        }
        out.push_str("]}");
        out
    }

    /// A human-readable rendering: the cone in topological order with
    /// recorded times and per-gate explanations, then the witness.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "why: gate {} {} in volley {}\n",
            self.gate,
            if self.at.is_finite() {
                format!("fired at {}", fmt_time(self.at))
            } else {
                "stayed silent".to_owned()
            },
            self.volley
        );
        let mut fan_in: BTreeMap<usize, Vec<&ProvEdge>> = BTreeMap::new();
        for edge in &self.edges {
            fan_in.entry(edge.to).or_default().push(edge);
        }
        for &(id, op, at) in &self.nodes {
            let _ = write!(out, "  g{id} {op} @{}", fmt_time(at));
            if let Some(edges) = fan_in.get(&id) {
                let causes: Vec<String> = edges
                    .iter()
                    .map(|e| {
                        if e.inhibits {
                            format!("g{} (inhibitor)", e.from)
                        } else {
                            format!("g{}", e.from)
                        }
                    })
                    .collect();
                let _ = write!(out, "  <- {}", causes.join(", "));
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  witness volley{}: {}",
            if self.minimized {
                " (minimized)"
            } else {
                " (full: inhibition is non-monotone)"
            },
            self.witness_line()
        );
        out
    }
}

fn fmt_time(t: Time) -> String {
    t.value()
        .map_or_else(|| "inf".to_owned(), |v| v.to_string())
}

/// The direct causes of `node`'s recorded outcome, as
/// `(source, inhibits)` pairs, per the cone rules in the module docs.
fn direct_causes(graph: &LintGraph, values: &[Time], node: usize) -> Vec<(usize, bool)> {
    let n = &graph.nodes()[node];
    let out = values[node];
    match n.op {
        LintOp::Input(_) | LintOp::Const(_) => Vec::new(),
        LintOp::Inc(_) => vec![(n.sources[0], false)],
        LintOp::Min => {
            if out.is_finite() {
                // The achiever(s) of the minimum; later sources are
                // removable without changing the output.
                n.sources
                    .iter()
                    .filter(|&&s| values[s] == out)
                    .map(|&s| (s, false))
                    .collect()
            } else {
                // Silence of a min needs *every* source silent.
                n.sources.iter().map(|&s| (s, false)).collect()
            }
        }
        LintOp::Max => {
            if out.is_finite() {
                // The output waits for the last arrival, so every source
                // event is load-bearing: silencing any would silence it.
                n.sources.iter().map(|&s| (s, false)).collect()
            } else {
                // Any ∞ source explains the silence; report them all.
                n.sources
                    .iter()
                    .filter(|&&s| !values[s].is_finite())
                    .map(|&s| (s, false))
                    .collect()
            }
        }
        LintOp::Lt => {
            // Whether the output fired at all was decided by the race
            // between a and the inhibitor b, so both are always causal —
            // even (especially) when the recorded output is silence.
            vec![(n.sources[0], false), (n.sources[1], true)]
        }
    }
}

/// Answers "why did `gate` produce outcome `at` in this volley": walks
/// the backward cone of influence over the recorded waveform `values`
/// and returns the provenance subgraph with a verified witness volley.
///
/// `values` must be the full per-node waveform of the queried volley
/// (from [`eval_graph`], or densified from a recorded trace via
/// [`crate::db::VolleyTrace::gate_waveform`]). Querying silence is legal:
/// pass `at = ∞`.
///
/// # Errors
///
/// [`InsightError::QueryMismatch`] when `gate` is out of range or the
/// recorded outcome at `gate` differs from `at` (the query contradicts
/// the run); [`InsightError::TraceMismatch`] when `values` has the wrong
/// length for the graph; [`InsightError::MalformedGraph`] when witness
/// verification trips over a malformed graph.
pub fn why(
    graph: &LintGraph,
    values: &[Time],
    volley: usize,
    gate: usize,
    at: Time,
) -> Result<Provenance, InsightError> {
    if values.len() != graph.len() {
        return Err(InsightError::TraceMismatch {
            message: format!(
                "waveform covers {} node(s), graph has {}",
                values.len(),
                graph.len()
            ),
        });
    }
    if gate >= graph.len() {
        return Err(InsightError::QueryMismatch {
            message: format!("gate {gate} out of range (graph has {} nodes)", graph.len()),
        });
    }
    if values[gate] != at {
        return Err(InsightError::QueryMismatch {
            message: format!(
                "gate {gate} recorded {} in volley {volley}, not {} — query a recorded outcome",
                fmt_time(values[gate]),
                fmt_time(at)
            ),
        });
    }

    // Backward closure under the cone rules. Node indices are
    // topological (sources precede gates), so a worklist terminates.
    let mut cone: BTreeSet<usize> = BTreeSet::new();
    let mut edges = Vec::new();
    let mut work = vec![gate];
    cone.insert(gate);
    while let Some(node) = work.pop() {
        for (source, inhibits) in direct_causes(graph, values, node) {
            edges.push(ProvEdge {
                from: source,
                to: node,
                inhibits,
            });
            if cone.insert(source) {
                work.push(source);
            }
        }
    }
    edges.sort_by_key(|e| (e.to, e.from));
    edges.dedup();

    // Candidate minimal witness: recorded times on cone inputs, ∞
    // elsewhere — then *verify*, because `lt` inhibition is non-monotone
    // and silencing a non-cone line is not always outcome-preserving.
    let mut recorded = vec![Time::INFINITY; graph.input_count()];
    let mut witness = vec![Time::INFINITY; graph.input_count()];
    for (i, node) in graph.nodes().iter().enumerate() {
        if let LintOp::Input(line) = node.op {
            recorded[line] = values[i];
            if cone.contains(&i) {
                witness[line] = values[i];
            }
        }
    }
    let minimized = eval_graph(graph, &witness)?[gate] == at;
    if !minimized {
        witness = recorded;
    }

    let nodes = cone
        .iter()
        .map(|&id| (id, graph.nodes()[id].op.name(), values[id]))
        .collect();
    Ok(Provenance {
        volley,
        gate,
        at,
        nodes,
        edges,
        witness,
        minimized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// y = lt(min(x0+1, x1), x2) — Fig. 6(b).
    fn fig6() -> (LintGraph, [usize; 6]) {
        let mut g = LintGraph::new(3);
        let a = g.push(LintOp::Input(0), vec![]);
        let x = g.push(LintOp::Input(1), vec![]);
        let c = g.push(LintOp::Input(2), vec![]);
        let a1 = g.push(LintOp::Inc(1), vec![a]);
        let m = g.push(LintOp::Min, vec![a1, x]);
        let y = g.push(LintOp::Lt, vec![m, c]);
        g.set_outputs(vec![y]);
        (g, [a, x, c, a1, m, y])
    }

    #[test]
    fn eval_matches_primitive_semantics() {
        let (g, [.., y]) = fig6();
        assert_eq!(eval_graph(&g, &[t(0), t(3), t(2)]).unwrap()[y], t(1));
        // Inhibited: min arrives at 3, inhibitor at 2.
        assert_eq!(
            eval_graph(&g, &[t(2), t(3), t(2)]).unwrap()[y],
            Time::INFINITY
        );
    }

    #[test]
    fn eval_rejects_malformed_graphs() {
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let d = g.push(LintOp::Inc(1), vec![x]);
        g.set_sources(d, vec![d]);
        assert!(matches!(
            eval_graph(&g, &[t(0)]),
            Err(InsightError::MalformedGraph { node: 1, .. })
        ));

        let mut g = LintGraph::new(1);
        g.push(LintOp::Lt, vec![]);
        assert!(matches!(
            eval_graph(&g, &[t(0)]),
            Err(InsightError::MalformedGraph { node: 0, .. })
        ));

        let mut g = LintGraph::new(1);
        g.push(LintOp::Input(5), vec![]);
        assert!(eval_graph(&g, &[t(0)]).is_err());
    }

    #[test]
    fn cone_excludes_the_losing_min_operand() {
        let (g, [a, x, c, a1, m, y]) = fig6();
        let values = eval_graph(&g, &[t(0), t(3), t(2)]).unwrap();
        let prov = why(&g, &values, 0, y, t(1)).unwrap();
        let gates = prov.gates();
        assert!(gates.contains(&a) && gates.contains(&a1) && gates.contains(&m));
        assert!(gates.contains(&c), "the beaten inhibitor is causal");
        assert!(!gates.contains(&x), "the losing min operand is not");
        assert!(prov.minimized);
        assert_eq!(prov.witness, vec![t(0), Time::INFINITY, t(2)]);
        assert_eq!(prov.witness_line(), "0 inf 2");
        // The witness reproduces the event.
        assert_eq!(eval_graph(&g, &prov.witness).unwrap()[y], t(1));
    }

    #[test]
    fn silence_is_queryable() {
        let (g, [a, x, c, .., y]) = fig6();
        let values = eval_graph(&g, &[t(2), t(5), t(2)]).unwrap();
        let prov = why(&g, &values, 0, y, Time::INFINITY).unwrap();
        let gates = prov.gates();
        // The inhibitor that won the race is the explanation.
        assert!(gates.contains(&c) && gates.contains(&a));
        assert!(!gates.contains(&x));
        assert_eq!(
            eval_graph(&g, &prov.witness).unwrap()[y],
            Time::INFINITY,
            "witness must reproduce the silence"
        );
    }

    #[test]
    fn max_cone_keeps_every_source() {
        let mut g = LintGraph::new(2);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let m = g.push(LintOp::Max, vec![a, b]);
        g.set_outputs(vec![m]);
        let values = eval_graph(&g, &[t(1), t(5)]).unwrap();
        let prov = why(&g, &values, 0, m, t(5)).unwrap();
        assert_eq!(prov.gates(), vec![a, b, m]);
        assert_eq!(prov.witness, vec![t(1), t(5)]);
    }

    #[test]
    fn non_monotone_inhibition_falls_back_to_the_full_volley() {
        // y = lt(x0, min(x1, x2)): x1 is outside the cone of the
        // inhibitor *achiever* path when x2 wins the min, but silencing
        // x1 must not change the outcome — construct the converse: query
        // the *silence* of an lt whose inhibitor is a max, so dropping a
        // non-cone line would un-inhibit the output.
        let mut g = LintGraph::new(3);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let c = g.push(LintOp::Input(2), vec![]);
        let m = g.push(LintOp::Min, vec![b, c]);
        let y = g.push(LintOp::Lt, vec![m, a]);
        g.set_outputs(vec![y]);
        // min(b=1, c=4) = 1 via b; inhibitor a at 1 wins (not strictly
        // less) → y silent. Cone: {b (achiever), c? no — min fired via
        // b}, a. Silencing c keeps min at 1 → still inhibited: candidate
        // witness verifies, stays minimal.
        let values = eval_graph(&g, &[t(1), t(1), t(4)]).unwrap();
        let prov = why(&g, &values, 0, y, Time::INFINITY).unwrap();
        assert_eq!(eval_graph(&g, &prov.witness).unwrap()[y], Time::INFINITY);

        // Now make the *queried gate itself* depend non-monotonically on
        // a non-cone line: z = lt(a, min(b, c)) fired because the
        // inhibitor lost; the min fired via b, so c is outside the cone —
        // and silencing c keeps the inhibitor at min(b)=b, outcome
        // preserved. Verification accepts.
        let mut g = LintGraph::new(3);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let c = g.push(LintOp::Input(2), vec![]);
        let m = g.push(LintOp::Min, vec![b, c]);
        let z = g.push(LintOp::Lt, vec![a, m]);
        g.set_outputs(vec![z]);
        let values = eval_graph(&g, &[t(0), t(2), t(5)]).unwrap();
        let prov = why(&g, &values, 0, z, t(0)).unwrap();
        assert_eq!(eval_graph(&g, &prov.witness).unwrap()[z], t(0));
        // Whether minimized or not, the witness is always reproducing.
        assert!(prov.witness.len() == 3);
    }

    #[test]
    fn query_must_match_the_recording() {
        let (g, [.., y]) = fig6();
        let values = eval_graph(&g, &[t(0), t(3), t(2)]).unwrap();
        let err = why(&g, &values, 0, y, t(9)).unwrap_err();
        assert!(matches!(err, InsightError::QueryMismatch { .. }), "{err}");
        assert!(why(&g, &values, 0, 99, t(1)).is_err());
        assert!(why(&g, &values[..3], 0, y, t(1)).is_err());
    }

    #[test]
    fn renderings_are_well_formed() {
        let (g, [.., y]) = fig6();
        let values = eval_graph(&g, &[t(0), t(3), t(2)]).unwrap();
        let prov = why(&g, &values, 0, y, t(1)).unwrap();

        let dot = prov.to_dot();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("doublecircle"), "{dot}");
        assert!(dot.contains("style=dashed"), "{dot}");

        let json = prov.to_json();
        assert!(json.contains("\"minimized\":true"), "{json}");
        assert!(json.contains("\"witness\":[0,null,2]"), "{json}");
        assert!(Json::parse(&json).is_ok(), "{json}");

        let text = prov.render();
        assert!(text.contains("fired at 1"), "{text}");
        assert!(text.contains("(inhibitor)"), "{text}");
        assert!(
            text.contains("witness volley (minimized): 0 inf 2"),
            "{text}"
        );
    }
}
