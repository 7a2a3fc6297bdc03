//! Liveness over [`LintGraph`]s: which nodes can influence an output.
//!
//! Two notions of "influence" matter in space-time networks. *Liveness*
//! follows every source edge backwards from the outputs: a live node's
//! value (including its silence) can change what an output does, so dead
//! nodes are exactly what STA007 flags and what dead-gate elimination
//! removes. *Timing liveness* follows only the edges along which an
//! event can be **scheduled** — everything except `lt`'s inhibitor,
//! which can suppress an output but never create one. The distinction is
//! what makes the micro-weight idiom (`lt(x, μ)`, Figs. 13–14) causal:
//! a finite constant on a timing-live path refutes causality (STA004),
//! while the same constant on an inhibitor-only path merely weakens
//! temporal invariance (STA005).
//!
//! Both sets are computed by one backward walk seeded at the output
//! lines. This is the one liveness engine: STA006/STA007 here and
//! `st-opt`'s dead-gate elimination and STA2xx tier all read
//! [`live_set`]. Ids past the graph (a dangling source or output) are
//! skipped, so both functions are total on malformed graphs.

use crate::graph::{LintGraph, LintNode, LintOp};

/// Nodes with a path to at least one output, following every source
/// edge. Indices align with [`LintGraph`] node ids.
#[must_use]
pub fn live_set(graph: &LintGraph) -> Vec<bool> {
    reach(graph, |node| &node.sources)
}

/// Nodes with a *timing* path to at least one output: the edges along
/// which an event can be scheduled (everything except `lt`'s
/// inhibitor side).
#[must_use]
pub fn timing_live_set(graph: &LintGraph) -> Vec<bool> {
    reach(graph, |node| match node.op {
        LintOp::Lt => &node.sources[..node.sources.len().min(1)],
        _ => &node.sources,
    })
}

/// The nodes reachable from the output lines along `edges`.
fn reach(graph: &LintGraph, edges: impl Fn(&LintNode) -> &[usize]) -> Vec<bool> {
    let n = graph.len();
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = graph.outputs().iter().copied().filter(|&o| o < n).collect();
    while let Some(id) = stack.pop() {
        if seen[id] {
            continue;
        }
        seen[id] = true;
        stack.extend(edges(&graph.nodes()[id]).iter().filter(|&&s| s < n));
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = lt(min(x0+1, x1), x2), plus an orphan inc.
    fn graph() -> LintGraph {
        let mut g = LintGraph::new(3);
        let a = g.push(LintOp::Input(0), vec![]);
        let x = g.push(LintOp::Input(1), vec![]);
        let c = g.push(LintOp::Input(2), vec![]);
        let a1 = g.push(LintOp::Inc(1), vec![a]);
        let m = g.push(LintOp::Min, vec![a1, x]);
        let y = g.push(LintOp::Lt, vec![m, c]);
        let _orphan = g.push(LintOp::Inc(2), vec![x]);
        g.set_outputs(vec![y]);
        g
    }

    #[test]
    fn live_set_reaches_every_source_edge_but_not_orphans() {
        let live = live_set(&graph());
        assert_eq!(live, vec![true, true, true, true, true, true, false]);
    }

    #[test]
    fn timing_liveness_stops_at_the_inhibitor() {
        // The inhibitor input x2 (node 2) is live but not timing-live.
        let timing = timing_live_set(&graph());
        assert_eq!(timing, vec![true, true, false, true, true, true, false]);
    }

    #[test]
    fn empty_outputs_mean_nothing_is_live() {
        let mut g = LintGraph::new(1);
        g.push(LintOp::Input(0), vec![]);
        assert_eq!(live_set(&g), vec![false]);
        assert_eq!(timing_live_set(&g), vec![false]);
    }

    #[test]
    fn ids_past_the_graph_are_skipped() {
        // min(g0, g7) on a 2-node graph: the dangling source is no node.
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), vec![]);
        let m = g.push(LintOp::Min, vec![x, 7]);
        g.set_outputs(vec![m]);
        assert_eq!(live_set(&g), vec![true, true]);
        assert_eq!(timing_live_set(&g), vec![true, true]);

        // A 1-node graph whose output names g5, and an `lt` with no
        // sources at all.
        let mut g = LintGraph::new(1);
        g.push(LintOp::Input(0), vec![]);
        g.set_outputs(vec![5]);
        assert_eq!(live_set(&g), vec![false]);
        assert_eq!(timing_live_set(&g), vec![false]);
        g.push(LintOp::Lt, vec![]);
        g.set_outputs(vec![1]);
        assert_eq!(live_set(&g), vec![false, true]);
        assert_eq!(timing_live_set(&g), vec![false, true]);
    }
}
