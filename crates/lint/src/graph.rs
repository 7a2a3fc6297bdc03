//! The lint IR: a deliberately unchecked gate graph.
//!
//! Every builder in the workspace (`NetworkBuilder`, `GrlBuilder`, the
//! column compiler) enforces the feedforward discipline *by construction*,
//! which is exactly why none of them can represent the defects the linter
//! must detect. [`LintGraph`] is the common denominator the richer
//! representations lower into: nodes hold raw `usize` source indices with
//! no validation, so cycles, dangling references, and arity mismatches are
//! all representable — both for lowering real artifacts and for seeding
//! mutations in tests.

use std::collections::HashMap;

use st_core::{Expr, Time};

/// The operation computed by one [`LintGraph`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintOp {
    /// Primary input line `n` (fan-in 0).
    Input(usize),
    /// A constant event time (fan-in 0); `Const(∞)` is the absent event.
    Const(Time),
    /// Earliest of the sources (fan-in ≥ 1).
    Min,
    /// Latest of the sources (fan-in ≥ 1).
    Max,
    /// `sources[0]` if it strictly precedes `sources[1]`, else `∞`
    /// (fan-in exactly 2; the second source is the inhibitor).
    Lt,
    /// The source delayed by a fixed number of ticks (fan-in exactly 1).
    Inc(u64),
}

impl LintOp {
    /// A short human-readable operator name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintOp::Input(_) => "input",
            LintOp::Const(_) => "const",
            LintOp::Min => "min",
            LintOp::Max => "max",
            LintOp::Lt => "lt",
            LintOp::Inc(_) => "inc",
        }
    }

    /// Whether the op is an operator gate (not an input or constant).
    #[must_use]
    pub fn is_operator(self) -> bool {
        !matches!(self, LintOp::Input(_) | LintOp::Const(_))
    }
}

/// One node: an operation plus raw source indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintNode {
    /// The operation.
    pub op: LintOp,
    /// Indices of the nodes this one reads. Not validated: out-of-range
    /// and forward (cycle-forming) references are representable.
    pub sources: Vec<usize>,
}

/// An unchecked gate graph for static analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintGraph {
    nodes: Vec<LintNode>,
    input_count: usize,
    outputs: Vec<usize>,
}

impl LintGraph {
    /// An empty graph declaring `input_count` primary input lines.
    #[must_use]
    pub fn new(input_count: usize) -> LintGraph {
        LintGraph {
            nodes: Vec::new(),
            input_count,
            outputs: Vec::new(),
        }
    }

    /// Appends a node and returns its index. No validation happens here —
    /// that is the linter's job.
    pub fn push(&mut self, op: LintOp, sources: Vec<usize>) -> usize {
        self.nodes.push(LintNode { op, sources });
        self.nodes.len() - 1
    }

    /// Declares the output lines (raw node indices, unvalidated).
    pub fn set_outputs(&mut self, outputs: Vec<usize>) {
        self.outputs = outputs;
    }

    /// Replaces a node's sources (for seeding mutations in tests).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range — the *node being edited* must
    /// exist, even though the sources it is given need not.
    pub fn set_sources(&mut self, node: usize, sources: Vec<usize>) {
        self.nodes[node].sources = sources;
    }

    /// Replaces a node's operation (for seeding mutations in tests).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_op(&mut self, node: usize, op: LintOp) {
        self.nodes[node].op = op;
    }

    /// The nodes, in definition order.
    #[must_use]
    pub fn nodes(&self) -> &[LintNode] {
        &self.nodes
    }

    /// The number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The declared number of primary input lines.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The declared output lines.
    #[must_use]
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// The logic depth: the longest chain of operator nodes from any
    /// input or constant to any output (inputs and constants count zero),
    /// the gate delays a direct hardware implementation pays on top of
    /// the modeled `inc` delays.
    ///
    /// Total on malformed graphs: a source or output past the graph is
    /// skipped, and on a cycle (STA001) every node is still visited once,
    /// in [`topological_order`](crate::interval::topological_order).
    #[must_use]
    pub fn logic_depth(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        for id in crate::interval::topological_order(self) {
            let node = &self.nodes[id];
            let from_sources = node
                .sources
                .iter()
                .filter_map(|&s| depth.get(s))
                .max()
                .copied()
                .unwrap_or(0);
            depth[id] = if node.op.is_operator() {
                from_sources + 1
            } else {
                0
            };
        }
        self.outputs
            .iter()
            .filter_map(|&o| depth.get(o))
            .max()
            .copied()
            .unwrap_or(0)
    }

    /// Lowers a slice of expressions (one per output) into a graph.
    ///
    /// `arity` declares the input width; expressions reading beyond it are
    /// lowered as-is and flagged by the arity pass. Shared `Arc` subtrees
    /// lower to shared nodes, so expression DAGs stay compact.
    #[must_use]
    pub fn from_exprs(exprs: &[Expr], arity: usize) -> LintGraph {
        let mut graph = LintGraph::new(arity);
        let mut memo: HashMap<*const Expr, usize> = HashMap::new();
        let outputs = exprs
            .iter()
            .map(|e| lower_expr(e, &mut graph, &mut memo))
            .collect();
        graph.set_outputs(outputs);
        graph
    }
}

fn lower_expr(expr: &Expr, graph: &mut LintGraph, memo: &mut HashMap<*const Expr, usize>) -> usize {
    let key = core::ptr::from_ref(expr);
    if let Some(&id) = memo.get(&key) {
        return id;
    }
    let id = match expr {
        Expr::Input(n) => graph.push(LintOp::Input(*n), Vec::new()),
        Expr::Const(t) => graph.push(LintOp::Const(*t), Vec::new()),
        Expr::Min(a, b) => {
            let a = lower_expr(a, graph, memo);
            let b = lower_expr(b, graph, memo);
            graph.push(LintOp::Min, vec![a, b])
        }
        Expr::Max(a, b) => {
            let a = lower_expr(a, graph, memo);
            let b = lower_expr(b, graph, memo);
            graph.push(LintOp::Max, vec![a, b])
        }
        Expr::Lt(a, b) => {
            let a = lower_expr(a, graph, memo);
            let b = lower_expr(b, graph, memo);
            graph.push(LintOp::Lt, vec![a, b])
        }
        Expr::Inc(a, c) => {
            let a = lower_expr(a, graph, memo);
            graph.push(LintOp::Inc(*c), vec![a])
        }
    };
    memo.insert(key, id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exprs_lower_with_sharing() {
        // (x0 ∧ x1) ≺ (x0 ∧ x1)+1 with a shared subtree.
        let shared = Arc::new(Expr::Min(
            Arc::new(Expr::Input(0)),
            Arc::new(Expr::Input(1)),
        ));
        let e = Expr::Lt(
            Arc::clone(&shared),
            Arc::new(Expr::Inc(Arc::clone(&shared), 1)),
        );
        let g = LintGraph::from_exprs(&[e], 2);
        // input, input, min (shared once), inc, lt — not 7 nodes.
        assert_eq!(g.len(), 5);
        assert_eq!(g.outputs(), &[4]);
        assert_eq!(g.nodes()[4].op, LintOp::Lt);
    }

    #[test]
    fn graphs_are_freely_mutable() {
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), Vec::new());
        let d = g.push(LintOp::Inc(1), vec![x]);
        g.set_outputs(vec![d]);
        g.set_sources(d, vec![d]); // a self-loop: representable by design
        assert_eq!(g.nodes()[d].sources, vec![d]);
        g.set_op(d, LintOp::Lt);
        assert_eq!(g.nodes()[d].op, LintOp::Lt);
    }

    /// Depth counts operators only, and a dangling source or output, a
    /// forward reference or a cycle neither panics nor loops.
    #[test]
    fn logic_depth_is_total_on_malformed_graphs() {
        let mut g = LintGraph::new(1);
        let x = g.push(LintOp::Input(0), Vec::new());
        let c = g.push(LintOp::Const(Time::finite(2)), Vec::new());
        let d = g.push(LintOp::Inc(1), vec![x]);
        let m = g.push(LintOp::Min, vec![d, c, 99]);
        g.set_outputs(vec![m, c, 42]);
        assert_eq!(g.logic_depth(), 2);
        // A forward reference still counts its source's depth.
        let ahead = g.push(LintOp::Max, vec![m + 2]);
        let later = g.push(LintOp::Inc(1), vec![m]);
        g.set_outputs(vec![ahead]);
        assert_eq!(g.nodes()[later].sources, vec![m]);
        assert_eq!(g.logic_depth(), 4);
        // A two-node cycle terminates with some finite depth.
        g.set_sources(d, vec![m]);
        g.set_outputs(vec![m]);
        assert!(g.logic_depth() <= g.len());
        assert_eq!(LintGraph::new(0).logic_depth(), 0);
    }
}
