//! Value numbering: one forward sweep that gives congruent gates one
//! class.
//!
//! Two nodes share a class exactly when they have the same operator and
//! their sources are in the same classes — as sets for `min`/`max`
//! (commutative, idempotent), in order for `lt`/`inc`. Sharing either
//! node for the other is then semantics-preserving by construction.
//! [`crate::passes::share_subexpressions`] and the STA202 tier both read
//! [`value_numbers`].

use st_core::hash::{FxBuildHasher, FxHashMap};
use st_lint::interval::topological_order;
use st_lint::{LintGraph, LintOp};

/// The hash-consing key of a node: its operator over its sources'
/// classes. `Time` is keyed through `Time::value()` (`None` = `∞`).
#[derive(Debug, PartialEq, Eq, Hash)]
enum Key {
    Input(usize),
    Const(Option<u64>),
    Lt(usize, usize),
    Inc(u64, usize),
    /// A `min` (`false`) or `max` (`true`) over its distinct source
    /// classes, ascending.
    Merge(bool, Box<[usize]>),
    /// A node the sweep cannot number gets a class of its own and never
    /// shares.
    Opaque(usize),
}

/// Marks a node the sweep has not reached yet.
const UNSET: usize = usize::MAX;

/// One class id per node, dense from 0 in order of first appearance, so
/// no id reaches the node count.
///
/// The sweep runs in [`topological_order`], which is index order on
/// every graph a `Network`, an expression or a netlist lowers to. A node
/// with a source not yet numbered (on a cycle) or past the graph, or with
/// the wrong arity, is opaque.
#[must_use]
pub fn value_numbers(graph: &LintGraph) -> Vec<usize> {
    let nodes = graph.nodes();
    let mut classes: FxHashMap<Key, usize> =
        FxHashMap::with_capacity_and_hasher(nodes.len(), FxBuildHasher::default());
    let mut numbers = vec![UNSET; nodes.len()];
    let mut srcs: Vec<usize> = Vec::new();
    for id in topological_order(graph) {
        let node = &nodes[id];
        srcs.clear();
        srcs.extend(
            node.sources
                .iter()
                .map(|&s| numbers.get(s).copied().unwrap_or(UNSET)),
        );
        let key = if srcs.contains(&UNSET) {
            Key::Opaque(id)
        } else {
            match (node.op, srcs.as_slice()) {
                (LintOp::Input(line), _) => Key::Input(line),
                (LintOp::Const(t), _) => Key::Const(t.value()),
                (LintOp::Lt, &[a, b]) => Key::Lt(a, b),
                (LintOp::Inc(c), &[a]) => Key::Inc(c, a),
                (LintOp::Min | LintOp::Max, [_, ..]) => {
                    srcs.sort_unstable();
                    srcs.dedup();
                    Key::Merge(node.op == LintOp::Max, srcs.as_slice().into())
                }
                _ => Key::Opaque(id),
            }
        };
        let next = classes.len();
        numbers[id] = *classes.entry(key).or_insert(next);
    }
    numbers
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;

    #[test]
    fn congruence_follows_operators_and_source_classes() {
        let mut g = LintGraph::new(2);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let m1 = g.push(LintOp::Min, vec![a, b]);
        let m2 = g.push(LintOp::Min, vec![b, a, b]); // the same set
        let x = g.push(LintOp::Max, vec![a, b]);
        let l1 = g.push(LintOp::Lt, vec![a, b]);
        let l2 = g.push(LintOp::Lt, vec![b, a]); // order matters
        let d1 = g.push(LintOp::Inc(2), vec![m1]);
        let d2 = g.push(LintOp::Inc(2), vec![m2]);
        let d3 = g.push(LintOp::Inc(3), vec![m2]);
        let one = g.push(LintOp::Min, vec![a]);
        let twice = g.push(LintOp::Min, vec![a, a, a]);
        let k1 = g.push(LintOp::Const(Time::finite(7)), vec![]);
        let k2 = g.push(LintOp::Const(Time::finite(7)), vec![]);
        let w1 = g.push(LintOp::Max, vec![a, b, m1]);
        let w2 = g.push(LintOp::Max, vec![m2, b, a, a]);
        let vn = value_numbers(&g);
        assert_eq!(vn[m1], vn[m2]);
        assert_ne!(vn[m1], vn[x], "min and max differ");
        assert_ne!(vn[l1], vn[l2]);
        assert_eq!(vn[d1], vn[d2]);
        assert_ne!(vn[d2], vn[d3], "different delays differ");
        assert_eq!(vn[one], vn[twice]);
        assert_eq!(vn[k1], vn[k2]);
        assert_eq!(vn[w1], vn[w2]);
        assert!(vn.iter().all(|&c| c < g.len()), "ids are dense");
    }

    #[test]
    fn forward_references_share_and_cycles_stay_opaque() {
        let mut g = LintGraph::new(1);
        let fwd1 = g.push(LintOp::Inc(1), vec![2]); // forward reference
        let fwd2 = g.push(LintOp::Inc(1), vec![2]);
        let x = g.push(LintOp::Input(0), vec![]);
        let bad1 = g.push(LintOp::Lt, vec![x]);
        let bad2 = g.push(LintOp::Lt, vec![x]);
        let dangling = g.push(LintOp::Min, vec![x, 99]);
        let loop1 = g.push(LintOp::Inc(1), vec![7]); // a two-node cycle
        let loop2 = g.push(LintOp::Inc(1), vec![6]);
        let self1 = g.push(LintOp::Min, vec![8]);
        let self2 = g.push(LintOp::Min, vec![9]);
        let vn = value_numbers(&g);
        assert_eq!(vn[fwd1], vn[fwd2]);
        assert_ne!(vn[bad1], vn[bad2]);
        assert_ne!(vn[dangling], vn[x]);
        assert_ne!(vn[loop1], vn[loop2]);
        assert_ne!(vn[self1], vn[self2]);
        assert!(vn.iter().all(|&c| c < g.len()), "ids are dense");
    }
}
