//! Representation-independent cleanups on the [`LintGraph`] IR that
//! [`Plan::from_grl`](crate::Plan::from_grl) lowers a GRL netlist
//! through before flattening: [`fuse_delay_chains`] then
//! [`sweep_unreachable`], so an `N`-stage flip-flop chain costs one plan
//! gate. (`st-opt`'s network-level `fuse_delay_chains` pass applies the
//! same chain analysis per gate.) Both keep node ids stable where
//! possible: fusion preserves the node count and order outright, and
//! the sweep preserves the relative order of surviving nodes, so
//! definition-before-use is maintained without re-sorting.

use st_lint::{liveness, LintGraph, LintOp};

use st_lint::interval::topological_order;

/// Fuses `inc`-of-`inc` chains: every `inc` whose source is itself an
/// `inc` is rewritten to read the chain's root directly with the summed
/// (saturating) delay. Node count and order are unchanged — stranded
/// intermediate stages become unreachable and are left for
/// [`sweep_unreachable`]. Returns the rewritten graph and how many
/// nodes were fused.
#[must_use]
pub fn fuse_delay_chains(graph: &LintGraph) -> (LintGraph, usize) {
    let n = graph.len();
    // For each inc node, the (chain root, total delay) it is equivalent
    // to; processed in topological order so chains resolve transitively.
    let mut resolved: Vec<Option<(usize, u64)>> = vec![None; n];
    let mut rewrite: Vec<Option<(usize, u64)>> = vec![None; n];
    let mut fused = 0;
    for id in topological_order(graph) {
        let node = &graph.nodes()[id];
        let LintOp::Inc(d) = node.op else { continue };
        if node.sources.len() != 1 {
            continue;
        }
        let s = node.sources[0];
        if let Some(Some((root, total))) = resolved.get(s).copied() {
            let sum = d.saturating_add(total);
            resolved[id] = Some((root, sum));
            rewrite[id] = Some((root, sum));
            fused += 1;
        } else {
            resolved[id] = Some((s, d));
        }
    }
    if fused == 0 {
        return (graph.clone(), 0);
    }
    let mut out = LintGraph::new(graph.input_count());
    for (id, node) in graph.nodes().iter().enumerate() {
        match rewrite[id] {
            Some((src, total)) => {
                out.push(LintOp::Inc(total), vec![src]);
            }
            None => {
                out.push(node.op, node.sources.clone());
            }
        }
    }
    out.set_outputs(graph.outputs().to_vec());
    (out, fused)
}

/// Drops every node with no path to an output — including dead `Input`
/// nodes (the declared input width lives in `input_count` and is
/// preserved; this matches the kernel plan's sweep semantics, where an
/// unused input line costs no gate). Surviving nodes keep their
/// relative order. Returns the swept graph and how many nodes were
/// dropped.
#[must_use]
pub fn sweep_unreachable(graph: &LintGraph) -> (LintGraph, usize) {
    let live = liveness::live_set(graph);
    let dropped = live.iter().filter(|&&l| !l).count();
    if dropped == 0 {
        return (graph.clone(), 0);
    }
    let n = graph.len();
    let mut remap = vec![usize::MAX; n];
    let mut out = LintGraph::new(graph.input_count());
    for (id, node) in graph.nodes().iter().enumerate() {
        if !live[id] {
            continue;
        }
        // Sources of a live node are live, hence already remapped.
        let sources: Vec<usize> = node.sources.iter().map(|&s| remap[s]).collect();
        remap[id] = out.push(node.op, sources);
    }
    out.set_outputs(graph.outputs().iter().map(|&o| remap[o]).collect());
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// input → +1 → +2 → +3 → out, plus a dead side branch.
    fn chain() -> LintGraph {
        let mut g = LintGraph::new(2);
        let a = g.push(LintOp::Input(0), vec![]);
        let _unused_input = g.push(LintOp::Input(1), vec![]);
        let d1 = g.push(LintOp::Inc(1), vec![a]);
        let d2 = g.push(LintOp::Inc(2), vec![d1]);
        let d3 = g.push(LintOp::Inc(3), vec![d2]);
        let _dead = g.push(LintOp::Min, vec![a, d1]);
        g.set_outputs(vec![d3]);
        g
    }

    #[test]
    fn chains_fuse_transitively_to_the_root() {
        let (fused, count) = fuse_delay_chains(&chain());
        assert_eq!(count, 2, "d2 and d3 both fuse");
        assert_eq!(fused.len(), chain().len(), "node count is preserved");
        // d3 now reads the input directly with the summed delay.
        let d3 = &fused.nodes()[4];
        assert_eq!(d3.op, LintOp::Inc(6));
        assert_eq!(d3.sources, vec![0]);
    }

    #[test]
    fn fusion_is_idempotent() {
        let (once, _) = fuse_delay_chains(&chain());
        let (twice, count) = fuse_delay_chains(&once);
        assert_eq!(count, 0);
        assert_eq!(format!("{twice:?}"), format!("{once:?}"));
    }

    #[test]
    fn sweep_drops_stranded_stages_and_dead_inputs() {
        let (fused, _) = fuse_delay_chains(&chain());
        let (swept, dropped) = sweep_unreachable(&fused);
        // Dropped: the unused input, the stranded d1/d2, the dead min.
        assert_eq!(dropped, 4);
        assert_eq!(swept.len(), 2);
        assert_eq!(swept.input_count(), 2, "declared width is preserved");
        assert_eq!(swept.nodes()[1].op, LintOp::Inc(6));
        assert_eq!(swept.outputs(), &[1]);
    }

    #[test]
    fn saturating_delay_sums_do_not_wrap() {
        let mut g = LintGraph::new(1);
        let a = g.push(LintOp::Input(0), vec![]);
        let d1 = g.push(LintOp::Inc(u64::MAX - 1), vec![a]);
        let d2 = g.push(LintOp::Inc(5), vec![d1]);
        g.set_outputs(vec![d2]);
        let (fused, count) = fuse_delay_chains(&g);
        assert_eq!(count, 1);
        assert_eq!(fused.nodes()[2].op, LintOp::Inc(u64::MAX));
    }
}
