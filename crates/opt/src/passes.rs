//! The rewrite passes: each takes an artifact and returns a candidate
//! the pass manager then gates behind `st-verify` bounded equivalence.
//!
//! Every network pass follows the same rebuild idiom: lower to the lint
//! IR, run the relevant [dataflow domain](crate::dataflow), then
//! reconstruct through [`NetworkBuilder`] with the primary inputs
//! pre-created (so input lines keep their order and count) and a
//! rewrite map from old gates to new. The passes are deliberately
//! *independent* — constant folding does not share, sharing does not
//! sweep — because each is individually verify-gated; composition is
//! the pass manager's job, and the default pipeline orders them so each
//! pass's garbage is the next one's food (folding strands gates, the
//! sweep collects them).

use std::collections::HashMap;

use st_core::{FunctionTable, Time};
use st_lint::{Interval, Zone};
use st_net::{GateId, GateKind, Network, NetworkBuilder};

use crate::dataflow::{solve, IntervalDomain, LivenessDomain, ValueNumberDomain};

/// A rebuild in progress: the builder with pre-created inputs and the
/// old-gate → new-gate map.
struct Rebuild {
    b: NetworkBuilder,
    inputs: Vec<GateId>,
    rewrite: HashMap<usize, GateId>,
    consts: HashMap<Option<u64>, GateId>,
}

impl Rebuild {
    fn new(network: &Network) -> Rebuild {
        let mut b = NetworkBuilder::new();
        let inputs = b.inputs(network.input_count());
        Rebuild {
            b,
            inputs,
            rewrite: HashMap::new(),
            consts: HashMap::new(),
        }
    }

    /// The new gate for an old source id (which must already be mapped).
    fn src(&self, id: GateId) -> GateId {
        self.rewrite[&id.index()]
    }

    fn map(&mut self, id: GateId, new: GateId) {
        self.rewrite.insert(id.index(), new);
    }

    /// Interns a constant so folding many gates to one value costs one
    /// gate.
    fn intern_const(&mut self, t: Time) -> GateId {
        if let Some(&g) = self.consts.get(&t.value()) {
            return g;
        }
        let g = self.b.constant(t);
        self.consts.insert(t.value(), g);
        g
    }

    /// Builds a `min` over `srcs`. Every caller passes a nonempty
    /// fan-in; should that invariant ever break, the gate degrades to
    /// min's identity `∞` — a candidate the manager's verify gate would
    /// reject rather than ship.
    fn min(&mut self, srcs: Vec<GateId>) -> GateId {
        match self.b.min(srcs) {
            Ok(g) => g,
            Err(_) => self.intern_const(Time::INFINITY),
        }
    }

    /// Builds a `max` over `srcs`; see [`Rebuild::min`] for the empty
    /// fan-in posture.
    fn max(&mut self, srcs: Vec<GateId>) -> GateId {
        match self.b.max(srcs) {
            Ok(g) => g,
            Err(_) => self.intern_const(Time::INFINITY),
        }
    }

    fn finish(self, network: &Network) -> Network {
        let rewrite = &self.rewrite;
        self.b
            .build(network.outputs().iter().map(|o| rewrite[&o.index()]))
    }
}

/// Interval-driven constant folding: a gate whose spike-time interval
/// under free inputs is a singleton always fires at that time, so it
/// becomes a `const`; a gate that provably never fires becomes
/// `const ∞`. `min` sources that never fire are pruned (`∞` is `min`'s
/// identity), and an `lt` whose inhibitor never fires passes its data
/// source through (`a ≺ ∞ = a`).
#[must_use]
pub fn constant_fold(network: &Network) -> Network {
    let graph = st_net::lint::to_lint_graph(network);
    let intervals = solve(&IntervalDomain::free_inputs(), &graph).facts;
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        let iv = &intervals[id.index()];
        let Ok(srcs) = network.sources(id) else {
            continue; // unreachable: `id` came from `iter_gates`
        };
        let new = if let GateKind::Input(n) = kind {
            r.inputs[n]
        } else if iv.is_never() {
            r.intern_const(Time::INFINITY)
        } else if let Some(t) = iv.as_exact() {
            r.intern_const(t)
        } else {
            match kind {
                GateKind::Const(t) => r.intern_const(t),
                GateKind::Min => {
                    let kept: Vec<GateId> = srcs
                        .iter()
                        .filter(|s| !intervals[s.index()].is_never())
                        .map(|&s| r.src(s))
                        .collect();
                    // All-never sources would make the gate itself
                    // never, so `kept` is nonempty here.
                    r.min(kept)
                }
                GateKind::Max => {
                    let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                    r.max(mapped)
                }
                GateKind::Lt => {
                    if intervals[srcs[1].index()].is_never() {
                        r.src(srcs[0])
                    } else {
                        let (a, b) = (r.src(srcs[0]), r.src(srcs[1]));
                        r.b.lt(a, b)
                    }
                }
                GateKind::Inc(d) => {
                    let s = r.src(srcs[0]);
                    r.b.inc(s, d)
                }
                other => unreachable!("unsupported gate kind {other:?}"),
            }
        };
        r.map(id, new);
    }
    r.finish(network)
}

/// Relational constant folding over the [`Zone`] difference-bound
/// domain: facts about *pairs* of spike times that no per-gate interval
/// can express. Under free inputs (sound for every volley) the zone
/// proves three rewrite families:
///
/// * `lt(a, b)` where `a ≺ b` whenever both fire — the gate passes its
///   data edge through unconditionally (a silent inhibitor passes too).
/// * `lt(a, b)` where `a` firing forces `b` to fire no later — the gate
///   is statically decided `∞`.
/// * a `min`/`max` source another source provably dominates on every
///   volley contributes nothing and is dropped (for `min`, `r ≤ s` with
///   `s` firing implying `r` fires; for `max`, the mirror image). A
///   mutually-dominating (provably equal) group keeps its first member.
///
/// Every candidate this pass proposes is still gated behind
/// `st_verify::check_equiv` by the pass manager, like any other pass.
///
/// One fold can unlock another — interning two `∞` constants makes a
/// gate's operands *the same node*, which is a relational fact — so the
/// pass iterates its single step to a fixpoint (each step only ever
/// removes gates, so it converges), which also makes it idempotent.
#[must_use]
pub fn relational_fold(network: &Network) -> Network {
    let mut current = network.clone();
    while let Some(next) = relational_fold_step(&current) {
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// One fold step, or `None` when the graph declines relational analysis
/// (oversized or degenerate): then the pass proposes nothing and the
/// manager records "no change".
fn relational_fold_step(network: &Network) -> Option<Network> {
    let graph = st_net::lint::to_lint_graph(network);
    let zone = Zone::analyze(&graph, Interval::free())?;
    // `s` contributes nothing to a min (resp. max) when some other
    // source `r` dominates it; ties keep the earliest operand.
    let dominated = |idxs: &[usize], i: usize, max_gate: bool| {
        idxs.iter().enumerate().any(|(j, &rj)| {
            let si = idxs[i];
            let dominates = |winner: usize, loser: usize| {
                if max_gate {
                    // max drops `loser` when its silence forces the
                    // winner silent and it never fires later.
                    zone.fires_implies(winner, loser) && zone.proves_le(loser, winner)
                } else {
                    zone.fires_implies(loser, winner) && zone.proves_le(winner, loser)
                }
            };
            j != i && dominates(rj, si) && (!dominates(si, rj) || j < i)
        })
    };
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        let Ok(srcs) = network.sources(id) else {
            continue; // unreachable: `id` came from `iter_gates`
        };
        let new = if let GateKind::Input(n) = kind {
            r.inputs[n]
        } else {
            let idxs: Vec<usize> = srcs.iter().map(|s| s.index()).collect();
            match kind {
                GateKind::Const(t) => r.intern_const(t),
                GateKind::Lt => {
                    let (a, b) = (idxs[0], idxs[1]);
                    if zone.proves_lt(a, b) {
                        // The data edge always wins (a silent inhibitor
                        // passes it through as well).
                        r.src(srcs[0])
                    } else if zone.fires_implies(a, b) && zone.proves_le(b, a) {
                        // Whenever the data edge fires, the inhibitor
                        // has already arrived: statically decided ∞.
                        r.intern_const(Time::INFINITY)
                    } else {
                        let (a, b) = (r.src(srcs[0]), r.src(srcs[1]));
                        r.b.lt(a, b)
                    }
                }
                GateKind::Min | GateKind::Max => {
                    let max_gate = kind == GateKind::Max;
                    let kept: Vec<GateId> = (0..idxs.len())
                        .filter(|&i| !dominated(&idxs, i, max_gate))
                        .map(|i| r.src(srcs[i]))
                        .collect();
                    match (kept.len(), max_gate) {
                        (1, _) => kept[0],
                        (_, false) => r.min(kept),
                        (_, true) => r.max(kept),
                    }
                }
                GateKind::Inc(d) => {
                    let s = r.src(srcs[0]);
                    r.b.inc(s, d)
                }
                other => unreachable!("unsupported gate kind {other:?}"),
            }
        };
        r.map(id, new);
    }
    Some(r.finish(network))
}

/// Dead-gate elimination through the backward liveness domain: gates
/// with no path to an output are dropped. Primary inputs are always
/// kept — a network's input width is part of its signature.
#[must_use]
pub fn eliminate_dead(network: &Network) -> Network {
    let graph = st_net::lint::to_lint_graph(network);
    let live = solve(&LivenessDomain, &graph).facts;
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        if let GateKind::Input(n) = kind {
            r.map(id, r.inputs[n]);
            continue;
        }
        if !live[id.index()] {
            continue;
        }
        let Ok(srcs) = network.sources(id) else {
            continue; // unreachable: `id` came from `iter_gates`
        };
        let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
        let new = match kind {
            GateKind::Const(t) => r.b.constant(t),
            GateKind::Min => r.min(mapped),
            GateKind::Max => r.max(mapped),
            GateKind::Lt => r.b.lt(mapped[0], mapped[1]),
            GateKind::Inc(d) => r.b.inc(mapped[0], d),
            other => unreachable!("unsupported gate kind {other:?}"),
        };
        r.map(id, new);
    }
    r.finish(network)
}

/// Hash-consed common-subexpression sharing: gates in the same
/// value-number class (congruent expressions, commutative operands
/// sorted) collapse onto the first member of the class.
#[must_use]
pub fn share_subexpressions(network: &Network) -> Network {
    let graph = st_net::lint::to_lint_graph(network);
    let numbers = solve(&ValueNumberDomain::new(), &graph).facts;
    let mut by_class: HashMap<usize, GateId> = HashMap::new();
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        let class = numbers[id.index()];
        let new = if let Some(&g) = by_class.get(&class) {
            g
        } else {
            let made = if let GateKind::Input(n) = kind {
                r.inputs[n]
            } else {
                let Ok(srcs) = network.sources(id) else {
                    continue; // unreachable: `id` came from `iter_gates`
                };
                let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                match kind {
                    GateKind::Const(t) => r.b.constant(t),
                    GateKind::Min => r.min(mapped),
                    GateKind::Max => r.max(mapped),
                    GateKind::Lt => r.b.lt(mapped[0], mapped[1]),
                    GateKind::Inc(d) => r.b.inc(mapped[0], d),
                    other => unreachable!("unsupported gate kind {other:?}"),
                }
            };
            by_class.insert(class, made);
            made
        };
        r.map(id, new);
    }
    r.finish(network)
}

/// Delay-chain fusion at the network level: every `inc` in a chain is
/// re-pointed at the chain's root with the summed (saturating) delay,
/// and a zero-delay `inc` becomes a wire. Stranded intermediate stages
/// are left for [`eliminate_dead`].
#[must_use]
pub fn fuse_delay_chains(network: &Network) -> Network {
    // (original root id, total delay) per inc gate; gates are stored in
    // topological order by construction, so one forward scan resolves
    // chains transitively.
    let mut resolved: HashMap<usize, (GateId, u64)> = HashMap::new();
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        let new = match kind {
            GateKind::Input(n) => r.inputs[n],
            GateKind::Const(t) => r.b.constant(t),
            GateKind::Inc(d) => {
                let Ok(srcs) = network.sources(id) else {
                    continue; // unreachable: `id` came from `iter_gates`
                };
                let s = srcs[0];
                let (root, total) = resolved
                    .get(&s.index())
                    .map_or((s, d), |&(root, upstream)| {
                        (root, d.saturating_add(upstream))
                    });
                resolved.insert(id.index(), (root, total));
                if total == 0 {
                    r.src(root)
                } else {
                    let mapped = r.src(root);
                    r.b.inc(mapped, total)
                }
            }
            _ => {
                let Ok(srcs) = network.sources(id) else {
                    continue; // unreachable: `id` came from `iter_gates`
                };
                let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                match kind {
                    GateKind::Min => r.min(mapped),
                    GateKind::Max => r.max(mapped),
                    GateKind::Lt => r.b.lt(mapped[0], mapped[1]),
                    other => unreachable!("unsupported gate kind {other:?}"),
                }
            }
        };
        r.map(id, new);
    }
    r.finish(network)
}

/// Theorem-1 minterm minimization: drops every row shadowed by another
/// kept row — `a` shadows `b` when `a` matches `b`'s own input pattern
/// with an earlier-or-equal output, so under earliest-match-wins
/// semantics `b` can never win (the exact STA011 predicate). Rows are
/// considered in order and a dropped row stops shadowing, so a
/// mutually-shadowing pair keeps its later member. Returns the
/// minimized table and how many rows were dropped.
#[must_use]
pub fn minimize_table(table: &FunctionTable) -> (FunctionTable, usize) {
    let rows: Vec<_> = table.iter().cloned().collect();
    let mut kept = vec![true; rows.len()];
    for b in 0..rows.len() {
        let shadowed = (0..rows.len()).any(|a| {
            a != b
                && kept[a]
                && rows[a]
                    .match_against(rows[b].inputs())
                    .is_some_and(|out| out <= rows[b].output())
        });
        if shadowed {
            kept[b] = false;
        }
    }
    let dropped = kept.iter().filter(|&&k| !k).count();
    if dropped == 0 {
        return (table.clone(), 0);
    }
    let minimized = FunctionTable::from_rows(
        table.arity(),
        rows.iter()
            .zip(&kept)
            .filter(|&(_, &k)| k)
            .map(|(row, _)| (row.inputs().to_vec(), row.output()))
            .collect(),
    );
    match minimized {
        Ok(t) => (t, dropped),
        // From_rows re-validates; a rejection means the subset lost a
        // constraint the full table satisfied, so keep the original.
        Err(_) => (table.clone(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Volley;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// Asserts two networks agree on every volley over a small window.
    fn assert_equiv(a: &Network, b: &Network, window: u64) {
        assert_eq!(a.input_count(), b.input_count());
        let width = a.input_count();
        let values: Vec<Time> = (0..=window)
            .map(Time::finite)
            .chain([Time::INFINITY])
            .collect();
        let mut volley = vec![0usize; width];
        loop {
            let inputs: Vec<Time> = volley.iter().map(|&i| values[i]).collect();
            assert_eq!(
                a.eval(&inputs).unwrap(),
                b.eval(&inputs).unwrap(),
                "diverge on {:?}",
                Volley::new(inputs.clone())
            );
            let mut i = 0;
            loop {
                if i == width {
                    return;
                }
                volley[i] += 1;
                if volley[i] < values.len() {
                    break;
                }
                volley[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn folding_replaces_exact_gates_with_consts() {
        // min(x, min(c3, c5)) — the inner min folds to const 3.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let c3 = b.constant(t(3));
        let c5 = b.constant(t(5));
        let inner = b.min2(c3, c5);
        let outer = b.min2(x, inner);
        let network = b.build([outer]);
        let folded = constant_fold(&network);
        assert!(folded.gate_count() < network.gate_count());
        assert_equiv(&network, &folded, 6);
    }

    #[test]
    fn folding_prunes_never_sources_and_lt_inhibitors() {
        // min(x, max(y, ∞)) = x and lt(x, max(y, ∞)) = x.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let inf = b.constant(Time::INFINITY);
        let never = b.max2(ins[1], inf);
        let m = b.min2(ins[0], never);
        let l = b.lt(ins[0], never);
        let network = b.build([m, l]);
        let folded = constant_fold(&network);
        assert_equiv(&network, &folded, 4);
        // Both outputs collapse to the input wire: only the pre-created
        // inputs and the interned ∞ survive as gates.
        assert!(folded.gate_count() <= 3, "got {}", folded.gate_count());
    }

    #[test]
    fn relational_fold_decides_equal_delay_races() {
        // lt(x+2, (x+1)+1): operands provably equal, the data edge can
        // never strictly win — the interval domain sees [2, ∞] vs
        // [2, ∞] and proposes nothing.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let a = b.inc(x, 2);
        let b1 = b.inc(x, 1);
        let b2 = b.inc(b1, 1);
        let l = b.lt(a, b2);
        let network = b.build([l]);
        assert_eq!(constant_fold(&network).gate_count(), network.gate_count());
        let folded = eliminate_dead(&relational_fold(&network));
        assert_equiv(&network, &folded, 5);
        // Only the input and the interned ∞ survive.
        assert_eq!(folded.gate_count(), 2, "{folded:?}");
    }

    #[test]
    fn relational_fold_passes_ordered_lt_through() {
        // lt(x, x+3): the data edge always precedes its inhibitor.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d = b.inc(x, 3);
        let l = b.lt(x, d);
        let network = b.build([l]);
        let folded = eliminate_dead(&relational_fold(&network));
        assert_equiv(&network, &folded, 6);
        assert_eq!(folded.gate_count(), 1, "just the input wire");
    }

    #[test]
    fn relational_fold_drops_dominated_merge_sources() {
        // min(x, x+1, x+2): the delayed copies never realize the min.
        // max(x, x+1): the undelayed copy never realizes the max.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 1);
        let d2 = b.inc(x, 2);
        let m = b.min([x, d1, d2]).unwrap();
        let mx = b.max2(x, d1);
        let network = b.build([m, mx]);
        let folded = eliminate_dead(&relational_fold(&network));
        assert_equiv(&network, &folded, 5);
        // min collapses to the bare input; max collapses to d1.
        assert_eq!(folded.gate_count(), 2, "{folded:?}");
    }

    #[test]
    fn relational_fold_keeps_one_member_of_an_equal_group() {
        // min(x+1, x+1) duplicated through distinct gates: mutual
        // domination keeps exactly the first operand.
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 1);
        let d2 = b.inc(x, 1);
        let m = b.min2(d1, d2);
        let network = b.build([m]);
        let folded = eliminate_dead(&relational_fold(&network));
        assert_equiv(&network, &folded, 4);
        assert_eq!(folded.gate_count(), 2, "input + one inc");
    }

    #[test]
    fn relational_fold_leaves_window_bounded_skew_alone() {
        // min(x, y): genuinely free inputs, nothing provable.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m = b.min2(ins[0], ins[1]);
        let network = b.build([m]);
        let folded = relational_fold(&network);
        assert_eq!(folded.gate_count(), network.gate_count());
        assert_equiv(&network, &folded, 4);
    }

    #[test]
    fn dead_elimination_keeps_inputs_and_drops_orphans() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m = b.min2(ins[0], ins[1]);
        let _orphan = b.inc(m, 5);
        let _orphan2 = b.max2(ins[0], ins[1]);
        let network = b.build([m]);
        let swept = eliminate_dead(&network);
        assert_eq!(swept.gate_count(), 3);
        assert_eq!(swept.input_count(), 2);
        assert_equiv(&network, &swept, 3);
    }

    #[test]
    fn sharing_collapses_commutative_duplicates() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let m2 = b.min2(ins[1], ins[0]);
        let d1 = b.inc(m1, 2);
        let d2 = b.inc(m2, 2);
        let x = b.max2(d1, d2);
        let network = b.build([x]);
        let shared = share_subexpressions(&network);
        assert_equiv(&network, &shared, 3);
        // min dup collapses, then the incs become congruent... in one
        // pass: m2 shares m1, d2's key then matches d1. The max keeps
        // its (deduped) operand.
        assert!(shared.gate_count() < network.gate_count());
    }

    #[test]
    fn fusion_sums_chains_and_inlines_zero_delays() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 1);
        let d2 = b.inc(d1, 2);
        let d3 = b.inc(d2, 3);
        let w = b.inc(x, 0);
        let m = b.min2(d3, w);
        let network = b.build([m]);
        let fused = eliminate_dead(&fuse_delay_chains(&network));
        assert_equiv(&network, &fused, 8);
        // input + one fused inc(6) + the min; the wire vanished.
        assert_eq!(fused.gate_count(), 3);
    }

    #[test]
    fn minimization_drops_shadowed_rows_only() {
        // Row ([0,∞] -> 1) shadows ([0,3] -> 3): it matches that row's
        // own volleys with an earlier output, so under earliest-match
        // semantics the later row never wins.
        let table = FunctionTable::from_rows(
            2,
            vec![
                (vec![t(0), Time::INFINITY], t(1)),
                (vec![t(0), t(3)], t(3)),
                (vec![t(2), t(0)], t(3)),
            ],
        )
        .unwrap();
        let (minimized, dropped) = minimize_table(&table);
        assert_eq!(dropped, 1);
        assert_eq!(minimized.len(), 2);
        // Semantics preserved on the whole window-3 domain.
        let values: Vec<Time> = (0..=3).map(Time::finite).chain([Time::INFINITY]).collect();
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    table.eval(&[a, b]).unwrap(),
                    minimized.eval(&[a, b]).unwrap(),
                    "diverge on [{a}, {b}]"
                );
            }
        }
    }

    #[test]
    fn minimization_is_identity_on_minimal_tables() {
        let table =
            FunctionTable::from_rows(2, vec![(vec![t(0), t(1)], t(1)), (vec![t(1), t(0)], t(2))])
                .unwrap();
        let (minimized, dropped) = minimize_table(&table);
        assert_eq!(dropped, 0);
        assert_eq!(minimized.to_text(), table.to_text());
    }
}
