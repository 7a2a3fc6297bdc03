//! The rewrite passes: each takes an artifact and proposes a candidate
//! the pass manager then gates behind `st-verify` bounded equivalence.
//!
//! Every network pass follows the same rebuild idiom: lower to the lint
//! IR, read its facts from one sweep (intervals from
//! [`interval::analyze`], liveness from [`liveness::live_set`], classes
//! from [`value_numbers`], relational facts from [`Zone`]), then emit
//! the rewritten gates in order through a copy-on-write `Rebuild`,
//! primary inputs first (so input lines keep their order and count),
//! with a map from old gates to new. A pass that would reproduce its
//! input returns `None`, no candidate, having built nothing. The passes
//! are deliberately *independent* — constant folding does not share,
//! sharing does not sweep — because each is individually verify-gated;
//! composition is the pass manager's job, and the default pipeline
//! orders them so each pass's garbage is the next one's food (folding
//! strands gates, the sweep collects them).

use std::collections::HashMap;

use st_core::{FunctionTable, Time};
use st_lint::{interval, liveness, Interval, Zone, MAX_RELATIONAL_NODES};
use st_net::lint::to_lint_graph;
use st_net::{GateId, GateKind, Network, NetworkBuilder};

use crate::value_number::value_numbers;

/// A copy-on-write rebuild of one network: the gates a pass emits, in
/// order, and the old-gate → new-gate map.
///
/// While every emitted gate equals the input's gate at the same index
/// (same kind, same sources), the emitted gates are a prefix of the
/// input and nothing is built. At the first difference a builder starts
/// from that matched prefix and takes every later gate. So
/// [`Rebuild::finish`] returns `None` exactly when the rebuilt network
/// would equal the input (`Network: Eq`).
struct Rebuild<'a> {
    network: &'a Network,
    /// How many emitted gates equal the input's first gates; fixed once
    /// `built` starts.
    matched: usize,
    /// The builder, from the first emitted gate that differs on.
    built: Option<NetworkBuilder>,
    inputs: Vec<GateId>,
    /// Old gate id → new gate id. A gate the pass drops keeps a
    /// placeholder that no kept gate reads.
    rewrite: Vec<GateId>,
    consts: HashMap<Option<u64>, GateId>,
}

impl<'a> Rebuild<'a> {
    fn new(network: &'a Network) -> Rebuild<'a> {
        let mut r = Rebuild {
            network,
            matched: 0,
            built: None,
            inputs: Vec::with_capacity(network.input_count()),
            rewrite: vec![GateId::from_index(usize::MAX); network.gate_count()],
            consts: HashMap::new(),
        };
        for n in 0..network.input_count() {
            let g = r.emit(GateKind::Input(n), &[]);
            r.inputs.push(g);
        }
        r
    }

    /// The new gate for an old source id (which must already be mapped).
    fn src(&self, id: GateId) -> GateId {
        self.rewrite[id.index()]
    }

    fn map(&mut self, id: GateId, new: GateId) {
        self.rewrite[id.index()] = new;
    }

    /// Emits one gate of `kind` over `sources` as [`NetworkBuilder`]
    /// builds it: the input's own gate at this index while the rebuild
    /// still reproduces the input, a built gate from the first difference
    /// on. A `min` or `max` of one source is that source. Every caller
    /// gives a merge at least one source; should that invariant ever
    /// break, the gate degrades to min's identity `∞` — a candidate the
    /// manager's verify gate would reject rather than ship.
    fn emit(&mut self, kind: GateKind, sources: &[GateId]) -> GateId {
        if matches!(kind, GateKind::Min | GateKind::Max) {
            match *sources {
                [] => return self.intern_const(Time::INFINITY),
                [only] => return only,
                _ => {}
            }
        }
        if self.built.is_none() {
            let id = GateId::from_index(self.matched);
            if self.network.kind(id) == Ok(kind) && self.network.sources(id) == Ok(sources) {
                self.matched += 1;
                return id;
            }
        }
        let b = self
            .built
            .get_or_insert_with(|| NetworkBuilder::from_prefix(self.network, self.matched));
        let made = match kind {
            GateKind::Input(_) => Ok(b.input()),
            GateKind::Const(t) => Ok(b.constant(t)),
            GateKind::Min => b.min(sources.iter().copied()),
            GateKind::Max => b.max(sources.iter().copied()),
            GateKind::Lt => Ok(b.lt(sources[0], sources[1])),
            GateKind::Inc(d) => Ok(b.inc(sources[0], d)),
            other => unreachable!("unsupported gate kind {other:?}"),
        };
        // Only an empty fan-in fails, and none reaches here.
        made.unwrap_or_else(|_| self.intern_const(Time::INFINITY))
    }

    /// Interns a constant so folding many gates to one value costs one
    /// gate.
    fn intern_const(&mut self, t: Time) -> GateId {
        if let Some(&g) = self.consts.get(&t.value()) {
            return g;
        }
        let g = self.emit(GateKind::Const(t), &[]);
        self.consts.insert(t.value(), g);
        g
    }

    /// The rebuilt network, or `None` when it would equal the input: every
    /// input gate was emitted unchanged, in place, and every output line
    /// maps to itself.
    fn finish(self) -> Option<Network> {
        let outputs = self
            .network
            .outputs()
            .iter()
            .map(|o| self.rewrite[o.index()]);
        if let Some(b) = self.built {
            return Some(b.build(outputs));
        }
        if self.matched == self.network.gate_count()
            && outputs.clone().eq(self.network.outputs().iter().copied())
        {
            return None;
        }
        Some(NetworkBuilder::from_prefix(self.network, self.matched).build(outputs))
    }
}

/// Interval-driven constant folding: a gate whose spike-time interval
/// under free inputs is a singleton always fires at that time, so it
/// becomes a `const`; a gate that provably never fires becomes
/// `const ∞`. `min` sources that never fire are pruned (`∞` is `min`'s
/// identity), and an `lt` whose inhibitor never fires passes its data
/// source through (`a ≺ ∞ = a`).
#[must_use]
pub fn constant_fold(network: &Network) -> Option<Network> {
    let intervals = interval::analyze(&to_lint_graph(network), Interval::free());
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
                    r.emit(kind, &kept)
                }
                GateKind::Lt if intervals[srcs[1].index()].is_never() => r.src(srcs[0]),
                _ => {
                    let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                    r.emit(kind, &mapped)
                }
            }
        };
        r.map(id, new);
    }
    r.finish()
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
pub fn relational_fold(network: &Network) -> Option<Network> {
    let mut current = relational_fold_step(network)?;
    while let Some(next) = relational_fold_step(&current) {
        current = next;
    }
    Some(current)
}

/// One fold step, or `None` when it folds nothing or the graph declines
/// relational analysis (oversized or degenerate).
fn relational_fold_step(network: &Network) -> Option<Network> {
    // The lowering has one node per gate, and the zone declines a graph
    // past its cap: decline before lowering.
    if network.gate_count() > MAX_RELATIONAL_NODES {
        return None;
    }
    let graph = to_lint_graph(network);
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
                        r.emit(kind, &[a, b])
                    }
                }
                GateKind::Min | GateKind::Max => {
                    let max_gate = kind == GateKind::Max;
                    let kept: Vec<GateId> = (0..idxs.len())
                        .filter(|&i| !dominated(&idxs, i, max_gate))
                        .map(|i| r.src(srcs[i]))
                        .collect();
                    r.emit(kind, &kept)
                }
                _ => {
                    let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                    r.emit(kind, &mapped)
                }
            }
        };
        r.map(id, new);
    }
    r.finish()
}

/// Dead-gate elimination through [`liveness::live_set`]: gates with no
/// path to an output are dropped. Primary inputs are always kept — a
/// network's input width is part of its signature.
#[must_use]
pub fn eliminate_dead(network: &Network) -> Option<Network> {
    let live = liveness::live_set(&to_lint_graph(network));
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
        let new = r.emit(kind, &mapped);
        r.map(id, new);
    }
    r.finish()
}

/// Hash-consed common-subexpression sharing: gates in the same
/// value-number class (congruent expressions, commutative operands
/// sorted) collapse onto the first member of the class.
#[must_use]
pub fn share_subexpressions(network: &Network) -> Option<Network> {
    let numbers = value_numbers(&to_lint_graph(network));
    // Class ids are dense, below the gate count.
    let mut by_class: Vec<Option<GateId>> = vec![None; numbers.len()];
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        let class = numbers[id.index()];
        let new = if let Some(g) = by_class[class] {
            g
        } else {
            let made = if let GateKind::Input(n) = kind {
                r.inputs[n]
            } else {
                let Ok(srcs) = network.sources(id) else {
                    continue; // unreachable: `id` came from `iter_gates`
                };
                let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                r.emit(kind, &mapped)
            };
            by_class[class] = Some(made);
            made
        };
        r.map(id, new);
    }
    r.finish()
}

/// Delay-chain fusion at the network level: every `inc` in a chain is
/// re-pointed at the chain's root with the summed (saturating) delay,
/// and a zero-delay `inc` becomes a wire. Stranded intermediate stages
/// are left for [`eliminate_dead`].
#[must_use]
pub fn fuse_delay_chains(network: &Network) -> Option<Network> {
    // (original root id, total delay) per inc gate; gates are stored in
    // topological order by construction, so one forward scan resolves
    // chains transitively.
    let mut resolved: HashMap<usize, (GateId, u64)> = HashMap::new();
    let mut r = Rebuild::new(network);
    for (id, kind) in network.iter_gates() {
        let new = match kind {
            GateKind::Input(n) => r.inputs[n],
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
                    r.emit(GateKind::Inc(total), &[mapped])
                }
            }
            _ => {
                let Ok(srcs) = network.sources(id) else {
                    continue; // unreachable: `id` came from `iter_gates`
                };
                let mapped: Vec<GateId> = srcs.iter().map(|&s| r.src(s)).collect();
                r.emit(kind, &mapped)
            }
        };
        r.map(id, new);
    }
    r.finish()
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
        let folded = constant_fold(&network).unwrap();
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
        let folded = constant_fold(&network).unwrap();
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
        assert_eq!(constant_fold(&network), None);
        let folded = eliminate_dead(&relational_fold(&network).unwrap()).unwrap();
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
        let folded = eliminate_dead(&relational_fold(&network).unwrap()).unwrap();
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
        let folded = eliminate_dead(&relational_fold(&network).unwrap()).unwrap();
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
        let folded = eliminate_dead(&relational_fold(&network).unwrap()).unwrap();
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
        assert_eq!(relational_fold(&network), None);
    }

    #[test]
    fn dead_elimination_keeps_inputs_and_drops_orphans() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m = b.min2(ins[0], ins[1]);
        let _orphan = b.inc(m, 5);
        let _orphan2 = b.max2(ins[0], ins[1]);
        let network = b.build([m]);
        let swept = eliminate_dead(&network).unwrap();
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
        let shared = share_subexpressions(&network).unwrap();
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
        let fused = eliminate_dead(&fuse_delay_chains(&network).unwrap()).unwrap();
        assert_equiv(&network, &fused, 8);
        // input + one fused inc(6) + the min; the wire vanished.
        assert_eq!(fused.gate_count(), 3);
    }

    // The copy-on-write rebuild returns `Some` exactly when the rebuilt
    // network differs from its input: each case below pins the candidate
    // against a network built by hand, and a pass over that result (or
    // over an input with nothing to rewrite) against `None`.

    #[test]
    fn rebuild_moves_late_inputs_to_the_front() {
        let mut b = NetworkBuilder::new();
        let c = b.constant(t(3));
        let x = b.input();
        let m = b.min2(x, c);
        let network = b.build([m]);
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let c = b.constant(t(3));
        let m = b.min2(x, c);
        let expected = b.build([m]);
        assert_eq!(eliminate_dead(&network), Some(expected.clone()));
        assert_eq!(eliminate_dead(&expected), None);
    }

    #[test]
    fn rebuild_sees_constants_interned_onto_one_gate() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let c = b.constant(t(3));
        let dup = b.constant(t(3));
        let m = b.min2(x, c);
        let n = b.max2(x, dup);
        let network = b.build([m, n]);
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let c = b.constant(t(3));
        let m = b.min2(x, c);
        let n = b.max2(x, c);
        let expected = b.build([m, n]);
        assert_eq!(constant_fold(&network), Some(expected.clone()));
        assert_eq!(constant_fold(&expected), None);
    }

    #[test]
    fn rebuild_drops_a_dead_trailing_gate() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m = b.min2(ins[0], ins[1]);
        let _dead = b.inc(m, 5);
        let network = b.build([m]);
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m = b.min2(ins[0], ins[1]);
        let expected = b.build([m]);
        assert_eq!(eliminate_dead(&network), Some(expected.clone()));
        assert_eq!(eliminate_dead(&expected), None);
    }

    #[test]
    fn rebuild_follows_a_gate_mapped_onto_an_earlier_equal_one() {
        // m2 shares m1, so the inc after it lands one index earlier.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let _m1 = b.min2(ins[0], ins[1]);
        let m2 = b.min2(ins[1], ins[0]);
        let d = b.inc(m2, 1);
        let network = b.build([d]);
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let d = b.inc(m1, 1);
        let expected = b.build([d]);
        assert_eq!(share_subexpressions(&network), Some(expected.clone()));
        assert_eq!(share_subexpressions(&expected), None);
    }

    #[test]
    fn rebuild_sees_an_output_line_move() {
        // Sharing maps the second output onto the first one's gate.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let m2 = b.min2(ins[1], ins[0]);
        let network = b.build([m1, m2]);
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let expected = b.build([m1, m1]);
        assert_eq!(share_subexpressions(&network), Some(expected.clone()));
        assert_eq!(share_subexpressions(&expected), None);

        // Every gate emitted in place, and only the outputs differ.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let network = b.build([ins[0], ins[1]]);
        let mut r = Rebuild::new(&network);
        let (x, y) = (r.inputs[0], r.inputs[1]);
        r.map(x, x);
        r.map(y, y);
        assert_eq!(r.finish(), None);
        let mut r = Rebuild::new(&network);
        r.map(x, y);
        r.map(y, x);
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        assert_eq!(r.finish(), Some(b.build([ins[1], ins[0]])));
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
