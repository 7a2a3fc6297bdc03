//! The shared spike-time interval engine over the `N0^∞` lattice.
//!
//! Both the lint passes (STA004 causality facts, STA006 ∞-saturation)
//! and the `st-verify` semantic verifier interpret gate graphs over the
//! same abstract domain defined here, so the two can never disagree on
//! bounds. The domain refines a plain order interval: a race-logic wire
//! either carries an *event* at some finite tick or stays *silent*
//! (`∞`), and nothing in between, so an abstract value is
//!
//! * a finite interval `[lo, hi]` bounding the firing time **when the
//!   wire fires**, and
//! * a `maybe_silent` flag recording whether `∞` is also a possible
//!   outcome.
//!
//! `[5, 9] ∪ {∞}` is representable even though it is not convex in the
//! total order `N0^∞` — exactly the shape `lt` produces ("fires by 9 or
//! never"), and the shape a boundedness certificate (§ IV) needs.
//! A wire that provably never fires is the bottom element
//! [`Interval::never`] (`lo = hi = ∞`).
//!
//! Every transfer function is *sound*: for concrete source values drawn
//! from the source intervals, the concrete gate output (as computed by
//! `Time::min_of`/`max_of`/`lt_gate`/`inc`) lies in the result interval.
//! The unit tests check this exhaustively against a concrete evaluator.

use st_core::Time;

use crate::graph::{LintGraph, LintNode, LintOp};

/// An abstract spike time: a finite firing interval plus possible
/// silence (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: Time,
    hi: Time,
    maybe_silent: bool,
}

impl Interval {
    /// The value of a wire that fires at exactly `t` (or, for `t = ∞`,
    /// never fires).
    #[must_use]
    pub fn exact(t: Time) -> Interval {
        match t.value() {
            Some(_) => Interval {
                lo: t,
                hi: t,
                maybe_silent: false,
            },
            None => Interval::never(),
        }
    }

    /// The bottom element: the wire provably never fires.
    #[must_use]
    pub fn never() -> Interval {
        Interval {
            lo: Time::INFINITY,
            hi: Time::INFINITY,
            maybe_silent: true,
        }
    }

    /// The top element: any firing time, or silence. This is the input
    /// model the lint passes use — nothing is assumed about when (or
    /// whether) a primary input fires.
    #[must_use]
    pub fn free() -> Interval {
        Interval {
            lo: Time::ZERO,
            hi: Time::MAX_FINITE,
            maybe_silent: true,
        }
    }

    /// An input constrained to the normalized coding window: it fires at
    /// some `t ≤ window` or not at all. This is the § IV premise under
    /// which boundedness certificates are computed.
    #[must_use]
    pub fn within(window: u64) -> Interval {
        Interval {
            lo: Time::ZERO,
            hi: Time::finite(window.min(Time::MAX_FINITE.value().unwrap_or(0))),
            maybe_silent: true,
        }
    }

    /// A general abstract value: fires within `[lo, hi]`, or possibly
    /// never when `maybe_silent`. An empty finite part (an infinite
    /// bound, or `lo > hi`) collapses to [`Interval::never`]. The zone
    /// domain uses this to report its refined per-node intervals.
    #[must_use]
    pub fn bounded(lo: Time, hi: Time, maybe_silent: bool) -> Interval {
        if lo.is_infinite() || hi.is_infinite() || lo > hi {
            Interval::never()
        } else {
            Interval {
                lo,
                hi,
                maybe_silent,
            }
        }
    }

    /// Lower bound on the firing time; `∞` iff the wire never fires.
    #[must_use]
    pub fn lo(&self) -> Time {
        self.lo
    }

    /// Upper bound on the *finite* firing time; `∞` iff the wire never
    /// fires. A finite `hi` with `maybe_silent` reads "fires by `hi`, or
    /// never".
    #[must_use]
    pub fn hi(&self) -> Time {
        self.hi
    }

    /// Whether `∞` (no event) is a possible outcome.
    #[must_use]
    pub fn maybe_silent(&self) -> bool {
        self.maybe_silent
    }

    /// Whether the wire provably never fires (STA006's fact).
    #[must_use]
    pub fn is_never(&self) -> bool {
        self.lo.is_infinite()
    }

    /// Whether the wire provably fires (no silent outcome).
    #[must_use]
    pub fn always_fires(&self) -> bool {
        !self.maybe_silent
    }

    /// The exact value when the abstraction pins a single outcome:
    /// `Some(∞)` for [`Interval::never`], `Some(t)` when the wire always
    /// fires at exactly `t`, `None` otherwise.
    #[must_use]
    pub fn as_exact(&self) -> Option<Time> {
        if self.is_never() {
            Some(Time::INFINITY)
        } else if !self.maybe_silent && self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Whether a concrete outcome is covered by this abstract value.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        match t.value() {
            None => self.maybe_silent,
            Some(_) => !self.is_never() && self.lo <= t && t <= self.hi,
        }
    }

    /// Transfer function for `min` (first event wins): fires iff any
    /// source fires. One pass over the sources, so a sweep need not
    /// collect them.
    #[must_use]
    pub fn min_of<I: IntoIterator<Item = Interval>>(sources: I) -> Interval {
        let mut firing = false;
        let mut lo = Time::INFINITY;
        // Sources that cannot be silent always contribute an event, so
        // the result is no later than the earliest such deadline. If
        // every source may be silent, the worst finite outcome is a lone
        // straggler firing at its own upper bound.
        let mut deadline: Option<Time> = None;
        let mut straggler = Time::ZERO;
        let mut maybe_silent = true;
        for s in sources {
            maybe_silent &= s.maybe_silent;
            if s.is_never() {
                continue;
            }
            firing = true;
            lo = lo.min(s.lo);
            straggler = straggler.max(s.hi);
            if !s.maybe_silent {
                deadline = Some(deadline.map_or(s.hi, |d| d.min(s.hi)));
            }
        }
        if !firing {
            return Interval::never();
        }
        Interval {
            lo,
            hi: deadline.unwrap_or(straggler),
            maybe_silent,
        }
    }

    /// Transfer function for `max` (last event wins): silent iff any
    /// source is silent (`∞` absorbs).
    #[must_use]
    pub fn max_of<I: IntoIterator<Item = Interval>>(sources: I) -> Interval {
        let mut acc: Option<Interval> = None;
        for s in sources {
            if s.is_never() {
                return Interval::never();
            }
            acc = Some(acc.map_or(s, |a| Interval {
                lo: a.lo.max(s.lo),
                hi: a.hi.max(s.hi),
                maybe_silent: a.maybe_silent || s.maybe_silent,
            }));
        }
        acc.unwrap_or_else(Interval::never)
    }

    /// Transfer function for `lt` (strict inhibition): the result is the
    /// data event `a` when it precedes the inhibitor `b`, else `∞`.
    #[must_use]
    pub fn lt_gate(a: Interval, b: Interval) -> Interval {
        // Can a < b happen at all? Either b can be silent (a < ∞), or b's
        // latest event still leaves room below it.
        let can_fire = !a.is_never() && (b.maybe_silent || a.lo < b.hi);
        if !can_fire {
            return Interval::never();
        }
        // When the result fires it is a's event; if b always fires by
        // b.hi, the data event must land strictly below that (`can_fire`
        // already established a.lo < b.hi, so b.hi ≥ 1 here).
        let hi = match b.hi.value() {
            Some(v) if !b.maybe_silent => a.hi.min(Time::finite(v.saturating_sub(1))),
            _ => a.hi,
        };
        // Can a >= b happen (suppression), or can a itself be silent?
        let maybe_silent = a.maybe_silent || (!b.is_never() && a.hi >= b.lo);
        Interval {
            lo: a.lo,
            hi,
            maybe_silent,
        }
    }

    /// Transfer function for `inc` (delay by `delta`). Saturation
    /// mirrors the concrete semantics: a delay that overflows the finite
    /// range *is* `∞`.
    #[must_use]
    pub fn inc(self, delta: u64) -> Interval {
        if self.is_never() {
            return Interval::never();
        }
        let lo = self.lo.inc(delta);
        let hi = self.hi.inc(delta);
        if lo.is_infinite() {
            return Interval::never();
        }
        if hi.is_infinite() {
            // Some outcomes saturate to ∞; the rest stay finite.
            return Interval {
                lo,
                hi: Time::MAX_FINITE,
                maybe_silent: true,
            };
        }
        Interval {
            lo,
            hi,
            maybe_silent: self.maybe_silent,
        }
    }
}

/// A topological order of an acyclic graph's nodes (sources before
/// users): the post-order of a depth-first search from every node in
/// index order, following source edges. The IR does not require
/// definition before use, but where each source precedes its node, as in
/// every lowered `Network`, expression and netlist, this is index order.
///
/// The caller must have established acyclicity (STA001); on a cyclic
/// graph some node precedes a source, but every node is listed once and
/// the function still terminates.
#[must_use]
pub fn topological_order(graph: &LintGraph) -> Vec<usize> {
    let n = graph.len();
    let mut order = Vec::with_capacity(n);
    let mut state = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if state[root] != 0 {
            continue;
        }
        stack.push((root, 0));
        state[root] = 1;
        while let Some(top) = stack.last_mut() {
            let (node, next) = *top;
            let sources = &graph.nodes()[node].sources;
            if next >= sources.len() {
                state[node] = 2;
                order.push(node);
                stack.pop();
                continue;
            }
            top.1 += 1;
            let s = sources[next];
            if s < n && state[s] == 0 {
                state[s] = 1;
                stack.push((s, 0));
            }
        }
    }
    order
}

/// Runs the interval abstract interpreter over a structurally valid
/// graph: one sweep in [`topological_order`], assigning every primary
/// input the abstract value `input`.
///
/// Malformed nodes (dangling sources, wrong arity) degrade to
/// [`Interval::free`] rather than panicking, so the analysis stays sound
/// and total even on graphs the structural passes would reject.
#[must_use]
pub fn analyze(graph: &LintGraph, input: Interval) -> Vec<Interval> {
    analyze_lines(graph, |_| input)
}

/// [`analyze`] with a per-line input model: every input node reading
/// line `i` starts at `inputs(i)`.
pub(crate) fn analyze_lines(
    graph: &LintGraph,
    inputs: impl Fn(usize) -> Interval,
) -> Vec<Interval> {
    let mut values = vec![Interval::free(); graph.len()];
    for id in topological_order(graph) {
        values[id] = transfer(&graph.nodes()[id], &values, &inputs);
    }
    values
}

/// One node's interval from its sources' current values. A source past
/// the graph reads [`Interval::free`], and so does a node of the wrong
/// arity.
fn transfer(node: &LintNode, values: &[Interval], inputs: impl Fn(usize) -> Interval) -> Interval {
    let get = |s: usize| values.get(s).copied().unwrap_or_else(Interval::free);
    let srcs = &node.sources;
    match (node.op, srcs.as_slice()) {
        (LintOp::Input(line), _) => inputs(line),
        (LintOp::Const(t), _) => Interval::exact(t),
        (LintOp::Min, [_, ..]) => Interval::min_of(srcs.iter().map(|&s| get(s))),
        (LintOp::Max, [_, ..]) => Interval::max_of(srcs.iter().map(|&s| get(s))),
        (LintOp::Lt, &[a, b]) => Interval::lt_gate(get(a), get(b)),
        (LintOp::Inc(c), &[a]) => get(a).inc(c),
        _ => Interval::free(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn iv(lo: u64, hi: u64, silent: bool) -> Interval {
        Interval {
            lo: t(lo),
            hi: t(hi),
            maybe_silent: silent,
        }
    }

    #[test]
    fn constructors_and_queries() {
        assert_eq!(Interval::exact(t(3)).as_exact(), Some(t(3)));
        assert_eq!(Interval::exact(Time::INFINITY), Interval::never());
        assert_eq!(Interval::never().as_exact(), Some(Time::INFINITY));
        assert!(Interval::never().is_never());
        assert!(!Interval::free().is_never());
        assert!(Interval::free().maybe_silent());
        assert_eq!(Interval::free().as_exact(), None);
        assert!(Interval::exact(t(0)).always_fires());
        assert_eq!(Interval::within(5).hi(), t(5));
        assert!(Interval::within(5).contains(Time::INFINITY));
        assert!(Interval::within(5).contains(t(5)));
        assert!(!Interval::within(5).contains(t(6)));
    }

    #[test]
    fn lt_transfer_covers_the_micro_weight_idiom() {
        let x = Interval::free();
        // μ = 0 disables the tap; μ = ∞ enables it transparently.
        assert!(Interval::lt_gate(x, Interval::exact(Time::ZERO)).is_never());
        let enabled = Interval::lt_gate(x, Interval::exact(Time::INFINITY));
        assert_eq!(enabled, x);
        // A finite μ caps the finite outcomes strictly below it.
        let capped = Interval::lt_gate(x, Interval::exact(t(3)));
        assert_eq!(capped.hi(), t(2));
        assert!(capped.maybe_silent());
    }

    #[test]
    fn saturation_is_provable_through_non_constant_paths() {
        // data ≥ 3 while the inhibitor is ≤ 2 (but not constant).
        let data = Interval::free().inc(3);
        let cap = Interval::min_of([Interval::free(), Interval::exact(t(2))]);
        assert_eq!(cap.hi(), t(2));
        assert!(cap.always_fires());
        assert!(Interval::lt_gate(data, cap).is_never());
    }

    /// Concrete evaluation of a tiny graph, used as ground truth.
    fn concrete_eval(ops: &[(LintOp, Vec<usize>)], inputs: &[Time]) -> Vec<Time> {
        let mut vals: Vec<Time> = Vec::with_capacity(ops.len());
        for (op, srcs) in ops {
            let v = match *op {
                LintOp::Input(i) => inputs[i],
                LintOp::Const(c) => c,
                LintOp::Min => Time::min_of(srcs.iter().map(|&s| vals[s])),
                LintOp::Max => Time::max_of(srcs.iter().map(|&s| vals[s])),
                LintOp::Lt => vals[srcs[0]].lt_gate(vals[srcs[1]]),
                LintOp::Inc(c) => vals[srcs[0]].inc(c),
            };
            vals.push(v);
        }
        vals
    }

    #[test]
    fn transfer_functions_are_sound_on_exhaustive_small_graphs() {
        // A graph exercising every operator, checked against concrete
        // evaluation over every input pair from {0, 1, 2, 5, ∞}².
        let ops: Vec<(LintOp, Vec<usize>)> = vec![
            (LintOp::Input(0), vec![]),
            (LintOp::Input(1), vec![]),
            (LintOp::Const(t(2)), vec![]),
            (LintOp::Const(Time::INFINITY), vec![]),
            (LintOp::Inc(3), vec![0]),
            (LintOp::Min, vec![1, 2]),
            (LintOp::Max, vec![0, 1]),
            (LintOp::Lt, vec![4, 5]),
            (LintOp::Lt, vec![0, 1]),
            (LintOp::Min, vec![6, 3]),
            (LintOp::Inc(1), vec![8]),
        ];
        let mut graph = LintGraph::new(2);
        for (op, srcs) in &ops {
            graph.push(*op, srcs.clone());
        }
        let abstract_vals = analyze(&graph, Interval::free());

        let domain = [t(0), t(1), t(2), t(5), Time::INFINITY];
        for &x0 in &domain {
            for &x1 in &domain {
                let concrete = concrete_eval(&ops, &[x0, x1]);
                for (id, &c) in concrete.iter().enumerate() {
                    assert!(
                        abstract_vals[id].contains(c),
                        "node {id}: concrete {c} not in {:?} for inputs [{x0}, {x1}]",
                        abstract_vals[id]
                    );
                }
            }
        }
        // And the engine proves the lt at node 7 dead: data ≥ 3, cap ≤ 2.
        assert!(abstract_vals[7].is_never());
    }

    #[test]
    fn windowed_inputs_give_finite_worst_case_bounds() {
        // y = min(x0 + 1, x1): fires by window + 1 whenever any input
        // fires; silent only if both are.
        let mut g = LintGraph::new(2);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let a1 = g.push(LintOp::Inc(1), vec![a]);
        let m = g.push(LintOp::Min, vec![a1, b]);
        g.set_outputs(vec![m]);
        let vals = analyze(&g, Interval::within(3));
        assert_eq!(vals[m], iv(0, 4, true));
    }

    /// xorshift64*: a small deterministic generator for graph shapes.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
        }
    }

    /// A random graph in definition order: every operator, merges of one
    /// to six sources with repeats, `∞` and near-saturation constants.
    fn random_graph(rng: &mut Rng, size: usize) -> LintGraph {
        let lines = 1 + rng.below(3);
        let mut g = LintGraph::new(lines);
        for line in 0..lines {
            g.push(LintOp::Input(line), vec![]);
        }
        while g.len() < size {
            let n = g.len();
            let (op, arity) = match rng.below(6) {
                0 => {
                    let t = [t(0), t(3), Time::MAX_FINITE, Time::INFINITY][rng.below(4)];
                    (LintOp::Const(t), 0)
                }
                1 => (LintOp::Min, 1 + rng.below(6)),
                2 => (LintOp::Max, 1 + rng.below(6)),
                3 => (LintOp::Lt, 2),
                _ => (LintOp::Inc([0, 1, 4, u64::MAX - 2][rng.below(4)]), 1),
            };
            let sources = (0..arity).map(|_| rng.below(n)).collect();
            g.push(op, sources);
        }
        g.set_outputs(vec![g.len() - 1]);
        g
    }

    /// `g` with its nodes renumbered by a random permutation (node `i`
    /// becomes node `perm[i]`): still acyclic, but sources no longer
    /// precede their nodes.
    fn shuffled(rng: &mut Rng, g: &LintGraph) -> (LintGraph, Vec<usize>) {
        let n = g.len();
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut slots = vec![None; n];
        for (old, node) in g.nodes().iter().enumerate() {
            slots[perm[old]] = Some(node);
        }
        let mut out = LintGraph::new(g.input_count());
        for node in slots.into_iter().flatten() {
            out.push(node.op, node.sources.iter().map(|&s| perm[s]).collect());
        }
        out.set_outputs(g.outputs().iter().map(|&o| perm[o]).collect());
        (out, perm)
    }

    /// The sweep with merges that collect their sources before folding
    /// them, as first written.
    fn reference(g: &LintGraph, input: Interval) -> Vec<Interval> {
        let mut values = vec![Interval::free(); g.len()];
        for id in topological_order(g) {
            let node = &g.nodes()[id];
            let vs: Vec<Interval> = node.sources.iter().map(|&s| values[s]).collect();
            let firing: Vec<&Interval> = vs.iter().filter(|s| !s.is_never()).collect();
            values[id] = match node.op {
                LintOp::Min if firing.is_empty() => Interval::never(),
                LintOp::Min => Interval {
                    lo: firing.iter().map(|s| s.lo).min().unwrap(),
                    hi: firing
                        .iter()
                        .filter(|s| !s.maybe_silent)
                        .map(|s| s.hi)
                        .min()
                        .unwrap_or_else(|| firing.iter().map(|s| s.hi).max().unwrap()),
                    maybe_silent: vs.iter().all(|s| s.maybe_silent),
                },
                LintOp::Max if firing.len() < vs.len() => Interval::never(),
                LintOp::Max => Interval {
                    lo: vs.iter().map(|s| s.lo).max().unwrap(),
                    hi: vs.iter().map(|s| s.hi).max().unwrap(),
                    maybe_silent: vs.iter().any(|s| s.maybe_silent),
                },
                _ => transfer(node, &values, |_| input),
            };
        }
        values
    }

    #[test]
    fn analyze_equals_a_collecting_sweep_in_any_node_order() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let models = [
            Interval::free(),
            Interval::within(5),
            Interval::bounded(t(1), t(9), false),
        ];
        let mut reordered = 0;
        for case in 0..400 {
            let g = random_graph(&mut rng, 2 + case % 60);
            let (forward, perm) = shuffled(&mut rng, &g);
            let index_order: Vec<usize> = (0..g.len()).collect();
            assert_eq!(topological_order(&g), index_order);
            if topological_order(&forward) != index_order {
                reordered += 1;
            }
            for input in models {
                let values = analyze(&g, input);
                assert_eq!(values, reference(&g, input), "{g:?}");
                let moved = analyze(&forward, input);
                assert_eq!(moved, reference(&forward, input), "{forward:?}");
                for (old, &new) in perm.iter().enumerate() {
                    assert_eq!(moved[new], values[old], "{forward:?}");
                }
            }
        }
        assert!(
            reordered > 300,
            "only {reordered} graphs with forward references"
        );
    }

    #[test]
    fn malformed_nodes_degrade_to_free_instead_of_panicking() {
        let mut g = LintGraph::new(1);
        g.push(LintOp::Lt, vec![0]); // wrong arity, self-ish reference
        g.push(LintOp::Min, vec![99]); // dangling
        let vals = analyze(&g, Interval::free());
        assert_eq!(vals[0], Interval::free());
        assert_eq!(vals[1], Interval::free());
    }
}
