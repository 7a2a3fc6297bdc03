//! The dense difference-bound matrix the zone domain started as, kept
//! as the differential oracle for `st_lint::Zone`.
//!
//! It holds every bound of the `(n + 1)²` matrix explicitly and runs
//! the same incremental closure (phases A–C and retraction) over all of
//! it, so it is exact by construction and slow: `O(n²)` memory and up
//! to `O(n²)` work per admitted node. The library's sparse store must
//! reproduce its facts exactly — every interval, firing fact and pair
//! bound — on every graph. It has no node cap.
//!
//! Built from public items only (`LintGraph`, `LintOp`, `Interval`,
//! `interval::topological_order`), so `crates/lint/tests/` and the
//! workspace suite on compiled graphs share this one file.

#![allow(dead_code)]

use st_core::Time;
use st_lint::interval::topological_order;
use st_lint::{Interval, LintGraph, LintOp, Zone};

const UNBOUNDED: i128 = i128::MAX / 4;

fn badd(a: i128, b: i128) -> i128 {
    if a >= UNBOUNDED || b >= UNBOUNDED {
        UNBOUNDED
    } else {
        a + b
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FireCond {
    mask: u128,
    slack: u64,
}

impl FireCond {
    const TRIVIAL_NEEDS: FireCond = FireCond {
        mask: 0,
        slack: u64::MAX,
    };
}

const MAX_MASK_INPUTS: usize = 128;

/// The dense zone: one explicit bound per ordered pair of nodes.
#[derive(Debug, Clone)]
pub struct DenseZone {
    n: usize,
    bounds: Vec<i128>,
    base: Vec<Interval>,
    needs: Vec<FireCond>,
    suffices: Vec<Option<FireCond>>,
    line_node: Vec<Option<usize>>,
}

impl DenseZone {
    /// The analysis of `graph` with input line `i` abstracted by
    /// `inputs(i)`, like `Zone::analyze_with` but without a node cap.
    pub fn analyze_with(graph: &LintGraph, inputs: &dyn Fn(usize) -> Interval) -> DenseZone {
        let n = graph.len();
        let dim = n + 1;
        let base = analyze_base(graph, inputs);
        let mut zone = DenseZone {
            n,
            bounds: vec![UNBOUNDED; dim * dim],
            base,
            needs: vec![FireCond::TRIVIAL_NEEDS; n],
            suffices: vec![None; n],
            line_node: vec![None; graph.input_count()],
        };
        for i in 0..dim {
            *zone.at_mut(i, i) = 0;
        }
        let mut processed = vec![false; n];
        let mut pivots: Vec<usize> = vec![n];
        for id in topological_order(graph) {
            zone.admit(graph, id, &processed, &pivots);
            processed[id] = true;
            if !zone.base[id].maybe_silent() {
                pivots.push(id);
            }
        }
        zone
    }

    /// The same input model for every line.
    pub fn analyze(graph: &LintGraph, input: Interval) -> DenseZone {
        DenseZone::analyze_with(graph, &|_| input)
    }

    pub fn len(&self) -> usize {
        self.n
    }

    /// Bounds stored explicitly by the sparse domain's rule: finite and
    /// strictly tighter than the path through the zero variable.
    pub fn tighter_than_zero_path(&self) -> usize {
        let z = self.n;
        let mut count = 0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j && self.at(i, j) < badd(self.at(i, z), self.at(z, j)) {
                    count += 1;
                }
            }
        }
        count
    }

    pub fn interval(&self, node: usize) -> Interval {
        let Some(&base) = self.base.get(node) else {
            return Interval::free();
        };
        if base.is_never() {
            return base;
        }
        let mut lo = base.lo();
        let mut hi = base.hi();
        let up = self.at(node, self.n);
        if up < UNBOUNDED {
            let t = Time::try_finite(u64::try_from(up.max(0)).unwrap_or(u64::MAX))
                .unwrap_or(Time::MAX_FINITE);
            hi = hi.min(t);
        }
        let down = self.at(self.n, node);
        if down < UNBOUNDED {
            let t = Time::try_finite(u64::try_from((-down).max(0)).unwrap_or(u64::MAX))
                .unwrap_or(Time::MAX_FINITE);
            lo = lo.max(t);
        }
        Interval::bounded(lo, hi, base.maybe_silent())
    }

    pub fn diff_hi(&self, a: usize, b: usize) -> Option<i128> {
        if a >= self.n || b >= self.n {
            return None;
        }
        let c = self.at(a, b);
        (c < UNBOUNDED).then_some(c)
    }

    pub fn proves_lt(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.at(a, b) <= -1
    }

    pub fn can_tie(&self, a: usize, b: usize) -> bool {
        self.can_fire(a) && self.can_fire(b) && !self.proves_lt(a, b) && !self.proves_lt(b, a)
    }

    pub fn fires_implies(&self, a: usize, b: usize) -> bool {
        if a >= self.n || b >= self.n {
            return false;
        }
        if self.base[a].is_never() || !self.base[b].maybe_silent() {
            return true;
        }
        let Some(sufficient) = self.suffices[b] else {
            return false;
        };
        let necessary = self.needs[a];
        sufficient.mask & !necessary.mask == 0 && sufficient.slack <= necessary.slack
    }

    pub fn can_fire(&self, node: usize) -> bool {
        self.base.get(node).is_some_and(|b| !b.is_never())
    }

    pub fn maybe_silent(&self, node: usize) -> bool {
        self.base.get(node).is_none_or(Interval::maybe_silent)
    }

    fn at(&self, i: usize, j: usize) -> i128 {
        self.bounds[i * (self.n + 1) + j]
    }

    fn at_mut(&mut self, i: usize, j: usize) -> &mut i128 {
        &mut self.bounds[i * (self.n + 1) + j]
    }

    fn tighten(&mut self, i: usize, j: usize, c: i128) {
        if c < self.at(i, j) {
            *self.at_mut(i, j) = c;
        }
    }

    fn admit(&mut self, graph: &LintGraph, id: usize, processed: &[bool], pivots: &[usize]) {
        let z = self.n;
        let fact = self.base[id];
        if fact.is_never() {
            return;
        }
        if let Some(v) = fact.hi().value() {
            self.tighten(id, z, i128::from(v));
        }
        if let Some(v) = fact.lo().value() {
            self.tighten(z, id, -i128::from(v));
        }
        let node = &graph.nodes()[id];
        let n = self.n;
        let wf = move |s: &usize| *s < n && processed[*s] && *s != id;
        match node.op {
            LintOp::Input(line) => {
                self.needs[id] = self.line_cond(line);
                self.suffices[id] = Some(self.line_cond(line));
                let twin = self.line_node.get(line).copied().flatten();
                if let Some(twin) = twin {
                    self.copy_row_col(twin, id, 0, 0);
                } else if let Some(slot) = self.line_node.get_mut(line) {
                    *slot = Some(id);
                }
            }
            LintOp::Const(_) => {
                self.needs[id] = FireCond::TRIVIAL_NEEDS;
                self.suffices[id] = Some(FireCond { mask: 0, slack: 0 });
            }
            LintOp::Min if !node.sources.is_empty() && node.sources.iter().all(wf) => {
                self.admit_min(id, &node.sources);
            }
            LintOp::Max if !node.sources.is_empty() && node.sources.iter().all(wf) => {
                self.admit_max(id, &node.sources);
            }
            LintOp::Lt if node.sources.len() == 2 && wf(&node.sources[0]) => {
                let (a, b) = (node.sources[0], node.sources[1]);
                self.copy_row_col(a, id, 0, 0);
                self.needs[id] = self.needs[a];
                self.suffices[id] = None;
                if wf(&b) && !self.base[b].is_never() {
                    self.tighten(id, b, -1);
                }
            }
            LintOp::Inc(delta) if node.sources.len() == 1 && wf(&node.sources[0]) => {
                let s = node.sources[0];
                let d = i128::from(delta);
                self.copy_row_col(s, id, d, -d);
                self.needs[id] = self.inc_needs(s, delta);
                self.suffices[id] = self.inc_suffices(s, delta);
            }
            _ => {}
        }
        self.restore_closure(id, pivots);
    }

    fn line_cond(&self, line: usize) -> FireCond {
        if line < MAX_MASK_INPUTS {
            FireCond {
                mask: 1u128 << line,
                slack: 0,
            }
        } else {
            FireCond::TRIVIAL_NEEDS
        }
    }

    fn copy_row_col(&mut self, src: usize, dst: usize, row_d: i128, col_d: i128) {
        let dim = self.n + 1;
        for i in 0..dim {
            if i == dst {
                continue;
            }
            let row = badd(self.at(src, i), row_d);
            self.tighten(dst, i, row);
            let col = badd(self.at(i, src), col_d);
            self.tighten(i, dst, col);
        }
    }

    fn admit_min(&mut self, id: usize, sources: &[usize]) {
        let dim = self.n + 1;
        let live: Vec<usize> = sources
            .iter()
            .copied()
            .filter(|&s| !self.base[s].is_never())
            .collect();
        if live.is_empty() {
            return;
        }
        let certain: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&s| !self.base[s].maybe_silent())
            .collect();
        for i in 0..dim {
            if i == id {
                continue;
            }
            let col = live
                .iter()
                .map(|&s| self.at(i, s))
                .fold(i128::MIN, i128::max);
            self.tighten(i, id, col.min(UNBOUNDED));
            let realizing = live
                .iter()
                .map(|&s| self.at(s, i))
                .fold(i128::MIN, i128::max);
            let deadline = certain
                .iter()
                .map(|&s| self.at(s, i))
                .fold(UNBOUNDED, i128::min);
            self.tighten(id, i, realizing.min(deadline).min(UNBOUNDED));
        }
        for &s in &live {
            self.tighten(id, s, 0);
        }
        self.needs[id] = live
            .iter()
            .map(|&s| self.needs[s])
            .reduce(|a, b| FireCond {
                mask: a.mask & b.mask,
                slack: a.slack.min(b.slack),
            })
            .unwrap_or(FireCond::TRIVIAL_NEEDS);
        self.suffices[id] = live
            .iter()
            .filter_map(|&s| self.suffices[s])
            .min_by_key(|c| (c.slack, c.mask.count_ones()));
    }

    fn admit_max(&mut self, id: usize, sources: &[usize]) {
        let dim = self.n + 1;
        for i in 0..dim {
            if i == id {
                continue;
            }
            let row = sources
                .iter()
                .map(|&s| self.at(s, i))
                .fold(i128::MIN, i128::max);
            self.tighten(id, i, row.min(UNBOUNDED));
            let col = sources
                .iter()
                .map(|&s| self.at(i, s))
                .fold(UNBOUNDED, i128::min);
            self.tighten(i, id, col);
        }
        for &s in sources {
            self.tighten(s, id, 0);
        }
        self.needs[id] = sources.iter().map(|&s| self.needs[s]).fold(
            FireCond {
                mask: 0,
                slack: u64::MAX,
            },
            |a, b| FireCond {
                mask: a.mask | b.mask,
                slack: a.slack.min(b.slack),
            },
        );
        self.suffices[id] = sources.iter().map(|&s| self.suffices[s]).try_fold(
            FireCond { mask: 0, slack: 0 },
            |a, b| {
                b.map(|b| FireCond {
                    mask: a.mask | b.mask,
                    slack: a.slack.max(b.slack),
                })
            },
        );
    }

    fn inc_needs(&self, s: usize, delta: u64) -> FireCond {
        let inherited = self.needs[s];
        if inherited.mask == 0 {
            return inherited;
        }
        let worst = self
            .mask_nodes(inherited.mask)
            .map(|node| node.map_or(UNBOUNDED, |nd| self.at(nd, s)))
            .fold(i128::MIN, i128::max);
        if worst >= UNBOUNDED {
            return inherited;
        }
        let extra = i128::from(delta) - worst;
        let extra = u64::try_from(extra.max(0)).unwrap_or(u64::MAX);
        FireCond {
            mask: inherited.mask,
            slack: inherited.slack.max(extra),
        }
    }

    fn inc_suffices(&self, s: usize, delta: u64) -> Option<FireCond> {
        let inherited = self.suffices[s]?;
        let max_finite = Time::MAX_FINITE.value().unwrap_or(u64::MAX);
        let ub = self.at(s, self.n);
        if ub < UNBOUNDED && ub.saturating_add(i128::from(delta)) <= i128::from(max_finite) {
            return Some(inherited);
        }
        if inherited.mask == 0 {
            return None;
        }
        let best = self
            .mask_nodes(inherited.mask)
            .map(|node| node.map_or(UNBOUNDED, |nd| self.at(s, nd)))
            .fold(UNBOUNDED, i128::min);
        if best >= UNBOUNDED {
            return None;
        }
        let extra = i128::from(delta).saturating_add(best);
        let extra = u64::try_from(extra.max(0)).unwrap_or(u64::MAX);
        if extra >= max_finite {
            return None;
        }
        Some(FireCond {
            mask: inherited.mask,
            slack: inherited.slack.max(extra),
        })
    }

    fn mask_nodes(&self, mask: u128) -> impl Iterator<Item = Option<usize>> + '_ {
        (0..MAX_MASK_INPUTS)
            .filter(move |i| mask & (1u128 << i) != 0)
            .map(|line| self.line_node.get(line).copied().flatten())
    }

    fn restore_closure(&mut self, id: usize, pivots: &[usize]) {
        let dim = self.n + 1;
        // Phase A: id's pivot entries through pivot-pivot paths.
        let col0: Vec<i128> = pivots.iter().map(|&p| self.at(p, id)).collect();
        let row0: Vec<i128> = pivots.iter().map(|&p| self.at(id, p)).collect();
        for (pi, &p) in pivots.iter().enumerate() {
            let mut best_col = col0[pi];
            let mut best_row = row0[pi];
            for (qi, &q) in pivots.iter().enumerate() {
                best_col = best_col.min(badd(self.at(p, q), col0[qi]));
                best_row = best_row.min(badd(row0[qi], self.at(q, p)));
            }
            self.tighten(p, id, best_col);
            self.tighten(id, p, best_row);
        }
        // Phase B: everything else against the final pivot entries.
        for i in 0..dim {
            if i == id {
                continue;
            }
            for &p in pivots {
                let col = badd(self.at(i, p), self.at(p, id));
                self.tighten(i, id, col);
                let row = badd(self.at(id, p), self.at(p, i));
                self.tighten(id, i, row);
            }
        }
        // Phase C: an always-firing node routes every pair through it.
        if !self.base[id].maybe_silent() {
            for i in 0..dim {
                let iid = self.at(i, id);
                if iid >= UNBOUNDED {
                    continue;
                }
                for j in 0..dim {
                    let cand = badd(iid, self.at(id, j));
                    if cand < self.at(i, j) {
                        *self.at_mut(i, j) = cand;
                    }
                }
            }
        }
        // Retraction: a negative cycle through the pivots.
        let mut cycle = 0;
        for &p in pivots {
            cycle = cycle.min(badd(self.at(id, p), self.at(p, id)));
        }
        if cycle < 0 {
            self.retract(id);
        }
        if !self.base[id].maybe_silent() {
            for i in 0..self.n {
                if i != id && self.at(i, i) < 0 {
                    self.retract(i);
                }
            }
        }
    }

    fn retract(&mut self, node: usize) {
        let dim = self.n + 1;
        for i in 0..dim {
            *self.at_mut(node, i) = UNBOUNDED;
            *self.at_mut(i, node) = UNBOUNDED;
        }
        *self.at_mut(node, node) = 0;
        self.base[node] = Interval::never();
        self.needs[node] = FireCond::TRIVIAL_NEEDS;
        self.suffices[node] = None;
    }
}

fn analyze_base(graph: &LintGraph, inputs: &dyn Fn(usize) -> Interval) -> Vec<Interval> {
    let n = graph.len();
    let mut values = vec![Interval::free(); n];
    let get = |values: &[Interval], s: usize| values.get(s).copied().unwrap_or_else(Interval::free);
    for id in topological_order(graph) {
        let node = &graph.nodes()[id];
        let srcs = &node.sources;
        values[id] = match node.op {
            LintOp::Input(line) => inputs(line),
            LintOp::Const(t) => Interval::exact(t),
            LintOp::Min | LintOp::Max => {
                let vs: Vec<Interval> = srcs.iter().map(|&s| get(&values, s)).collect();
                if vs.is_empty() {
                    Interval::free()
                } else if node.op == LintOp::Min {
                    Interval::min_of(vs)
                } else {
                    Interval::max_of(vs)
                }
            }
            LintOp::Lt if srcs.len() == 2 => {
                Interval::lt_gate(get(&values, srcs[0]), get(&values, srcs[1]))
            }
            LintOp::Inc(c) if srcs.len() == 1 => get(&values, srcs[0]).inc(c),
            LintOp::Lt | LintOp::Inc(_) => Interval::free(),
        };
    }
    values
}

/// Asserts that `zone` states exactly the oracle's facts: every node's
/// interval, `can_fire` and `maybe_silent`, and every ordered pair's
/// `diff_hi`, `fires_implies` and `can_tie`.
pub fn assert_same_facts(zone: &Zone, oracle: &DenseZone, context: &str) {
    let n = oracle.len();
    assert_eq!(zone.len(), n, "{context}: node count");
    for i in 0..n {
        assert_eq!(
            zone.interval(i),
            oracle.interval(i),
            "{context}: interval of node {i}"
        );
        assert_eq!(
            zone.can_fire(i),
            oracle.can_fire(i),
            "{context}: can_fire({i})"
        );
        assert_eq!(
            zone.maybe_silent(i),
            oracle.maybe_silent(i),
            "{context}: maybe_silent({i})"
        );
    }
    for a in 0..n {
        for b in 0..n {
            assert_eq!(
                zone.diff_hi(a, b),
                oracle.diff_hi(a, b),
                "{context}: diff_hi({a}, {b})"
            );
            assert_eq!(
                zone.fires_implies(a, b),
                oracle.fires_implies(a, b),
                "{context}: fires_implies({a}, {b})"
            );
            assert_eq!(
                zone.can_tie(a, b),
                oracle.can_tie(a, b),
                "{context}: can_tie({a}, {b})"
            );
        }
    }
}
