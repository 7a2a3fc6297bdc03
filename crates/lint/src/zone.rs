//! The relational spike-time engine: a zone (difference-bound) domain
//! over `N0^∞`.
//!
//! The [`interval`] domain knows, per wire, a finite
//! firing window `[lo, hi]` plus possible silence — but nothing about
//! *differences* between wires, and the paper's core timing arguments
//! are relational: § IV's synchronization windows, Fig. 15's τ-WTA
//! inhibition margin, and every `lt` outcome hinge on bounds of
//! `t_a − t_b`. This module closes that gap with a difference-bound
//! matrix (DBM): for every pair of nodes `(i, j)` it maintains a
//! constraint
//!
//! > `t_i − t_j ≤ c`  *in every execution where both wires fire*,
//!
//! plus one distinguished zero variable `Z` (`t_Z = 0`) so absolute
//! bounds are the special cases `t_i − Z ≤ hi` and `Z − t_i ≤ −lo`.
//!
//! # Sparse storage
//!
//! The matrix is closed through `Z` at all times, so every pair bound
//! is at most the path through it: `t_i − t_j ≤ hi_i − lo_j`. Only the
//! bounds strictly tighter than that path are stored, once in the row
//! list of `i` and once in the column list of `j`; every other entry
//! reads as its zero-variable default, so `at(i, j) = min(stored,
//! hi_i − lo_j)` is exactly the dense matrix's entry. On the workspace's
//! sorters and columns only a few percent of the pairs are stored.
//!
//! Each transfer function and closure phase visits only the stored
//! entries of the nodes it reads, keeping the node being admitted in
//! dense scratch. Its own zero-variable bounds are tightened first, and
//! a candidate built only from defaults is then never tighter than the
//! admitted node's own default, so skipping those candidates loses
//! nothing. The dense matrix survives as the differential oracle of the
//! test suites, which compare every fact of the two on random and
//! compiled graphs.
//!
//! # Silence and soundness
//!
//! `N0^∞` is not a difference group: `∞ − t` is meaningless, so every
//! constraint here is guarded by "both endpoints finite" and silence is
//! tracked separately, exactly as in the interval domain. The guard has
//! a canonicalization consequence: the classic Floyd–Warshall step
//! `m[i][j] ≤ m[i][k] + m[k][j]` is only sound when the *intermediate*
//! wire `k` fires in every execution, so closure pivots are restricted
//! to provably non-silent nodes (plus `Z`). Paths through
//! possibly-silent wires are instead added by the per-operator transfer
//! functions, which know *why* the endpoint fired (a `min` that fired
//! took some source's event; an `inc` that fired delayed its source's
//! event; ...) and can therefore discharge the guard.
//!
//! # Firing implications
//!
//! Dropping an operand from a merge (`min(a, b) = a`) or deciding an
//! `lt` needs more than bounds: it needs *silence correlation* ("if `b`
//! fires then `a` fires"). The zone tracks, per node, a necessary and a
//! sufficient firing condition of the shape "all inputs in `mask` fire,
//! each no later than `MAX_FINITE − slack`" — exact for the delay
//! chains where relational reasoning matters and conservatively trivial
//! elsewhere. [`Zone::fires_implies`] compares the two, which lets the
//! analysis decide gates the interval domain cannot (e.g. that
//! `lt (inc 2 x) (inc 1 (inc 1 x))` never fires, despite both operands
//! spanning the full `[2, ∞]` range).
//!
//! Every transfer function is validated exhaustively against the
//! concrete `Time` evaluator in `tests/zone_validation.rs`, and
//! proptests check that the analysis is idempotent under closure and
//! never less precise than the interval domain.

use st_core::Time;

use crate::graph::{LintGraph, LintOp};
use crate::interval::{self, Interval};

/// The largest graph the relational analysis will take on;
/// [`Zone::analyze`] returns `None` beyond it.
///
/// The analysis costs what the graph's stored bounds cost, not `n²`,
/// but this one bound is shared by all three callers (the STA3xx lint
/// tier, `relational_fold` and `verify`'s skew certificates), and
/// `relational_fold` re-runs the whole analysis once per fixpoint step,
/// which on the larger SRM0 columns costs more than a compile pass
/// spends on everything else.
pub const MAX_RELATIONAL_NODES: usize = 512;

/// "No constraint" sentinel, kept far from `i128` overflow so that one
/// saturating addition can never wrap.
const UNBOUNDED: i128 = i128::MAX / 4;

/// Adds two difference bounds, saturating at [`UNBOUNDED`].
fn badd(a: i128, b: i128) -> i128 {
    if a >= UNBOUNDED || b >= UNBOUNDED {
        UNBOUNDED
    } else {
        a + b
    }
}

/// A conjunctive firing condition: "every input line in `mask` fires,
/// each no later than `MAX_FINITE − slack`". Used both as a necessary
/// condition (what a node's firing reveals about the inputs) and a
/// sufficient one (what input behavior forces the node to fire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FireCond {
    mask: u128,
    slack: u64,
}

impl FireCond {
    /// The vacuous necessary condition: an empty mask claims nothing,
    /// so the slack may be maximal.
    const TRIVIAL_NEEDS: FireCond = FireCond {
        mask: 0,
        slack: u64::MAX,
    };
}

/// How many input lines the firing-implication masks can track.
const MAX_MASK_INPUTS: usize = 128;

/// One stored pair bound: the other node and the bound.
type Entry = (usize, i128);

/// The result of a relational analysis: per-pair difference bounds,
/// per-node refined intervals, and firing implications.
///
/// Two zones are equal when they state the same facts: the store is
/// canonical (sorted lists, no entry that its default already implies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    /// Number of graph nodes; the zero variable has index `n`.
    n: usize,
    /// `t_i − Z ≤ up[i]`: each node's upper bound.
    up: Vec<i128>,
    /// `Z − t_i ≤ down[i]`: each node's negated lower bound.
    down: Vec<i128>,
    /// `rows[i]` holds `(j, c)` for `t_i − t_j ≤ c`, sorted by `j`, only
    /// where `c < up[i] + down[j]`.
    rows: Vec<Vec<Entry>>,
    /// The same bounds listed by their right-hand node: `cols[j]`
    /// holds `(i, c)`, sorted by `i`.
    cols: Vec<Vec<Entry>>,
    /// The interval facts the zone refines (flags are shared verbatim).
    base: Vec<Interval>,
    /// Necessary firing condition per node.
    needs: Vec<FireCond>,
    /// Sufficient firing condition per node (`None` = nothing known).
    suffices: Vec<Option<FireCond>>,
    /// First node carrying each input line, for mask → node lookups.
    line_node: Vec<Option<usize>>,
}

/// A node `s`'s row (bounds on `t_s − t_k`) or column (`t_k − t_s`).
#[derive(Debug, Clone, Copy)]
enum Side {
    Row,
    Col,
}

/// A dense vector of bounds that remembers which slots it has
/// tightened, so clearing it costs what was written.
#[derive(Debug)]
struct Slots {
    vals: Vec<i128>,
    touched: Vec<usize>,
}

impl Slots {
    fn new(len: usize) -> Slots {
        Slots {
            vals: vec![UNBOUNDED; len],
            touched: Vec::new(),
        }
    }

    fn get(&self, k: usize) -> i128 {
        self.vals[k]
    }

    fn tighten(&mut self, k: usize, c: i128) {
        let v = &mut self.vals[k];
        if c < *v {
            if *v >= UNBOUNDED {
                self.touched.push(k);
            }
            *v = c;
        }
    }

    /// Empties the slots, returning the tightened ones that satisfy
    /// `keep`, sorted by index.
    fn drain_sorted(&mut self, keep: impl Fn(usize, i128) -> bool) -> Vec<Entry> {
        self.touched.sort_unstable();
        let kept = self
            .touched
            .iter()
            .map(|&k| (k, self.vals[k]))
            .filter(|&(k, c)| keep(k, c))
            .collect();
        self.clear();
        kept
    }

    fn clear(&mut self) {
        for &k in &self.touched {
            self.vals[k] = UNBOUNDED;
        }
        self.touched.clear();
    }
}

/// Scratch for admitting one node, reused across an analysis.
#[derive(Debug)]
struct Work {
    /// The admitted node's row, `t_id − t_j` (slot `n` is `Z`).
    row: Slots,
    /// The admitted node's column, `t_i − t_id`.
    col: Slots,
    /// One stored list scattered for constant-time lookups
    /// (`UNBOUNDED` elsewhere).
    mark: Vec<i128>,
    /// Membership flags for [`Zone::max_over`]'s key set.
    seen: Vec<bool>,
    /// The closure pivots besides `Z`: every admitted node that provably
    /// fires in every execution (paths through them never cross a
    /// silent wire), as a list and as flags.
    pivots: Vec<usize>,
    pivot: Vec<bool>,
}

impl Work {
    fn new(dim: usize) -> Work {
        Work {
            row: Slots::new(dim),
            col: Slots::new(dim),
            mark: vec![UNBOUNDED; dim],
            seen: vec![false; dim],
            pivots: Vec::new(),
            pivot: vec![false; dim],
        }
    }

    /// The admitted node's row and column entries at the pivots.
    fn pivot_entries(&self) -> (Vec<Entry>, Vec<Entry>) {
        let at = |slots: &Slots| {
            self.pivots
                .iter()
                .map(|&p| (p, slots.get(p)))
                .filter(|e| e.1 < UNBOUNDED)
                .collect()
        };
        (at(&self.row), at(&self.col))
    }
}

/// Sets the bound keyed `key` in a sorted list. Admitting nodes in
/// index order only ever appends, so that case skips the search.
fn upsert(list: &mut Vec<Entry>, key: usize, c: i128) {
    if list.last().is_none_or(|e| e.0 < key) {
        list.push((key, c));
        return;
    }
    match list.binary_search_by_key(&key, |e| e.0) {
        Ok(at) => list[at].1 = c,
        Err(at) => list.insert(at, (key, c)),
    }
}

/// Drops the bound keyed `key` from a sorted list, if present.
fn remove(list: &mut Vec<Entry>, key: usize) {
    if let Ok(at) = list.binary_search_by_key(&key, |e| e.0) {
        list.remove(at);
    }
}

impl Zone {
    /// Runs the relational abstract interpreter over a graph, assigning
    /// every primary input the abstract value `input` (the same input
    /// model as [`interval::analyze`]).
    ///
    /// Returns `None` when the graph exceeds [`MAX_RELATIONAL_NODES`].
    /// Time and memory follow the stored bounds, not `n²`: admitting a
    /// node visits the stored entries of its sources and of the pivots
    /// its own entries reach.
    ///
    /// Malformed nodes (dangling sources, wrong arity, cycles) degrade
    /// to their interval facts with no relational constraints, exactly
    /// mirroring the interval engine's tolerance.
    #[must_use]
    pub fn analyze(graph: &LintGraph, input: Interval) -> Option<Zone> {
        if graph.len() > MAX_RELATIONAL_NODES {
            return None;
        }
        Zone::analyze_with(graph, &|_| input)
    }

    /// Like [`Zone::analyze`], but with a per-input-line abstract value
    /// (line `i` gets `inputs(i)`) and without the node cap, which is
    /// the callers' budget rather than a limit of the domain. The
    /// exhaustive validation suite uses this to pin inputs to exact
    /// concrete times, and the differential suites to compare graphs
    /// of any size against the dense oracle. Always `Some`.
    #[must_use]
    pub fn analyze_with(graph: &LintGraph, inputs: &dyn Fn(usize) -> Interval) -> Option<Zone> {
        let n = graph.len();
        let base = analyze_base(graph, inputs);
        let mut zone = Zone {
            n,
            up: vec![UNBOUNDED; n],
            down: vec![UNBOUNDED; n],
            rows: vec![Vec::new(); n],
            cols: vec![Vec::new(); n],
            base,
            needs: vec![FireCond::TRIVIAL_NEEDS; n],
            suffices: vec![None; n],
            line_node: vec![None; graph.input_count()],
        };
        let mut work = Work::new(n + 1);
        let mut processed = vec![false; n];
        for id in interval::topological_order(graph) {
            zone.admit(graph, id, &processed, &mut work);
            processed[id] = true;
            if !zone.base[id].maybe_silent() {
                work.pivots.push(id);
                work.pivot[id] = true;
            }
        }
        Some(zone)
    }

    /// The number of graph nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the zone covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The refined interval for a node: the interval fact tightened by
    /// the node's absolute difference bounds against `Z`. By
    /// construction this is never wider than the interval engine's
    /// result for the same graph and input model.
    #[must_use]
    pub fn interval(&self, node: usize) -> Interval {
        let Some(&base) = self.base.get(node) else {
            return Interval::free();
        };
        if base.is_never() {
            return base;
        }
        let mut lo = base.lo();
        let mut hi = base.hi();
        let up = self.up[node];
        if up < UNBOUNDED {
            let t = Time::try_finite(u64::try_from(up.max(0)).unwrap_or(u64::MAX))
                .unwrap_or(Time::MAX_FINITE);
            hi = hi.min(t);
        }
        let down = self.down[node];
        if down < UNBOUNDED {
            let t = Time::try_finite(u64::try_from((-down).max(0)).unwrap_or(u64::MAX))
                .unwrap_or(Time::MAX_FINITE);
            lo = lo.max(t);
        }
        Interval::bounded(lo, hi, base.maybe_silent())
    }

    /// The tightest proved upper bound on `t_a − t_b` over executions
    /// where both nodes fire; `None` when no finite bound is known.
    #[must_use]
    pub fn diff_hi(&self, a: usize, b: usize) -> Option<i128> {
        if a >= self.n || b >= self.n {
            return None;
        }
        let c = self.at(a, b);
        (c < UNBOUNDED).then_some(c)
    }

    /// The tightest proved lower bound on `t_a − t_b` over executions
    /// where both nodes fire.
    #[must_use]
    pub fn diff_lo(&self, a: usize, b: usize) -> Option<i128> {
        self.diff_hi(b, a).map(|c| -c)
    }

    /// Whether `t_a < t_b` holds in every execution where both fire.
    /// (Vacuously true when the two can never fire together.)
    #[must_use]
    pub fn proves_lt(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.at(a, b) <= -1
    }

    /// Whether `t_a ≤ t_b` holds in every execution where both fire.
    #[must_use]
    pub fn proves_le(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.at(a, b) <= 0
    }

    /// Whether the analysis fails to exclude `t_a = t_b` with both
    /// firing: both nodes can fire and neither strict ordering is
    /// proved. This is a *may* fact — the abstraction admits a tie, not
    /// a witness that one is reachable.
    #[must_use]
    pub fn can_tie(&self, a: usize, b: usize) -> bool {
        self.can_fire(a) && self.can_fire(b) && !self.proves_lt(a, b) && !self.proves_lt(b, a)
    }

    /// Whether "`a` fires" provably implies "`b` fires" (silence
    /// correlation: `t_a` finite ⟹ `t_b` finite).
    #[must_use]
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
        // a fires ⟹ every line in `necessary.mask` fires by
        // MAX − necessary.slack ⟹ (smaller mask, smaller slack) the
        // sufficient hypothesis for b holds ⟹ b fires.
        sufficient.mask & !necessary.mask == 0 && sufficient.slack <= necessary.slack
    }

    /// Whether the node can fire at all (interval liveness fact).
    #[must_use]
    pub fn can_fire(&self, node: usize) -> bool {
        self.base.get(node).is_some_and(|b| !b.is_never())
    }

    /// Whether silence is a possible outcome for the node.
    #[must_use]
    pub fn maybe_silent(&self, node: usize) -> bool {
        self.base.get(node).is_none_or(Interval::maybe_silent)
    }

    /// Re-canonicalizes the store with a full Floyd–Warshall sweep over
    /// the silence-safe pivot set (`Z` needs no step: every read already
    /// routes through it). A node whose constraints close into a
    /// negative cycle is retracted, as during the analysis. The
    /// incremental closure maintains canonical form already, so this is
    /// a fixpoint check: proptests assert `close()` changes nothing.
    pub fn close(&mut self) {
        let pivots: Vec<usize> = (0..self.n)
            .filter(|&p| !self.base[p].maybe_silent())
            .collect();
        let mut mark = vec![UNBOUNDED; self.n + 1];
        for p in pivots {
            for i in self.route_through(p, &mut mark) {
                self.retract(i);
            }
        }
    }

    /// The bound on `t_i − t_j` (either may be `Z`).
    fn at(&self, i: usize, j: usize) -> i128 {
        let z = self.n;
        if i == j {
            0
        } else if i == z {
            self.down[j]
        } else if j == z {
            self.up[i]
        } else {
            let row = &self.rows[i];
            match row.binary_search_by_key(&j, |e| e.0) {
                Ok(at) => row[at].1,
                Err(_) => badd(self.up[i], self.down[j]),
            }
        }
    }

    /// Admits node `id` into the zone: seeds its absolute bounds from
    /// the interval fact, derives its row and column from the
    /// operator's semantics, then restores canonical form incrementally.
    fn admit(&mut self, graph: &LintGraph, id: usize, processed: &[bool], work: &mut Work) {
        let z = self.n;
        let fact = self.base[id];
        if fact.is_never() {
            // A silent wire satisfies every both-finite constraint
            // vacuously; leaving its row unconstrained is exact.
            return;
        }
        if let Some(v) = fact.hi().value() {
            work.row.tighten(z, i128::from(v));
        }
        if let Some(v) = fact.lo().value() {
            work.col.tighten(z, -i128::from(v));
        }

        let node = &graph.nodes()[id];
        // A usable source: in range, already visited (no cycle
        // back-edge), and not the node itself.
        let n = self.n;
        let wf = move |s: &usize| *s < n && processed[*s] && *s != id;
        match node.op {
            LintOp::Input(line) => {
                self.needs[id] = self.line_cond(line);
                self.suffices[id] = Some(self.line_cond(line));
                let twin = self.line_node.get(line).copied().flatten();
                if let Some(twin) = twin {
                    // Two nodes carrying the same input line are equal
                    // in every execution.
                    self.copy_row_col(twin, 0, 0, work);
                } else if let Some(slot) = self.line_node.get_mut(line) {
                    *slot = Some(id);
                }
            }
            LintOp::Const(_) => {
                // Exact by the seeded interval; every pair reads it
                // through Z.
                self.needs[id] = FireCond::TRIVIAL_NEEDS;
                self.suffices[id] = Some(FireCond { mask: 0, slack: 0 });
            }
            LintOp::Min if !node.sources.is_empty() && node.sources.iter().all(wf) => {
                self.admit_min(id, &node.sources, work);
            }
            LintOp::Max if !node.sources.is_empty() && node.sources.iter().all(wf) => {
                self.admit_max(id, &node.sources, work);
            }
            LintOp::Lt if node.sources.len() == 2 && wf(&node.sources[0]) => {
                let (a, b) = (node.sources[0], node.sources[1]);
                // The result, when it fires, is a's event.
                self.copy_row_col(a, 0, 0, work);
                self.needs[id] = self.needs[a];
                self.suffices[id] = None;
                if wf(&b) && !self.base[b].is_never() {
                    // ... and then it strictly preceded the inhibitor.
                    work.row.tighten(b, -1);
                }
            }
            LintOp::Inc(delta) if node.sources.len() == 1 && wf(&node.sources[0]) => {
                let s = node.sources[0];
                // When the result fires, no saturation happened, so the
                // delay is exact: t_id = t_s + delta.
                let d = i128::from(delta);
                self.copy_row_col(s, d, -d, work);
                self.needs[id] = self.inc_needs(s, delta);
                self.suffices[id] = self.inc_suffices(s, delta);
            }
            // Malformed nodes keep their interval fact and contribute no
            // relational constraints.
            _ => {}
        }

        self.restore_closure(id, work);
    }

    /// A single-line firing condition, or the trivial one when the line
    /// is beyond what the masks can track.
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

    /// Copies `src`'s row/column onto the admitted node shifted by
    /// `row_d` / `col_d`: sound whenever the node firing implies `src`
    /// fired with `t_node = t_src + row_d` (equality-like operators).
    fn copy_row_col(&self, src: usize, row_d: i128, col_d: i128, work: &mut Work) {
        let z = self.n;
        work.row.tighten(z, badd(self.up[src], row_d));
        work.col.tighten(z, badd(self.down[src], col_d));
        work.row.tighten(src, row_d);
        work.col.tighten(src, col_d);
        for &(j, c) in &self.rows[src] {
            work.row.tighten(j, badd(c, row_d));
        }
        for &(i, c) in &self.cols[src] {
            work.col.tighten(i, badd(c, col_d));
        }
    }

    fn admit_min(&mut self, id: usize, sources: &[usize], work: &mut Work) {
        let z = self.n;
        // min(a, never) = a: silent sources contribute nothing.
        let live: Vec<usize> = sources
            .iter()
            .copied()
            .filter(|&s| !self.base[s].is_never())
            .collect();
        if live.is_empty() {
            return;
        }
        // When the min fires it equals some (finite) source, so any of
        // them may bound the difference from above...
        let col_z = live
            .iter()
            .map(|&s| self.down[s])
            .fold(i128::MIN, i128::max);
        work.col.tighten(z, col_z.min(UNBOUNDED));
        for (i, c) in self.max_over(&live, Side::Col, work) {
            work.col.tighten(i, c.min(UNBOUNDED));
        }
        // ... and from below, the realizing source again works.
        let realizing_z = live.iter().map(|&s| self.up[s]).fold(i128::MIN, i128::max);
        work.row.tighten(z, realizing_z.min(UNBOUNDED));
        for (j, c) in self.max_over(&live, Side::Row, work) {
            work.row.tighten(j, c.min(UNBOUNDED));
        }
        for &s in &live {
            // First event wins: the min is never later than any source.
            // A source that *always* fires is a pivot, so through this
            // entry the closure also bounds the min by that source's
            // own bounds (the min can only be earlier than it).
            work.row.tighten(s, 0);
        }
        // Necessary: *some* source fired, so only what every source
        // agrees on is implied. Sufficient: any single firing source
        // forces the min to fire; pick the cheapest hypothesis.
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

    fn admit_max(&mut self, id: usize, sources: &[usize], work: &mut Work) {
        let z = self.n;
        // The max equals its realizing source...
        let row_z = sources
            .iter()
            .map(|&s| self.up[s])
            .fold(i128::MIN, i128::max);
        work.row.tighten(z, row_z.min(UNBOUNDED));
        for (j, c) in self.max_over(sources, Side::Row, work) {
            work.row.tighten(j, c.min(UNBOUNDED));
        }
        // ... and when it fires, *every* source fired no later.
        let col_z = sources
            .iter()
            .map(|&s| self.down[s])
            .fold(UNBOUNDED, i128::min);
        work.col.tighten(z, col_z);
        for &s in sources {
            for &(i, c) in &self.cols[s] {
                work.col.tighten(i, c);
            }
            // Last event wins: the max is never earlier than any source.
            work.col.tighten(s, 0);
        }
        // The max fires iff every source fires.
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

    /// `max_s at(s, k)` ([`Side::Row`]) or `max_s at(k, s)`
    /// ([`Side::Col`]) over `sources`, exactly, for every node `k` that
    /// is a source or has a stored bound against one. Every other
    /// node's maximum is made of defaults and is no tighter than the
    /// admitted node's own default.
    fn max_over(&self, sources: &[usize], side: Side, work: &mut Work) -> Vec<Entry> {
        let lists = match side {
            Side::Row => &self.rows,
            Side::Col => &self.cols,
        };
        let mut keys = Vec::new();
        for &s in sources {
            for k in std::iter::once(s).chain(lists[s].iter().map(|e| e.0)) {
                if !work.seen[k] {
                    work.seen[k] = true;
                    keys.push(k);
                }
            }
        }
        let mut best = vec![i128::MIN; keys.len()];
        for &s in sources {
            for &(k, c) in &lists[s] {
                work.mark[k] = c;
            }
            for (b, &k) in best.iter_mut().zip(&keys) {
                let v = if k == s {
                    0
                } else if work.mark[k] < UNBOUNDED {
                    work.mark[k]
                } else {
                    match side {
                        Side::Row => badd(self.up[s], self.down[k]),
                        Side::Col => badd(self.up[k], self.down[s]),
                    }
                };
                *b = (*b).max(v);
            }
            for &(k, _) in &lists[s] {
                work.mark[k] = UNBOUNDED;
            }
        }
        for &k in &keys {
            work.seen[k] = false;
        }
        keys.into_iter().zip(best).collect()
    }

    /// Necessary condition for `inc delta` firing: the source fired and
    /// kept `delta` of headroom below `∞`, which reflects back onto the
    /// inputs through their upper difference bounds against the source.
    fn inc_needs(&self, s: usize, delta: u64) -> FireCond {
        let inherited = self.needs[s];
        if inherited.mask == 0 {
            return inherited;
        }
        // For each line i in the mask: t_i ≤ t_s + m[i][s] ≤
        // MAX − delta + m[i][s]; a uniform slack must hold for all of
        // them, so take the weakest (the largest m[i][s]).
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

    /// Sufficient condition for `inc delta` firing: enough input
    /// headroom that the delayed event provably stays finite.
    fn inc_suffices(&self, s: usize, delta: u64) -> Option<FireCond> {
        let inherited = self.suffices[s]?;
        let max_finite = Time::MAX_FINITE.value().unwrap_or(u64::MAX);
        // Absolute bound: if the source can never get close enough to ∞
        // for the delay to saturate, the hypothesis needs no tightening.
        let ub = self.up[s];
        if ub < UNBOUNDED && ub.saturating_add(i128::from(delta)) <= i128::from(max_finite) {
            return Some(inherited);
        }
        if inherited.mask == 0 {
            return None;
        }
        // Relational bound: t_s ≤ t_i + m[s][i] for any hypothesis line
        // i, so demanding t_i ≤ MAX − delta − m[s][i] keeps the delayed
        // event finite. One line suffices; pick the cheapest.
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

    /// The node carrying each input line in a mask (`None` when no
    /// Input node for the line has been admitted, keeping the caller
    /// conservative).
    fn mask_nodes(&self, mask: u128) -> impl Iterator<Item = Option<usize>> + '_ {
        (0..MAX_MASK_INPUTS)
            .filter(move |i| mask & (1u128 << i) != 0)
            .map(|line| self.line_node.get(line).copied().flatten())
    }

    /// Restores canonical (closed) form after admitting node `id`,
    /// using only silence-safe pivots as intermediates, and commits the
    /// node's row and column to the store.
    fn restore_closure(&mut self, id: usize, work: &mut Work) {
        let z = self.n;
        // Phase A: tighten the pivot entries of id's row/column through
        // pivot-pivot paths (which are already mutually closed), its
        // bounds against Z first. A path that starts with a default
        // entry is no shorter than the one through Z.
        let (row0, col0) = work.pivot_entries();
        let up = row0
            .iter()
            .fold(work.row.get(z), |acc, &(q, c)| acc.min(badd(c, self.up[q])));
        let down = col0.iter().fold(work.col.get(z), |acc, &(q, c)| {
            acc.min(badd(self.down[q], c))
        });
        work.row.tighten(z, up);
        work.col.tighten(z, down);
        for &(q, c) in &row0 {
            for &(p, s) in &self.rows[q] {
                if work.pivot[p] {
                    work.row.tighten(p, badd(c, s));
                }
            }
        }
        for &(q, c) in &col0 {
            for &(p, s) in &self.cols[q] {
                if work.pivot[p] {
                    work.col.tighten(p, badd(s, c));
                }
            }
        }
        // Phase B: tighten everything else against the now-final pivot
        // entries, through the pivots' stored bounds.
        let (row_pivots, col_pivots) = work.pivot_entries();
        for &(p, c) in &row_pivots {
            for &(i, s) in &self.rows[p] {
                work.row.tighten(i, badd(c, s));
            }
        }
        for &(p, c) in &col_pivots {
            for &(i, s) in &self.cols[p] {
                work.col.tighten(i, badd(s, c));
            }
        }
        self.commit(id, work);
        // Phase C: if the new node is itself always-firing, it joins the
        // pivot set; route existing pairs through it once.
        let negative = if self.base[id].maybe_silent() {
            Vec::new()
        } else {
            self.route_through(id, &mut work.mark)
        };
        // A negative cycle through the pivots means `id`'s constraints
        // are unsatisfiable: no execution lets it fire (e.g. an `lt`
        // whose operand provably never precedes its inhibitor). That is
        // a sound *never* fact — record it and retract the
        // contradictory row so the store stays canonical. Always-firing
        // nodes cannot get here: a concrete execution witnesses their
        // satisfiability. A cycle through a pivot with default entries
        // both ways is no shorter than the one through Z.
        let mut cycle = badd(self.up[id], self.down[id]).min(0);
        for &(p, c) in &self.rows[id] {
            if work.pivot[p] {
                cycle = cycle.min(badd(c, self.at(p, id)));
            }
        }
        for &(p, c) in &self.cols[id] {
            if work.pivot[p] {
                cycle = cycle.min(badd(self.at(id, p), c));
            }
        }
        if cycle < 0 {
            self.retract(id);
        }
        if !self.base[id].maybe_silent() {
            // Phase C may have exposed an older node's infeasibility.
            for i in negative {
                if i != id {
                    self.retract(i);
                }
            }
        }
    }

    /// Moves the admitted node's scratch row and column into the store:
    /// its bounds against Z, and the entries tighter than their
    /// defaults, in both lists.
    fn commit(&mut self, id: usize, work: &mut Work) {
        let z = self.n;
        let (up, down) = (work.row.get(z), work.col.get(z));
        self.up[id] = up;
        self.down[id] = down;
        let row = work
            .row
            .drain_sorted(|j, c| j != z && j != id && c < badd(up, self.down[j]));
        let col = work
            .col
            .drain_sorted(|i, c| i != z && i != id && c < badd(self.up[i], down));
        for &(j, c) in &row {
            upsert(&mut self.cols[j], id, c);
        }
        for &(i, c) in &col {
            upsert(&mut self.rows[i], id, c);
        }
        self.rows[id] = row;
        self.cols[id] = col;
    }

    /// One Floyd–Warshall step through the always-firing node `k`:
    /// `t_a − t_b ≤ (t_a − t_k) + (t_k − t_b)` for every pair. Only
    /// nodes with a stored bound against `k` can gain: their bounds
    /// against Z first, then the pairs with stored bounds on both
    /// sides; entries their new defaults imply are dropped. Returns the
    /// nodes the step proves infeasible (a negative cycle through `k`).
    fn route_through(&mut self, k: usize, mark: &mut [i128]) -> Vec<usize> {
        let into = self.cols[k].clone();
        let out = self.rows[k].clone();
        let mut negative: Vec<usize> = into
            .iter()
            .chain(&out)
            .map(|e| e.0)
            .filter(|&a| badd(self.at(a, k), self.at(k, a)) < 0)
            .collect();
        negative.sort_unstable();
        negative.dedup();
        let ups: Vec<Entry> = into
            .iter()
            .map(|&(a, c)| (a, badd(c, self.up[k])))
            .filter(|&(a, u)| u < self.up[a])
            .collect();
        let downs: Vec<Entry> = out
            .iter()
            .map(|&(b, c)| (b, badd(self.down[k], c)))
            .filter(|&(b, d)| d < self.down[b])
            .collect();
        for &(a, u) in &ups {
            self.up[a] = u;
        }
        for &(b, d) in &downs {
            self.down[b] = d;
        }
        let mut pairs = Vec::new();
        for &(a, ca) in &into {
            for &(j, c) in &self.rows[a] {
                mark[j] = c;
            }
            for &(b, cb) in &out {
                let c = badd(ca, cb);
                if b != a && c < mark[b] && c < badd(self.up[a], self.down[b]) {
                    pairs.push((a, b, c));
                }
            }
            for &(j, _) in &self.rows[a] {
                mark[j] = UNBOUNDED;
            }
        }
        for (a, b, c) in pairs {
            upsert(&mut self.rows[a], b, c);
            upsert(&mut self.cols[b], a, c);
        }
        for &(a, _) in &ups {
            self.prune(a, Side::Row);
        }
        for &(b, _) in &downs {
            self.prune(b, Side::Col);
        }
        negative
    }

    /// Drops the entries of `node`'s row or column that its defaults now
    /// imply, from both lists.
    fn prune(&mut self, node: usize, side: Side) {
        let (up, down) = (&self.up, &self.down);
        let (list, mirrors) = match side {
            Side::Row => (&mut self.rows[node], &mut self.cols),
            Side::Col => (&mut self.cols[node], &mut self.rows),
        };
        let mut dropped = Vec::new();
        list.retain(|&(k, c)| {
            let default = match side {
                Side::Row => badd(up[node], down[k]),
                Side::Col => badd(up[k], down[node]),
            };
            if c >= default {
                dropped.push(k);
            }
            c < default
        });
        for k in dropped {
            remove(&mut mirrors[k], node);
        }
    }

    /// Downgrades a node whose constraints turned out unsatisfiable to
    /// the *never fires* fact, dropping its (vacuous) bounds.
    fn retract(&mut self, node: usize) {
        for (j, _) in std::mem::take(&mut self.rows[node]) {
            remove(&mut self.cols[j], node);
        }
        for (i, _) in std::mem::take(&mut self.cols[node]) {
            remove(&mut self.rows[i], node);
        }
        self.up[node] = UNBOUNDED;
        self.down[node] = UNBOUNDED;
        self.base[node] = Interval::never();
        self.needs[node] = FireCond::TRIVIAL_NEEDS;
        self.suffices[node] = None;
    }
}

/// The interval facts the zone is seeded with: identical to
/// [`interval::analyze`] except for the per-line input model.
fn analyze_base(graph: &LintGraph, inputs: &dyn Fn(usize) -> Interval) -> Vec<Interval> {
    let n = graph.len();
    let mut values = vec![Interval::free(); n];
    let get = |values: &[Interval], s: usize| values.get(s).copied().unwrap_or_else(Interval::free);
    for id in interval::topological_order(graph) {
        let node = &graph.nodes()[id];
        let srcs = &node.sources;
        values[id] = match node.op {
            LintOp::Input(line) => inputs(line),
            LintOp::Const(t) => Interval::exact(t),
            LintOp::Min => {
                let vs: Vec<Interval> = srcs.iter().map(|&s| get(&values, s)).collect();
                if vs.is_empty() {
                    Interval::free()
                } else {
                    Interval::min_of(&vs)
                }
            }
            LintOp::Max => {
                let vs: Vec<Interval> = srcs.iter().map(|&s| get(&values, s)).collect();
                if vs.is_empty() {
                    Interval::free()
                } else {
                    Interval::max_of(&vs)
                }
            }
            LintOp::Lt => {
                if srcs.len() == 2 {
                    Interval::lt_gate(get(&values, srcs[0]), get(&values, srcs[1]))
                } else {
                    Interval::free()
                }
            }
            LintOp::Inc(c) => {
                if srcs.len() == 1 {
                    get(&values, srcs[0]).inc(c)
                } else {
                    Interval::free()
                }
            }
        };
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(ops: &[(LintOp, Vec<usize>)], input_count: usize) -> LintGraph {
        let mut g = LintGraph::new(input_count);
        for (op, sources) in ops {
            g.push(*op, sources.clone());
        }
        g
    }

    /// Ground truth: evaluate the graph on one concrete input volley
    /// with the real `Time` operators.
    fn concrete_eval(g: &LintGraph, inputs: &[Time]) -> Vec<Time> {
        let mut out = vec![Time::INFINITY; g.len()];
        for id in interval::topological_order(g) {
            let node = &g.nodes()[id];
            let src = |i: usize| out.get(node.sources[i]).copied().unwrap_or(Time::INFINITY);
            out[id] = match node.op {
                LintOp::Input(line) => inputs.get(line).copied().unwrap_or(Time::INFINITY),
                LintOp::Const(t) => t,
                LintOp::Min => Time::min_of(node.sources.iter().map(|&s| out[s])),
                LintOp::Max => Time::max_of(node.sources.iter().map(|&s| out[s])),
                LintOp::Lt => src(0).lt_gate(src(1)),
                LintOp::Inc(d) => src(0).inc(d),
            };
        }
        out
    }

    /// Checks every zone claim against one concrete execution.
    fn assert_sound(zone: &Zone, times: &[Time]) {
        for (i, &t) in times.iter().enumerate() {
            assert!(
                zone.interval(i).contains(t),
                "node {i}: {t:?} outside {:?}",
                zone.interval(i)
            );
            if t.is_finite() {
                assert!(zone.can_fire(i), "node {i} fired but zone says never");
            } else {
                assert!(zone.maybe_silent(i), "node {i} silent but zone says fires");
            }
        }
        for (a, &ta) in times.iter().enumerate() {
            for (b, &tb) in times.iter().enumerate() {
                if let (Some(va), Some(vb)) = (ta.value(), tb.value()) {
                    let d = i128::from(va) - i128::from(vb);
                    if let Some(hi) = zone.diff_hi(a, b) {
                        assert!(d <= hi, "t{a} - t{b} = {d} > proved bound {hi}");
                    }
                }
                if zone.fires_implies(a, b) && ta.is_finite() {
                    assert!(tb.is_finite(), "fires({a}) => fires({b}) violated");
                }
            }
        }
    }

    #[test]
    fn delay_chain_differences_are_exact() {
        // g0 = input, g1 = inc 2 g0, g2 = inc 1 g0, g3 = inc 1 g2.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(2), vec![0]),
                (LintOp::Inc(1), vec![0]),
                (LintOp::Inc(1), vec![2]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // t1 = t3 = t0 + 2 whenever finite.
        assert_eq!(zone.diff_hi(1, 3), Some(0));
        assert_eq!(zone.diff_hi(3, 1), Some(0));
        assert!(zone.proves_le(1, 3) && zone.proves_le(3, 1));
        // Equal delays saturate together: firing implications both ways.
        assert!(zone.fires_implies(1, 3));
        assert!(zone.fires_implies(3, 1));
        for t in [
            Time::ZERO,
            Time::finite(7),
            Time::MAX_FINITE,
            Time::INFINITY,
        ] {
            assert_sound(&zone, &concrete_eval(&g, &[t]));
        }
    }

    #[test]
    fn lt_on_equal_delay_chains_is_decided_never() {
        // lt (inc 2 x) (inc 1 (inc 1 x)) never fires: operands are equal.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(2), vec![0]),
                (LintOp::Inc(1), vec![0]),
                (LintOp::Inc(1), vec![2]),
                (LintOp::Lt, vec![1, 3]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // Statically decided: b ≤ a whenever both fire, and a firing
        // forces b to fire, so the gate's output is always ∞.
        assert!(zone.proves_le(3, 1));
        assert!(zone.fires_implies(1, 3));
        // The interval domain alone cannot decide this gate.
        let facts = interval::analyze(&g, Interval::free());
        assert!(facts[4].as_exact().is_none());
        for t in [
            Time::ZERO,
            Time::finite(9),
            Time::MAX_FINITE,
            Time::INFINITY,
        ] {
            let times = concrete_eval(&g, &[t]);
            assert!(times[4].is_infinite(), "gate fired at input {t:?}");
            assert_sound(&zone, &times);
        }
    }

    #[test]
    fn unequal_delays_saturate_differently() {
        // inc 1 x fires on inputs where inc 3 x saturates, so the
        // implication only holds in one direction.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(1), vec![0]),
                (LintOp::Inc(3), vec![0]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        assert!(zone.fires_implies(2, 1), "larger delay implies smaller");
        assert!(!zone.fires_implies(1, 2), "smaller cannot imply larger");
        let near_max = Time::MAX_FINITE.saturating_sub(2);
        for t in [Time::ZERO, near_max, Time::MAX_FINITE, Time::INFINITY] {
            assert_sound(&zone, &concrete_eval(&g, &[t]));
        }
    }

    #[test]
    fn min_max_bounds_and_implications() {
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Input(1), vec![]),
                (LintOp::Min, vec![0, 1]),
                (LintOp::Max, vec![0, 1]),
                (LintOp::Inc(4), vec![2]),
            ],
            2,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // min ≤ each source ≤ max, min ≤ max.
        assert!(zone.proves_le(2, 0) && zone.proves_le(2, 1));
        assert!(zone.proves_le(0, 3) && zone.proves_le(1, 3));
        assert!(zone.proves_le(2, 3));
        // max fires ⟹ min fires (all sources ⟹ some source).
        assert!(zone.fires_implies(3, 2));
        assert!(!zone.fires_implies(2, 3));
        for a in [Time::ZERO, Time::finite(5), Time::INFINITY] {
            for b in [Time::finite(2), Time::MAX_FINITE, Time::INFINITY] {
                assert_sound(&zone, &concrete_eval(&g, &[a, b]));
            }
        }
    }

    #[test]
    fn shared_input_lines_are_equal() {
        // Two Input nodes on the same line are the same wire, so
        // lt(x, x) never fires.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Input(0), vec![]),
                (LintOp::Lt, vec![0, 1]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        assert!(zone.proves_le(0, 1) && zone.proves_le(1, 0));
        assert!(zone.fires_implies(0, 1));
        for t in [Time::ZERO, Time::finite(3), Time::INFINITY] {
            let times = concrete_eval(&g, &[t]);
            assert!(times[2].is_infinite());
            assert_sound(&zone, &times);
        }
    }

    #[test]
    fn refines_interval_on_window_inputs() {
        // Under the § IV window premise, skew between two delayed copies
        // is pinned even though the absolute windows overlap.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Inc(3), vec![0]),
                (LintOp::Inc(5), vec![0]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::within(8)).expect("small graph");
        assert_eq!(zone.diff_hi(2, 1), Some(2));
        assert_eq!(zone.diff_lo(2, 1), Some(2));
        assert!(zone.proves_lt(1, 2));
        // And the absolute refinement is no worse than the intervals.
        let facts = interval::analyze(&g, Interval::within(8));
        for (i, fact) in facts.iter().enumerate() {
            let refined = zone.interval(i);
            assert!(fact.lo() <= refined.lo());
            assert!(refined.hi() <= fact.hi());
        }
    }

    #[test]
    fn close_is_a_fixpoint_after_analysis() {
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Input(1), vec![]),
                (LintOp::Const(Time::finite(4)), vec![]),
                (LintOp::Min, vec![0, 2]),
                (LintOp::Max, vec![1, 3]),
                (LintOp::Inc(2), vec![4]),
                (LintOp::Lt, vec![3, 5]),
            ],
            2,
        );
        let zone = Zone::analyze(&g, Interval::within(10)).expect("small graph");
        let mut closed = zone.clone();
        closed.close();
        assert_eq!(zone, closed, "incremental closure left slack");
    }

    #[test]
    fn oversized_graphs_are_declined() {
        let mut g = LintGraph::new(1);
        for _ in 0..=MAX_RELATIONAL_NODES {
            g.push(LintOp::Input(0), vec![]);
        }
        assert!(Zone::analyze(&g, Interval::free()).is_none());
    }

    #[test]
    fn malformed_nodes_degrade_gracefully() {
        // Dangling source, wrong arity, forward reference: no panics,
        // sound (trivial) answers.
        let g = graph(
            &[
                (LintOp::Input(0), vec![]),
                (LintOp::Min, vec![0, 99]),
                (LintOp::Inc(1), vec![1, 0]),
                (LintOp::Lt, vec![3, 0]),
            ],
            1,
        );
        let zone = Zone::analyze(&g, Interval::free()).expect("small graph");
        // Absolute bounds through Z survive, but no relational claim
        // stronger than them does.
        assert!(!zone.proves_le(1, 0));
        assert!(!zone.proves_lt(3, 0));
        assert!(!zone.fires_implies(0, 1));
    }
}
