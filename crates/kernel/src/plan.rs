//! Flattened execution plans: one resolved step per gate in a
//! precomputed topological order, plus the scalar reference evaluator.

use st_core::{lane, CoreError, Time};
use st_grl::GrlNetlist;
use st_lint::{LintGraph, LintOp};
use st_metrics::MetricSink;
use st_net::{GateKind, Network};
use st_obs::{ObsEvent, Probe};
use st_trace::{SpanId, Tracer};

use crate::graphopt;

/// One gate of a plan, its operands resolved at build time: source
/// gates by plan index, a constant or delay by its side-table index.
///
/// A merge of one or two sources is a binary step (a lone source is
/// paired with itself: `a ∧ a = a ∨ a = a`); only merges of three or
/// more keep their sources in the plan's fan-in arena, as a range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Input line `.0`.
    Input(u32),
    /// Constant `consts[.0]`.
    Const(u32),
    /// `a ∧ b`: the first-arriving source.
    Min(u32, u32),
    /// `a ∨ b`: the last-arriving source.
    Max(u32, u32),
    /// `a ≺ b`: `a` iff strictly before `b`.
    Lt(u32, u32),
    /// `a + delays[.1]`.
    Inc(u32, u32),
    /// `∧` over the arena range `.0...1`.
    MinN(u32, u32),
    /// `∨` over the arena range `.0...1`.
    MaxN(u32, u32),
}

impl Step {
    /// The op's stable lowercase tag, matching the event-simulator
    /// vocabulary used in [`ObsEvent::GateFired`].
    fn tag(self) -> &'static str {
        match self {
            Step::Input(_) => "input",
            Step::Const(_) => "const",
            Step::Min(..) | Step::MinN(..) => "min",
            Step::Max(..) | Step::MaxN(..) => "max",
            Step::Lt(..) => "lt",
            Step::Inc(..) => "inc",
        }
    }
}

/// A network compiled into its flattened, evaluate-many form.
///
/// Gates are steps in a topological order fixed at build time, each
/// naming its sources by plan index; side tables hold the values that
/// don't fit an index (`consts`, `delays`) and the sources of merges of
/// three or more (the `fan_in` arena). Build once with [`Plan::from_network`] /
/// [`Plan::from_grl`], then evaluate many volleys with [`Plan::eval`]
/// (scalar) or [`Plan::eval_packet`](crate::packet) (up to
/// [`MAX_PACKET`](crate::MAX_PACKET) lanes per pass).
///
/// Two plans are equal when they have the same steps, side tables,
/// inputs and outputs, and so compute the same function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    input_count: usize,
    steps: Vec<Step>,
    fan_in: Vec<u32>,
    consts: Vec<Time>,
    delays: Vec<u64>,
    outputs: Vec<u32>,
    lane_input_limit: Option<u64>,
    lane_consts: Vec<u8>,
    lane_delays: Vec<u8>,
}

impl Plan {
    /// Flattens a gate network (already topologically ordered by
    /// construction) into a plan, one step per gate. Bit-identical
    /// semantics to [`Network::eval`].
    ///
    /// # Panics
    ///
    /// Panics if the network uses a gate kind this crate does not know
    /// (none exist today; `GateKind` is `#[non_exhaustive]`), or has
    /// more than `u32::MAX` gates.
    #[must_use]
    pub fn from_network(network: &Network) -> Plan {
        let mut b = Builder::new(network.input_count(), network.gate_count());
        for (id, kind) in network.iter_gates() {
            // `iter_gates` yields only the network's own gates.
            let srcs = network.sources(id).unwrap_or_default();
            let src = |i: usize| index(srcs[i].index());
            let all = srcs.iter().map(|s| index(s.index()));
            match kind {
                GateKind::Input(n) => b.steps.push(Step::Input(index(n))),
                GateKind::Const(t) => b.constant(t),
                GateKind::Min => b.merge(Step::Min, Step::MinN, all),
                GateKind::Max => b.merge(Step::Max, Step::MaxN, all),
                GateKind::Lt => b.steps.push(Step::Lt(src(0), src(1))),
                GateKind::Inc(d) => b.inc(src(0), d),
                other => unreachable!("unsupported gate kind {other:?}"),
            }
        }
        b.finish(network.outputs().iter().map(|o| index(o.index())))
    }

    /// [`Plan::from_network`] under a `plan.build` span, so profiles
    /// attribute flattening cost separately from evaluation. With a
    /// `NullTracer` this is exactly [`Plan::from_network`].
    ///
    /// # Panics
    ///
    /// See [`Plan::from_network`].
    #[must_use]
    pub fn from_network_traced<T: Tracer>(
        network: &Network,
        tracer: &mut T,
        parent: SpanId,
    ) -> Plan {
        let _span = tracer.span("plan.build", parent);
        Plan::from_network(network)
    }

    /// Lowers a race-logic netlist into a plan via the Fig. 16
    /// correspondence: falling-edge `AND`/`OR` compute `min`/`max`, the
    /// `lt` latch computes `≺`, a flip-flop stage is `+1`, a tied-high
    /// wire is `∞`, and a configuration fall is a finite constant.
    ///
    /// Flip-flop **delay chains are fused** by the lint-graph rewrites in
    /// [`crate::graphopt`] (`fuse_delay_chains` followed by
    /// `sweep_unreachable`): a `Delay` whose source
    /// is itself a delay is emitted as one `Inc` with the summed delay,
    /// and the dead intermediate stages never reach the plan, so an
    /// `N`-cycle chain costs one gate instead of `N`.
    #[must_use]
    pub fn from_grl(netlist: &GrlNetlist) -> Plan {
        let graph = st_grl::lint::to_lint_graph(netlist);
        let (fused, _) = graphopt::fuse_delay_chains(&graph);
        let (swept, _) = graphopt::sweep_unreachable(&fused);
        Plan::from_lint_graph(&swept)
    }

    /// [`Plan::from_grl`] under a `plan.build` span; see
    /// [`Plan::from_network_traced`].
    #[must_use]
    pub fn from_grl_traced<T: Tracer>(
        netlist: &GrlNetlist,
        tracer: &mut T,
        parent: SpanId,
    ) -> Plan {
        let _span = tracer.span("plan.build", parent);
        Plan::from_grl(netlist)
    }

    /// Flattens a lint-IR graph (already in definition-before-use order,
    /// as the [`crate::graphopt`] rewrites guarantee) into a plan.
    fn from_lint_graph(graph: &LintGraph) -> Plan {
        let mut b = Builder::new(graph.input_count(), graph.len());
        for node in graph.nodes() {
            let src = |i: usize| index(node.sources[i]);
            let all = node.sources.iter().map(|&s| index(s));
            match node.op {
                LintOp::Input(n) => b.steps.push(Step::Input(index(n))),
                LintOp::Const(t) => b.constant(t),
                LintOp::Min => b.merge(Step::Min, Step::MinN, all),
                LintOp::Max => b.merge(Step::Max, Step::MaxN, all),
                LintOp::Lt => b.steps.push(Step::Lt(src(0), src(1))),
                LintOp::Inc(d) => b.inc(src(0), d),
            }
        }
        b.finish(graph.outputs().iter().map(|&o| index(o)))
    }

    /// The plan restricted to its live cone: the gates some output
    /// reads, in the same order, with their constants and delays in the
    /// same order too. It computes the same outputs; two plans whose
    /// live cones are equal compute the same function. Returns `self`
    /// untouched when every gate is live.
    #[must_use]
    pub fn live_cone(self) -> Plan {
        let live = self.live_gates();
        if live.iter().all(|&l| l) {
            return self;
        }
        // The new index of every live gate.
        let mut renumber = vec![0; self.steps.len()];
        let mut b = Builder::new(self.input_count, self.steps.len());
        for (g, step) in self.steps.iter().enumerate() {
            if !live[g] {
                continue;
            }
            renumber[g] = index(b.steps.len());
            let new = |s: u32| renumber[s as usize];
            match *step {
                Step::Input(_) => b.steps.push(*step),
                Step::Const(k) => b.constant(self.consts[k as usize]),
                Step::Min(a, c) => b.steps.push(Step::Min(new(a), new(c))),
                Step::Max(a, c) => b.steps.push(Step::Max(new(a), new(c))),
                Step::Lt(a, c) => b.steps.push(Step::Lt(new(a), new(c))),
                Step::Inc(a, k) => b.inc(new(a), self.delays[k as usize]),
                Step::MinN(s, e) => b.merge(
                    Step::Min,
                    Step::MinN,
                    self.arena(s, e).iter().map(|&s| new(s)),
                ),
                Step::MaxN(s, e) => b.merge(
                    Step::Max,
                    Step::MaxN,
                    self.arena(s, e).iter().map(|&s| new(s)),
                ),
            }
        }
        b.finish(self.outputs.iter().map(|&o| renumber[o as usize]))
    }

    /// The input width every volley must have.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The width of each output volley.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates in the flattened plan (after dead-gate sweeps).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.steps.len()
    }

    /// The largest finite input time for which the lane-packed path is
    /// exact, or `None` if some constant already exceeds the lane
    /// domain.
    ///
    /// Computed by a one-pass dataflow analysis at build time: for every
    /// gate, an upper bound of its value given inputs `≤ W` has the form
    /// `max(W + slack, const_bound)` (delays accumulate `slack` along
    /// input paths; constants start `const_bound` chains). The limit is
    /// the largest `W` keeping every live gate (one with a path to an
    /// output) `≤` [`lane::MAX_FINITE`], so within it no output ever
    /// saturates and SWAR equals scalar exactly. Dead gates do not count:
    /// their lanes saturate, and no output reads them.
    #[must_use]
    pub fn lane_input_limit(&self) -> Option<u64> {
        self.lane_input_limit
    }

    /// Whether this batch of volleys can take the lane-packed path: every
    /// finite input time is within [`Plan::lane_input_limit`]. (Volley
    /// widths are the caller's concern; silent `∞` inputs always fit.)
    #[must_use]
    pub fn lane_capable(&self, volleys: &[st_core::Volley]) -> bool {
        let Some(limit) = self.lane_input_limit else {
            return false;
        };
        volleys
            .iter()
            .flat_map(|v| v.times().iter())
            .all(|t| t.value().is_none_or(|v| v <= limit))
    }

    /// Evaluates one volley through the flattened plan at full `u64`
    /// precision — the scalar reference path, bit-identical to
    /// [`Network::eval`] on the source network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs` has the wrong
    /// width.
    pub fn eval(&self, inputs: &[Time]) -> Result<Vec<Time>, CoreError> {
        self.eval_instrumented(inputs, &mut st_obs::NullProbe, &mut st_metrics::NullMetrics)
    }

    /// [`Plan::eval`] with a probe and a metric sink: the probe gets one
    /// [`ObsEvent::GateFired`] per gate whose value is finite, in plan
    /// order — the same vocabulary as the event simulator, so exporters
    /// need no new cases — and the sink counts `kernel.volleys` and
    /// `kernel.gates` (scalar gate evaluations). With null instruments
    /// this is exactly [`Plan::eval`]; results are identical for any
    /// instruments.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if `inputs` has the wrong
    /// width.
    pub fn eval_instrumented<P: Probe, M: MetricSink>(
        &self,
        inputs: &[Time],
        probe: &mut P,
        sink: &mut M,
    ) -> Result<Vec<Time>, CoreError> {
        if inputs.len() != self.input_count {
            return Err(CoreError::ArityMismatch {
                expected: self.input_count,
                actual: inputs.len(),
            });
        }
        let enabled = probe.is_enabled();
        let mut values: Vec<Time> = Vec::with_capacity(self.steps.len());
        for (g, &step) in self.steps.iter().enumerate() {
            let at = |s: u32| values[s as usize];
            let v = match step {
                Step::Input(line) => inputs[line as usize],
                Step::Const(k) => self.consts[k as usize],
                // `Ord`'s `min`/`max` are `meet`/`join`, and inline here.
                Step::Min(a, b) => at(a).min(at(b)),
                Step::Max(a, b) => at(a).max(at(b)),
                Step::Lt(a, b) => at(a).lt_gate(at(b)),
                Step::Inc(a, k) => at(a).inc(self.delays[k as usize]),
                Step::MinN(s, e) => Time::min_of(self.arena(s, e).iter().map(|&s| at(s))),
                Step::MaxN(s, e) => Time::max_of(self.arena(s, e).iter().map(|&s| at(s))),
            };
            if enabled && v.is_finite() {
                probe.record(ObsEvent::GateFired {
                    gate: g,
                    op: step.tag(),
                    at: v,
                });
            }
            values.push(v);
        }
        if sink.is_live() {
            sink.incr("kernel.volleys", 1);
            sink.incr("kernel.gates", self.steps.len() as u64);
        }
        Ok(self.outputs.iter().map(|&o| values[o as usize]).collect())
    }

    /// The sources of a merge of three or more: fan-in arena range
    /// `start..end`.
    #[inline]
    pub(crate) fn arena(&self, start: u32, end: u32) -> &[u32] {
        &self.fan_in[start as usize..end as usize]
    }

    pub(crate) fn steps(&self) -> &[Step] {
        &self.steps
    }

    pub(crate) fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    pub(crate) fn lane_consts(&self) -> &[u8] {
        &self.lane_consts
    }

    pub(crate) fn lane_delays(&self) -> &[u8] {
        &self.lane_delays
    }

    /// Which gates some output reads: one reverse pass over the steps,
    /// each of which reads only earlier gates.
    fn live_gates(&self) -> Vec<bool> {
        let mut live = vec![false; self.steps.len()];
        for &o in &self.outputs {
            live[o as usize] = true;
        }
        for g in (0..self.steps.len()).rev() {
            if !live[g] {
                continue;
            }
            match self.steps[g] {
                Step::Input(_) | Step::Const(_) => {}
                Step::Min(a, b) | Step::Max(a, b) | Step::Lt(a, b) => {
                    live[a as usize] = true;
                    live[b as usize] = true;
                }
                Step::Inc(a, _) => live[a as usize] = true,
                Step::MinN(s, e) | Step::MaxN(s, e) => {
                    for &src in self.arena(s, e) {
                        live[src as usize] = true;
                    }
                }
            }
        }
        live
    }
}

/// Converts a gate, input line or arena position to the plan's `u32`
/// index.
///
/// # Panics
///
/// Panics past `u32::MAX`: plans are limited to that many gates.
fn index(i: usize) -> u32 {
    assert!(
        u32::try_from(i).is_ok(),
        "plans are limited to u32::MAX gates"
    );
    i as u32
}

/// Incremental plan assembly, one step per gate; `finish` runs the bound
/// analysis and precomputes the lane-side constant/delay tables.
struct Builder {
    input_count: usize,
    steps: Vec<Step>,
    fan_in: Vec<u32>,
    consts: Vec<Time>,
    delays: Vec<u64>,
}

impl Builder {
    fn new(input_count: usize, gates: usize) -> Builder {
        Builder {
            input_count,
            steps: Vec::with_capacity(gates),
            fan_in: Vec::new(),
            consts: Vec::new(),
            delays: Vec::new(),
        }
    }

    fn constant(&mut self, t: Time) {
        self.steps.push(Step::Const(index(self.consts.len())));
        self.consts.push(t);
    }

    fn inc(&mut self, src: u32, delay: u64) {
        self.steps.push(Step::Inc(src, index(self.delays.len())));
        self.delays.push(delay);
    }

    /// Pushes a merge of `srcs`, which has at least one (network
    /// builders reject empty ones): `pair` of its one or two sources,
    /// or `wide` over their arena range when there are more.
    fn merge(
        &mut self,
        pair: fn(u32, u32) -> Step,
        wide: fn(u32, u32) -> Step,
        srcs: impl IntoIterator<Item = u32>,
    ) {
        let start = self.fan_in.len();
        self.fan_in.extend(srcs);
        let step = match self.fan_in[start..] {
            [a] => pair(a, a),
            [a, b] => pair(a, b),
            _ => {
                return self
                    .steps
                    .push(wide(index(start), index(self.fan_in.len())))
            }
        };
        self.fan_in.truncate(start);
        self.steps.push(step);
    }

    fn finish<I: IntoIterator<Item = u32>>(self, outputs: I) -> Plan {
        let mut plan = Plan {
            input_count: self.input_count,
            steps: self.steps,
            fan_in: self.fan_in,
            consts: self.consts,
            delays: self.delays,
            outputs: outputs.into_iter().collect(),
            lane_input_limit: None,
            lane_consts: Vec::new(),
            lane_delays: Vec::new(),
        };
        plan.lane_input_limit = compute_lane_limit(&plan);
        if plan.lane_input_limit.is_some() {
            // Every value past the lane domain becomes `∞`, so each
            // gate's lane holds its value saturated to `∞` past
            // `lane::MAX_FINITE` — exactly its value on every live gate
            // within the limit.
            plan.lane_consts = plan
                .consts
                .iter()
                .map(|&t| lane::encode(t).unwrap_or(lane::INF))
                .collect();
            plan.lane_delays = plan
                .delays
                .iter()
                .map(|&d| u8::try_from(d).unwrap_or(lane::INF))
                .collect();
        }
        plan
    }
}

/// The bound analysis behind [`Plan::lane_input_limit`]: one forward
/// pass computing, per gate, the pair `(slack, const_bound)` such that
/// with all finite inputs `≤ W` the gate's finite values are
/// `≤ max(W + slack, const_bound)` (`None` = no such path), and the
/// worst of them over the live gates.
fn compute_lane_limit(plan: &Plan) -> Option<u64> {
    let max_opt = |a: Option<u64>, b: Option<u64>| match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let live = plan.live_gates();
    let mut bounds: Vec<(Option<u64>, Option<u64>)> = Vec::with_capacity(plan.steps.len());
    let mut worst: (Option<u64>, Option<u64>) = (None, None);
    let merge = |(s, c): (Option<u64>, Option<u64>), (t, d): (Option<u64>, Option<u64>)| {
        (max_opt(s, t), max_opt(c, d))
    };
    for (g, &step) in plan.steps.iter().enumerate() {
        let bound = match step {
            Step::Input(_) => (Some(0), None),
            Step::Const(k) => (None, plan.consts[k as usize].value()),
            Step::Min(a, b) | Step::Max(a, b) => merge(bounds[a as usize], bounds[b as usize]),
            Step::MinN(s, e) | Step::MaxN(s, e) => plan
                .arena(s, e)
                .iter()
                .fold((None, None), |acc, &src| merge(acc, bounds[src as usize])),
            // `≺` passes its first source or `∞`.
            Step::Lt(a, _) => bounds[a as usize],
            Step::Inc(a, k) => {
                let d = plan.delays[k as usize];
                let (s, c) = bounds[a as usize];
                (
                    s.map(|s| s.saturating_add(d)),
                    c.map(|c| c.saturating_add(d)),
                )
            }
        };
        if live[g] {
            worst = merge(worst, bound);
        }
        bounds.push(bound);
    }
    let ceiling = u64::from(lane::MAX_FINITE);
    if worst.1.is_some_and(|c| c > ceiling) {
        return None;
    }
    worst.0.map_or(Some(ceiling), |s| ceiling.checked_sub(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_net::NetworkBuilder;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// A canonical one-line-per-gate rendering of a plan's structure,
    /// used by the refactor pin tests below.
    fn dump(plan: &Plan) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (g, &step) in plan.steps.iter().enumerate() {
            let (arg, srcs) = match step {
                Step::Input(line) => (format!("line {line}"), vec![]),
                Step::Const(k) => (format!("{}", plan.consts[k as usize]), vec![]),
                Step::Inc(a, k) => (format!("+{}", plan.delays[k as usize]), vec![a]),
                Step::Min(a, b) | Step::Max(a, b) | Step::Lt(a, b) => (String::new(), vec![a, b]),
                Step::MinN(s, e) | Step::MaxN(s, e) => (String::new(), plan.arena(s, e).to_vec()),
            };
            let srcs: Vec<String> = srcs.iter().map(|s| format!("g{s}")).collect();
            let _ = writeln!(out, "g{g}: {} {arg} [{}]", step.tag(), srcs.join(", "));
        }
        let outs: Vec<String> = plan.outputs.iter().map(|o| format!("g{o}")).collect();
        let _ = writeln!(out, "-> {}", outs.join(", "));
        out
    }

    /// The three pin netlists: a pure delay chain, a mixed network with
    /// every gate kind, and a comparator sorter.
    fn pin_netlists() -> Vec<(&'static str, st_grl::GrlNetlist)> {
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d = b.inc(input, 9);
        let chain = st_grl::compile_network(&b.build([d]));

        let mut b = NetworkBuilder::new();
        let ins = b.inputs(3);
        let d = b.inc(ins[0], 2);
        let m = b.min2(d, ins[1]);
        let x = b.max2(m, ins[2]);
        let c = b.constant(Time::INFINITY);
        let l = b.lt(x, c);
        let d2 = b.inc(l, 3);
        let mixed = st_grl::compile_network(&b.build([m, d2]));

        let sorter = st_grl::compile_network(&st_net::sorting::sorting_network(4));
        vec![("chain", chain), ("mixed", mixed), ("sorter", sorter)]
    }

    /// Regression pin for the delay-fusion refactor: `from_grl` now
    /// lowers through the shared [`crate::graphopt`] fusion pass, and
    /// these dumps were captured from the pre-refactor builder-local
    /// fusion — the two paths must produce byte-identical plans.
    #[test]
    fn from_grl_plans_are_pinned_across_the_fusion_refactor() {
        let expected = [
            (
                "chain",
                "g0: input line 0 []\n\
                 g1: inc +9 [g0]\n\
                 -> g1\n",
            ),
            (
                "mixed",
                "g0: input line 0 []\n\
                 g1: input line 1 []\n\
                 g2: input line 2 []\n\
                 g3: inc +2 [g0]\n\
                 g4: min  [g3, g1]\n\
                 g5: max  [g4, g2]\n\
                 g6: const ∞ []\n\
                 g7: lt  [g5, g6]\n\
                 g8: inc +3 [g7]\n\
                 -> g4, g8\n",
            ),
            (
                "sorter",
                "g0: input line 0 []\n\
                 g1: input line 1 []\n\
                 g2: input line 2 []\n\
                 g3: input line 3 []\n\
                 g4: min  [g0, g1]\n\
                 g5: max  [g0, g1]\n\
                 g6: min  [g2, g3]\n\
                 g7: max  [g2, g3]\n\
                 g8: min  [g4, g7]\n\
                 g9: max  [g4, g7]\n\
                 g10: min  [g5, g6]\n\
                 g11: max  [g5, g6]\n\
                 g12: min  [g8, g10]\n\
                 g13: max  [g8, g10]\n\
                 g14: min  [g9, g11]\n\
                 g15: max  [g9, g11]\n\
                 -> g12, g13, g14, g15\n",
            ),
        ];
        for ((name, netlist), (ename, egolden)) in pin_netlists().iter().zip(expected) {
            assert_eq!(*name, ename);
            assert_eq!(dump(&Plan::from_grl(netlist)), egolden, "netlist {name}");
        }
    }

    #[test]
    fn plan_matches_network_eval_on_a_mixed_network() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let d = b.inc(ins[0], 2);
        let m = b.min2(d, ins[1]);
        let c = b.constant(t(3));
        let x = b.max2(m, c);
        let l = b.lt(x, ins[1]);
        let network = b.build([m, l]);
        let plan = Plan::from_network(&network);
        assert_eq!(plan.input_count(), 2);
        assert_eq!(plan.output_width(), 2);
        for a in [t(0), t(2), t(9), Time::INFINITY] {
            for c in [t(0), t(4), Time::INFINITY] {
                let inputs = [a, c];
                assert_eq!(plan.eval(&inputs).unwrap(), network.eval(&inputs).unwrap());
            }
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let plan = Plan::from_network(&st_net::sorting::sorting_network(3));
        assert!(matches!(
            plan.eval(&[t(1)]),
            Err(CoreError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn lane_limit_accounts_for_delays_and_constants() {
        // A pure comparator network accumulates no delay: limit is 254.
        let sorter = Plan::from_network(&st_net::sorting::sorting_network(4));
        assert_eq!(sorter.lane_input_limit(), Some(254));

        // Two chained +100 delays leave room for inputs up to 54.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d1 = b.inc(input, 100);
        let d2 = b.inc(d1, 100);
        let plan = Plan::from_network(&b.build([d2]));
        assert_eq!(plan.lane_input_limit(), Some(54));

        // A delay past the lane domain rules the lane path out entirely.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d = b.inc(input, 300);
        let plan = Plan::from_network(&b.build([d]));
        assert_eq!(plan.lane_input_limit(), None);

        // So does a finite constant past it; an ∞ constant does not.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let c = b.constant(t(400));
        let m = b.min2(input, c);
        let plan = Plan::from_network(&b.build([m]));
        assert_eq!(plan.lane_input_limit(), None);

        let mut b = NetworkBuilder::new();
        let input = b.input();
        let c = b.constant(Time::INFINITY);
        let m = b.min2(input, c);
        let plan = Plan::from_network(&b.build([m]));
        assert_eq!(plan.lane_input_limit(), Some(254));

        // Dead gates set no bound: no output reads their lanes. A dead
        // `inc 300`, a dead constant 400 and a dead chain of two `+100`s
        // leave a live `+4` its whole limit of 250; each of them read by
        // a second output bounds the plan as above.
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let live = b.inc(input, 4);
        let past = b.inc(input, 300);
        let c = b.constant(t(400));
        let constant = b.min2(input, c);
        let d1 = b.inc(input, 100);
        let chain = b.inc(d1, 100);
        let network = b.build([live]);
        assert_eq!(Plan::from_network(&network).lane_input_limit(), Some(250));
        for (dead, limit) in [(past, None), (constant, None), (chain, Some(54))] {
            let b = NetworkBuilder::from_prefix(&network, network.gate_count());
            let plan = Plan::from_network(&b.build([live, dead]));
            assert_eq!(plan.lane_input_limit(), limit);
        }
    }

    /// A plan's live cone keeps the gates some output reads, in order,
    /// renumbered with their constants and delays: an unread input line
    /// goes too. It equals the cone of the network without the dead
    /// gates, and a cone is its own cone.
    #[test]
    fn live_cones_drop_dead_gates_and_renumber_the_rest() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(3);
        let dead_const = b.constant(t(7));
        let c = b.constant(t(3));
        let dead_inc = b.inc(ins[1], 300);
        let d = b.inc(ins[0], 2);
        let m = b.min([d, ins[2], c]).unwrap();
        let dead_max = b.max2(dead_const, dead_inc);
        let x = b.max2(m, m);
        let with_dead = b.build([x, d]);
        let _ = dead_max;

        let mut b = NetworkBuilder::new();
        let ins = b.inputs(3);
        let c = b.constant(t(3));
        let d = b.inc(ins[0], 2);
        let m = b.min([d, ins[2], c]).unwrap();
        let x = b.max2(m, m);
        let without = b.build([x, d]);

        let cone = Plan::from_network(&with_dead).live_cone();
        assert_ne!(Plan::from_network(&with_dead), Plan::from_network(&without));
        assert_eq!(cone, Plan::from_network(&without).live_cone());
        assert_eq!(
            dump(&cone),
            "g0: input line 0 []\n\
             g1: input line 2 []\n\
             g2: const 3 []\n\
             g3: inc +2 [g0]\n\
             g4: min  [g3, g1, g2]\n\
             g5: max  [g4, g4]\n\
             -> g5, g3\n"
        );
        assert_eq!(cone.clone().live_cone(), cone);
        for inputs in [[t(0), t(9), t(1)], [Time::INFINITY, t(0), t(8)]] {
            assert_eq!(cone.eval(&inputs), with_dead.eval(&inputs));
        }
    }

    #[test]
    fn grl_plan_fuses_delay_chains() {
        let mut b = NetworkBuilder::new();
        let input = b.input();
        let d = b.inc(input, 9);
        let network = b.build([d]);
        let netlist = st_grl::compile_network(&network);
        // The netlist spells the +9 as nine flip-flop stages…
        assert!(netlist.wire_count() > 9);
        let plan = Plan::from_grl(&netlist);
        // …the plan fuses them into one Inc and sweeps the rest.
        assert_eq!(plan.gate_count(), 2);
        assert_eq!(plan.eval(&[t(5)]).unwrap(), vec![t(14)]);
        assert_eq!(plan.eval(&[Time::INFINITY]).unwrap(), vec![Time::INFINITY]);
    }
}
