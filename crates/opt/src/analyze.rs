//! The STA2xx analysis tier: optimization opportunities as diagnostics.
//!
//! Where `st-lint`'s STA0xx codes refute paper invariants and
//! `st-verify`'s STA1xx codes report semantic disagreements, the STA2xx
//! codes are *advisory*: each names a rewrite one of the verified
//! passes in [`crate::passes`] can perform. They are emitted through
//! the same [`Report`] pipeline, so `--json`, `--deny`/`--allow`, and
//! the golden-file machinery all apply unchanged.
//!
//! | code | finding | pass |
//! |------|---------|------|
//! | STA201 | gate provably computes a constant | `constant_fold` |
//! | STA202 | gate recomputes an earlier gate's value | `share_subexpressions` |
//! | STA203 | `inc` feeds an `inc` (fusible chain) | `fuse_delay_chains` |
//!
//! A gate saturated at `∞` is *also* foldable, but that is already
//! STA006 (`DeadGate`) territory; STA201 is reserved for finite
//! singletons so one finding never appears under two codes.
//!
//! The tier reads the same three sweeps as the passes it names:
//! [`st_lint::liveness::live_set`], [`st_lint::interval::analyze`] and
//! [`value_numbers`]. Each is total, so a malformed graph (a cycle, a
//! dangling id, a wrong arity) still gets a report.

use st_lint::{
    interval, liveness, Code, Diagnostic, Interval, LintGraph, LintOp, Location, Report, Severity,
};
use st_net::Network;

use crate::value_number::value_numbers;

/// Runs every STA2xx analysis over a lint graph and reports the
/// opportunities, all at [`Severity::Info`].
#[must_use]
pub fn analyze_graph(graph: &LintGraph) -> Report {
    let mut report = Report::new();
    let live = liveness::live_set(graph);
    let intervals = interval::analyze(graph, Interval::free());
    let numbers = value_numbers(graph);

    // STA201: live operator gates with a finite singleton interval.
    for (id, node) in graph.nodes().iter().enumerate() {
        if !live[id] || !node.op.is_operator() {
            continue;
        }
        if let Some(t) = intervals[id].as_exact() {
            if t.is_finite() {
                report.push(
                    Diagnostic::new(
                        Code::ConstantGate,
                        Severity::Info,
                        Location::Gate(id),
                        format!(
                            "{} gate provably fires at {t} for every input volley",
                            node.op.name()
                        ),
                    )
                    .with_hint("run the constant_fold pass to replace it with a const"),
                );
            }
        }
    }

    // STA202: live operator gates whose congruence class has an earlier
    // live representative.
    // Class ids are dense, below the node count.
    let mut first_of_class: Vec<Option<usize>> = vec![None; numbers.len()];
    for (id, node) in graph.nodes().iter().enumerate() {
        if !live[id] {
            continue;
        }
        let rep = *first_of_class[numbers[id]].get_or_insert(id);
        if rep != id && node.op.is_operator() {
            report.push(
                Diagnostic::new(
                    Code::SharedSubexpression,
                    Severity::Info,
                    Location::Gate(id),
                    format!(
                        "{} gate recomputes the value of g{rep} (congruent expression)",
                        node.op.name()
                    ),
                )
                .with_hint("run the share_subexpressions pass to reuse the earlier gate"),
            );
        }
    }

    // STA203: live incs reading live incs.
    for (id, node) in graph.nodes().iter().enumerate() {
        if !live[id] || !matches!(node.op, LintOp::Inc(_)) || node.sources.len() != 1 {
            continue;
        }
        let s = node.sources[0];
        if s < graph.len() && matches!(graph.nodes()[s].op, LintOp::Inc(_)) {
            report.push(
                Diagnostic::new(
                    Code::FusibleDelayChain,
                    Severity::Info,
                    Location::Gate(id),
                    format!("inc gate reads inc gate g{s}: the delay chain can be fused"),
                )
                .with_hint("run the fuse_delay_chains pass to sum the delays into one inc"),
            );
        }
    }
    report
}

/// [`analyze_graph`] over a gate network's lint lowering (gate ids and
/// node ids coincide, so locations point at real gates).
#[must_use]
pub fn analyze_network(network: &Network) -> Report {
    analyze_graph(&st_net::lint::to_lint_graph(network))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_core::Time;
    use st_net::NetworkBuilder;

    fn codes(report: &Report) -> Vec<Code> {
        report.diagnostics().iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_networks_report_nothing() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m = b.min2(ins[0], ins[1]);
        let report = analyze_network(&b.build([m]));
        assert!(report.diagnostics().is_empty(), "{}", report.render());
    }

    #[test]
    fn constant_gates_earn_sta201() {
        // min(const 3, const 5) provably fires at 3.
        let mut b = NetworkBuilder::new();
        let _in = b.input();
        let c3 = b.constant(Time::finite(3));
        let c5 = b.constant(Time::finite(5));
        let m = b.min2(c3, c5);
        let report = analyze_network(&b.build([m]));
        assert_eq!(codes(&report), vec![Code::ConstantGate]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(3));
        assert_eq!(report.diagnostics()[0].severity, Severity::Info);
    }

    #[test]
    fn saturated_gates_are_sta006_territory_not_sta201() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let inf = b.constant(Time::INFINITY);
        let m = b.max2(x, inf);
        let report = analyze_network(&b.build([m]));
        assert!(codes(&report).is_empty(), "{}", report.render());
    }

    #[test]
    fn congruent_gates_earn_sta202_once() {
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let m2 = b.min2(ins[1], ins[0]);
        let x = b.max2(m1, m2);
        let report = analyze_network(&b.build([x]));
        assert_eq!(codes(&report), vec![Code::SharedSubexpression]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(3));
        assert!(report.diagnostics()[0].message.contains("g2"));
    }

    #[test]
    fn congruent_gates_before_their_source_earn_sta202() {
        // inc(g2, 1) twice, with the input g2 defined after both readers.
        let mut g = LintGraph::new(1);
        let a = g.push(LintOp::Inc(1), vec![2]);
        let b = g.push(LintOp::Inc(1), vec![2]);
        g.push(LintOp::Input(0), vec![]);
        let m = g.push(LintOp::Max, vec![a, b]);
        g.set_outputs(vec![m]);
        let report = analyze_graph(&g);
        assert_eq!(codes(&report), vec![Code::SharedSubexpression]);
        assert_eq!(report.diagnostics()[0].location, Location::Gate(b));
    }

    #[test]
    fn delay_chains_earn_sta203_per_link() {
        let mut b = NetworkBuilder::new();
        let x = b.input();
        let d1 = b.inc(x, 1);
        let d2 = b.inc(d1, 2);
        let d3 = b.inc(d2, 3);
        let report = analyze_network(&b.build([d3]));
        assert_eq!(
            codes(&report),
            vec![Code::FusibleDelayChain, Code::FusibleDelayChain]
        );
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

    /// A random graph in definition order with a few nodes rewired the
    /// way only the unchecked IR allows: forward references, cycles,
    /// self-loops, dangling sources and wrong arities, empty ones included.
    fn malformed_graph(rng: &mut Rng, size: usize) -> LintGraph {
        let mut g = LintGraph::new(2);
        g.push(LintOp::Input(0), vec![]);
        g.push(LintOp::Input(1), vec![]);
        while g.len() < size {
            let n = g.len();
            let mut pick = || rng.below(n);
            let (op, sources) = match pick() % 5 {
                0 => (LintOp::Const(Time::finite(3)), vec![]),
                1 => (LintOp::Min, vec![pick(), pick(), pick()]),
                2 => (LintOp::Max, vec![pick(), pick()]),
                3 => (LintOp::Lt, vec![pick(), pick()]),
                _ => (LintOp::Inc(1), vec![pick()]),
            };
            g.push(op, sources);
        }
        let n = g.len();
        for _ in 0..1 + n / 8 {
            let node = 2 + rng.below(n - 2);
            let sources = match rng.below(4) {
                0 => vec![rng.below(n), rng.below(n)],
                1 => vec![node],
                2 => vec![rng.below(n), n + rng.below(3)],
                _ => (0..rng.below(4)).map(|_| rng.below(n)).collect(),
            };
            g.set_sources(node, sources);
        }
        g.set_outputs(vec![n - 1, rng.below(n + 2)]);
        g
    }

    #[test]
    fn malformed_graphs_get_a_report_not_a_panic() {
        // A two-gate cycle, min(g0, g7) on a two-node graph, and an
        // output naming g5 on a one-node graph.
        let mut cycle = LintGraph::new(1);
        let a = cycle.push(LintOp::Inc(1), vec![1]);
        let b = cycle.push(LintOp::Inc(1), vec![a]);
        cycle.set_outputs(vec![b]);
        let mut dangling = LintGraph::new(1);
        let x = dangling.push(LintOp::Input(0), vec![]);
        let m = dangling.push(LintOp::Min, vec![x, 7]);
        dangling.set_outputs(vec![m]);
        let mut past = LintGraph::new(1);
        past.push(LintOp::Input(0), vec![]);
        past.set_outputs(vec![5]);
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let random = (0..300).map(|case| malformed_graph(&mut rng, 3 + case % 40));
        for g in [cycle, dangling, past].into_iter().chain(random) {
            let report = analyze_graph(&g);
            for d in report.diagnostics() {
                assert!(
                    matches!(d.location, Location::Gate(id) if id < g.len()),
                    "{d:?} on {g:?}"
                );
            }
        }
    }

    #[test]
    fn dead_gates_report_no_opportunities() {
        // The duplicate min is unreachable: no STA202.
        let mut b = NetworkBuilder::new();
        let ins = b.inputs(2);
        let m1 = b.min2(ins[0], ins[1]);
        let _m2 = b.min2(ins[1], ins[0]);
        let report = analyze_network(&b.build([m1]));
        assert!(report.diagnostics().is_empty(), "{}", report.render());
    }
}
