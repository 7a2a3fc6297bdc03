//! Race-logic shortest paths in weighted DAGs (§ V, after Madhavan et al.).
//!
//! The original race-logic application: inject a single falling edge at
//! the source node; each graph edge of weight `w` is a `w`-stage shift
//! register; each node ORs its incoming edges. The time at which a node's
//! wire falls *is* the length of the shortest path from the source — the
//! computation takes exactly as long as its answer, the purest form of the
//! paper's "the time it takes to compute a value is the value".
//!
//! [`shortest_paths_race`] runs the computation on the gate-level GRL
//! simulator; [`shortest_paths_reference`] is the classical topological
//! relaxation baseline the experiments compare against.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_core::Time;
use st_net::{Network, NetworkBuilder};

use crate::compile::{try_compile_network, GrlCompileError};
use crate::sim::{GrlReport, GrlSim};

/// A directed acyclic graph with nonnegative integer edge weights, in
/// topological order (every edge goes from a lower to a higher node id —
/// enforced at construction, which is what makes the graph a DAG).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedDag {
    node_count: usize,
    edges: Vec<(usize, usize, u64)>,
}

impl WeightedDag {
    /// Creates a DAG from `(from, to, weight)` edges.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending edge if an endpoint is out
    /// of range or an edge does not go forward in the node order.
    pub fn new(node_count: usize, edges: Vec<(usize, usize, u64)>) -> Result<WeightedDag, String> {
        for &(u, v, w) in &edges {
            if u >= node_count || v >= node_count {
                return Err(format!("edge ({u}, {v}, {w}) references a missing node"));
            }
            if u >= v {
                return Err(format!(
                    "edge ({u}, {v}, {w}) does not go forward in topological order"
                ));
            }
        }
        Ok(WeightedDag { node_count, edges })
    }

    /// The number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The edges, as given.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize, u64)] {
        &self.edges
    }

    /// A random layered DAG: `nodes` nodes, each forward edge `(u, v)`
    /// with `v − u ≤ span` present with probability `edge_prob`, weights
    /// uniform in `1..=max_weight`. Deterministic per seed.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `span == 0`, `max_weight == 0`, or
    /// `edge_prob ∉ [0, 1]`.
    #[must_use]
    pub fn random(
        nodes: usize,
        span: usize,
        edge_prob: f64,
        max_weight: u64,
        seed: u64,
    ) -> WeightedDag {
        assert!(
            nodes > 0 && span > 0 && max_weight > 0,
            "degenerate parameters"
        );
        assert!(
            (0.0..=1.0).contains(&edge_prob),
            "edge_prob must be a probability"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..nodes {
            for v in (u + 1)..nodes.min(u + 1 + span) {
                if rng.random_bool(edge_prob) {
                    edges.push((u, v, rng.random_range(1..=max_weight)));
                }
            }
        }
        WeightedDag {
            node_count: nodes,
            edges,
        }
    }

    /// Builds the race-logic network for this DAG: one input (the source
    /// pulse), one output per node carrying that node's distance. Each
    /// edge is an `inc` (shift register after GRL compilation); each node
    /// is an n-ary `min` (OR).
    #[must_use]
    pub fn to_network(&self, source: usize) -> Network {
        assert!(source < self.node_count, "source node out of range");
        let mut b = NetworkBuilder::new();
        let pulse = b.input();
        let never = b.constant(Time::INFINITY);
        // Outgoing edges per node, in the order given.
        let mut outgoing: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.node_count];
        for &(u, to, w) in &self.edges {
            outgoing[u].push((to, w));
        }
        // Incoming delayed wires per node.
        let mut incoming: Vec<Vec<st_net::GateId>> = vec![Vec::new(); self.node_count];
        incoming[source].push(pulse);
        let mut node_wire: Vec<Option<st_net::GateId>> = vec![None; self.node_count];
        for v in 0..self.node_count {
            // Edges are forward-only, so all predecessors are resolved.
            let wire = if incoming[v].is_empty() {
                never
            } else {
                b.min(incoming[v].clone()).expect("non-empty")
            };
            node_wire[v] = Some(wire);
            for &(to, w) in &outgoing[v] {
                let delayed = b.inc(wire, w);
                incoming[to].push(delayed);
            }
        }
        b.build(node_wire.into_iter().map(|w| w.expect("all nodes visited")))
    }
}

/// Shortest-path distances from `source` computed by simulating the
/// compiled race-logic circuit; `∞` for unreachable nodes. Also returns
/// the simulation report (transition counts, cycles).
///
/// # Errors
///
/// [`GrlCompileError`] when the edge weights sum past
/// [`crate::MAX_DELAY_STAGES`] flip-flop stages.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn shortest_paths_race(
    dag: &WeightedDag,
    source: usize,
) -> Result<(Vec<Time>, GrlReport), GrlCompileError> {
    let network = dag.to_network(source);
    let netlist = try_compile_network(&network)?;
    let report = GrlSim::new()
        .run(&netlist, &[Time::ZERO])
        .expect("arity 1 by construction");
    Ok((report.outputs.clone(), report))
}

/// Classical baseline: single-source shortest paths by relaxation in
/// topological order.
///
/// # Panics
///
/// Panics if `source` is out of range.
#[must_use]
pub fn shortest_paths_reference(dag: &WeightedDag, source: usize) -> Vec<Time> {
    assert!(source < dag.node_count(), "source node out of range");
    let mut dist = vec![Time::INFINITY; dag.node_count()];
    dist[source] = Time::ZERO;
    // Edges go forward, so one pass over nodes in order relaxes fully.
    for v in 0..dag.node_count() {
        let d = dist[v];
        if d.is_infinite() {
            continue;
        }
        for &(u, to, w) in dag.edges() {
            if u == v {
                let cand = d + w;
                if cand < dist[to] {
                    dist[to] = cand;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    const INF: Time = Time::INFINITY;

    fn diamond() -> WeightedDag {
        // 0 → 1 (2), 0 → 2 (5), 1 → 3 (2), 2 → 3 (1), 1 → 2 (1)
        WeightedDag::new(
            4,
            vec![(0, 1, 2), (0, 2, 5), (1, 3, 2), (2, 3, 1), (1, 2, 1)],
        )
        .unwrap()
    }

    #[test]
    fn race_logic_matches_reference_on_diamond() {
        let dag = diamond();
        let (race, _) = shortest_paths_race(&dag, 0).unwrap();
        let reference = shortest_paths_reference(&dag, 0);
        assert_eq!(race, reference);
        assert_eq!(reference, vec![t(0), t(2), t(3), t(4)]);
    }

    #[test]
    fn unreachable_nodes_never_fall() {
        let dag = WeightedDag::new(3, vec![(1, 2, 4)]).unwrap();
        let (race, _) = shortest_paths_race(&dag, 0).unwrap();
        assert_eq!(race, vec![t(0), INF, INF]);
        // From a later source, earlier nodes are unreachable.
        let (race, _) = shortest_paths_race(&dag, 1).unwrap();
        assert_eq!(race, vec![INF, t(0), t(4)]);
    }

    #[test]
    fn race_logic_matches_reference_on_random_dags() {
        for seed in 0..10 {
            let dag = WeightedDag::random(12, 4, 0.4, 5, seed);
            let (race, _) = shortest_paths_race(&dag, 0).unwrap();
            let reference = shortest_paths_reference(&dag, 0);
            assert_eq!(race, reference, "seed {seed}, dag {dag:?}");
        }
    }

    #[test]
    fn computation_time_is_the_answer() {
        // The circuit settles within (longest finite distance) cycles —
        // "the time it takes to compute a value is the value".
        let dag = diamond();
        let (race, report) = shortest_paths_race(&dag, 0).unwrap();
        let longest = race.iter().filter_map(|d| d.value()).max().unwrap();
        // fall times of node wires are exactly the distances.
        assert!(
            report
                .fall_times
                .iter()
                .filter_map(|f| f.value())
                .max()
                .unwrap()
                >= longest
        );
        assert_eq!(longest, 4);
    }

    #[test]
    fn transition_count_scales_with_reached_subgraph() {
        let dag = WeightedDag::new(4, vec![(0, 1, 1), (2, 3, 1)]).unwrap();
        let (race, report) = shortest_paths_race(&dag, 2).unwrap();
        assert_eq!(race, vec![INF, INF, t(0), t(1)]);
        // Only the source pulse and the 2→3 edge's flip-flop fall (unary
        // node joins collapse into wires); the 0/1 component stays silent.
        assert_eq!(report.eval_transitions, 2);
    }

    #[test]
    fn validation_rejects_malformed_graphs() {
        assert!(WeightedDag::new(2, vec![(0, 5, 1)]).is_err());
        assert!(WeightedDag::new(2, vec![(1, 0, 1)]).is_err());
        assert!(WeightedDag::new(2, vec![(1, 1, 1)]).is_err());
        assert!(WeightedDag::new(3, vec![(0, 1, 0)]).is_ok()); // zero weight fine
    }

    #[test]
    fn zero_weight_edges_work() {
        let dag = WeightedDag::new(3, vec![(0, 1, 0), (1, 2, 3)]).unwrap();
        let (race, _) = shortest_paths_race(&dag, 0).unwrap();
        assert_eq!(race, vec![t(0), t(0), t(3)]);
    }

    #[test]
    fn weights_past_the_stage_limit_are_an_error() {
        let dag = WeightedDag::new(3, vec![(0, 1, 1), (1, 2, u64::MAX)]).unwrap();
        let e = shortest_paths_race(&dag, 0).unwrap_err();
        assert!(e.to_string().contains("delays too long"), "{e}");
    }

    #[test]
    fn random_dag_is_deterministic_and_respects_span() {
        let a = WeightedDag::random(10, 3, 0.5, 4, 7);
        let b = WeightedDag::random(10, 3, 0.5, 4, 7);
        assert_eq!(a, b);
        assert!(a
            .edges()
            .iter()
            .all(|&(u, v, w)| v - u <= 3 && (1..=4).contains(&w)));
        assert_eq!(a.node_count(), 10);
    }
}
