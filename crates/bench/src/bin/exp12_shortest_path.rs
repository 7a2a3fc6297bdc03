//! E12 — § V (Madhavan et al. application): race-logic shortest paths in
//! weighted DAGs, vs the classical relaxation baseline.

use st_bench::{banner, f3, print_table};
use st_grl::compile_network;
use st_grl::shortest_path::{shortest_paths_race, shortest_paths_reference, WeightedDag};
use st_net::gate_counts;

fn main() {
    banner(
        "E12 race-logic shortest path",
        "§ V (the Madhavan et al. application)",
        "inject one edge at the source; node wires fall at exactly their \
         shortest-path distance — the computation time IS the answer",
    );

    println!("\nscaling sweep (random layered DAGs, span 4, p=0.5, weights 1..=6):");
    let mut rows = Vec::new();
    for &n in &[8usize, 16, 32, 64, 128] {
        let dag = WeightedDag::random(n, 4, 0.5, 6, n as u64);
        let (race, report) = shortest_paths_race(&dag, 0).expect("small weights");
        let reference = shortest_paths_reference(&dag, 0);
        assert_eq!(race, reference, "n={n}");
        let network = dag.to_network(0);
        let netlist = compile_network(&network);
        let (_, _, _, ff) = netlist.gate_census();
        let reached = race.iter().filter(|d| d.is_finite()).count();
        let longest = race.iter().filter_map(|d| d.value()).max().unwrap_or(0);
        rows.push(vec![
            n.to_string(),
            dag.edges().len().to_string(),
            reached.to_string(),
            longest.to_string(),
            report.cycles.to_string(),
            gate_counts(&network).operators().to_string(),
            ff.to_string(),
            report.eval_transitions.to_string(),
            f3(report.activity_factor()),
        ]);
    }
    print_table(
        &[
            "nodes",
            "edges",
            "reached",
            "max dist",
            "cycles",
            "alg ops",
            "flip-flops",
            "transitions",
            "activity",
        ],
        &rows,
    );

    println!(
        "\nshape check: race == classical on every instance; settle time \
         tracks the maximum distance (not graph size); flip-flop count = \
         total edge weight (unary delay encoding); only reached wires \
         switch — unreachable subgraphs cost zero transitions."
    );
}
