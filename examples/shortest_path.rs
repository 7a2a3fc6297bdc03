//! Race-logic shortest paths: "the time it takes to compute a value IS
//! the value" (§ V, after Madhavan et al.).
//!
//! We build a weighted DAG, compile it into a CMOS race-logic circuit
//! (edges = shift registers, nodes = AND joins), inject a single falling
//! edge at the source, and read shortest-path distances off the wires'
//! fall times — then check against classical relaxation.
//!
//! Run with: `cargo run --example shortest_path`

use spacetime::grl::compile_network;
use spacetime::grl::shortest_path::{shortest_paths_race, shortest_paths_reference, WeightedDag};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small road network (node 0 = origin).
    let dag = WeightedDag::new(
        6,
        vec![
            (0, 1, 2),
            (0, 2, 4),
            (1, 2, 1),
            (1, 3, 7),
            (2, 3, 3),
            (3, 4, 1),
            (3, 5, 6),
            (4, 5, 2),
        ],
    )?;
    println!("DAG: 6 nodes, {} weighted edges", dag.edges().len());

    let network = dag.to_network(0);
    let netlist = compile_network(&network);
    let (and, or, lt, ff) = netlist.gate_census();
    println!("compiled race-logic circuit: {and} AND, {or} OR, {lt} latches, {ff} flip-flops\n");

    let (race, report) = shortest_paths_race(&dag, 0)?;
    let reference = shortest_paths_reference(&dag, 0);
    println!("node  race-logic  classical");
    for (i, (r, c)) in race.iter().zip(&reference).enumerate() {
        println!("  {i}        {r:>4}       {c:>4}");
    }
    assert_eq!(race, reference);

    println!(
        "\nthe circuit settled in {} cycles using {} wire transitions;",
        report.cycles, report.eval_transitions
    );
    println!(
        "the farthest node's distance ({}) is literally the time its wire fell.",
        race.iter().filter_map(|d| d.value()).max().unwrap()
    );

    // Scale it up to show the crossover story.
    println!("\nscaling (random DAGs): race == classical at every size");
    for &n in &[16usize, 64, 256] {
        let dag = WeightedDag::random(n, 4, 0.5, 6, n as u64);
        let (race, report) = shortest_paths_race(&dag, 0)?;
        assert_eq!(race, shortest_paths_reference(&dag, 0));
        println!(
            "  n = {n:3}: max distance {:?}, {} cycles, {} transitions",
            race.iter().filter_map(|d| d.value()).max().unwrap_or(0),
            report.cycles,
            report.eval_transitions
        );
    }
    Ok(())
}
