//! E21 (extension) — race-logic sequence alignment: the original race
//! logic's flagship application, expressed through the § V generalization.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use st_bench::{banner, f3, print_table};
use st_grl::alignment::{
    alignment_dag, alignment_table_race, edit_distance_race, edit_distance_reference,
};
use st_grl::compile_network;

fn random_dna(len: usize, rng: &mut StdRng) -> Vec<u8> {
    let bases = [b'A', b'C', b'G', b'T'];
    (0..len)
        .map(|_| bases[rng.random_range(0..4usize)])
        .collect()
}

fn main() {
    banner(
        "E21 race-logic edit distance",
        "§ V generalization of Madhavan et al.'s alignment application",
        "the DP grid is a weighted DAG: a racing wavefront reaches the far \
         corner at exactly the edit distance",
    );

    // The classic example, with its full wavefront table.
    let (d, _) = edit_distance_race(b"kitten", b"sitting").expect("short strings");
    println!("\nkitten → sitting: distance {d} (expected 3)");
    println!("\nwavefront arrival times (= the DP table), race vs textbook:");
    let table = alignment_table_race(b"race", b"trace").expect("short strings");
    for row in &table {
        println!("  {row:?}");
    }
    println!("  (race → trace: distance {})", table[4][5]);

    // Scaling sweep: race == DP, circuit size, cycles ≈ answer.
    println!("\nscaling sweep on random DNA:");
    let mut rng = StdRng::seed_from_u64(2018);
    let mut rows = Vec::new();
    for &len in &[4usize, 8, 16, 32] {
        let a = random_dna(len, &mut rng);
        let b = random_dna(len, &mut rng);
        let reference = edit_distance_reference(&a, &b);
        let (race, report) = edit_distance_race(&a, &b).expect("short strings");
        assert_eq!(race, reference);
        let dag = alignment_dag(&a, &b);
        let netlist = compile_network(&dag.to_network(0));
        let (and, _, _, ff) = netlist.gate_census();
        let last_fall = report
            .fall_times
            .iter()
            .filter_map(|t| t.value())
            .max()
            .unwrap_or(0);
        rows.push(vec![
            len.to_string(),
            race.to_string(),
            last_fall.to_string(),
            dag.node_count().to_string(),
            and.to_string(),
            ff.to_string(),
            report.eval_transitions.to_string(),
            f3(report.activity_factor()),
        ]);
    }
    print_table(
        &[
            "|a| = |b|",
            "distance",
            "last fall",
            "grid nodes",
            "AND gates",
            "flip-flops",
            "transitions",
            "activity",
        ],
        &rows,
    );

    println!(
        "\nshape check: race-logic distances equal the textbook DP on every \
         instance; the answer wire falls at cycle = distance, and the \
         whole wavefront drains within ≈ |a|+|b| cycles regardless of \
         grid area, while the sequential DP does O(n·m) work — the \
         asymmetry that motivated race logic."
    );
}
