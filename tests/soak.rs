//! Soak tests: large randomized cross-checks, ignored by default.
//!
//! Run with `cargo test --release --test soak -- --ignored` when you want
//! heavyweight assurance (a few minutes) rather than CI latency.

mod common;

use common::arbitrary::random_volley;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spacetime::grl::{compile_network, GrlSim};
use spacetime::net::sorting::sorting_network;
use spacetime::net::EventSim;
use spacetime::neuron::structural::srm0_network;
use spacetime::neuron::{ResponseFn, Srm0Neuron, Synapse};

#[test]
#[ignore = "soak: ~minutes in release"]
fn wide_sorters_match_std_sort() {
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[64usize, 128, 200] {
        let net = sorting_network(n);
        for _ in 0..50 {
            let inputs = random_volley(n, 64, &mut rng);
            let mut expected = inputs.clone();
            expected.sort();
            assert_eq!(net.eval(&inputs).unwrap(), expected);
        }
    }
}

#[test]
#[ignore = "soak: ~minutes in release"]
fn big_neuron_four_way_agreement() {
    let mut rng = StdRng::seed_from_u64(2);
    let neuron = Srm0Neuron::new(
        ResponseFn::fig11_biexponential(),
        (0..6).map(|_| Synapse::excitatory(1)).collect(),
        10,
    );
    let network = srm0_network(&neuron);
    let netlist = compile_network(&network);
    let event = EventSim::new();
    let cmos = GrlSim::new();
    for _ in 0..300 {
        let inputs = random_volley(6, 10, &mut rng);
        let behavioral = neuron.eval(&inputs);
        assert_eq!(network.eval(&inputs).unwrap()[0], behavioral);
        assert_eq!(event.run(&network, &inputs).unwrap().outputs[0], behavioral);
        assert_eq!(cmos.run(&netlist, &inputs).unwrap().outputs[0], behavioral);
    }
}

#[test]
#[ignore = "soak: ~minutes in release"]
fn large_race_logic_instances() {
    use spacetime::grl::shortest_path::{
        shortest_paths_race, shortest_paths_reference, WeightedDag,
    };
    for seed in 0..5 {
        let dag = WeightedDag::random(512, 6, 0.4, 8, seed);
        let (race, _) = shortest_paths_race(&dag, 0).unwrap();
        assert_eq!(race, shortest_paths_reference(&dag, 0), "seed {seed}");
    }
    use spacetime::grl::{edit_distance_race, edit_distance_reference};
    let mut rng = StdRng::seed_from_u64(9);
    let bases = [b'A', b'C', b'G', b'T'];
    let a: Vec<u8> = (0..64)
        .map(|_| bases[rng.random_range(0..4usize)])
        .collect();
    let b: Vec<u8> = (0..64)
        .map(|_| bases[rng.random_range(0..4usize)])
        .collect();
    assert_eq!(
        edit_distance_race(&a, &b).unwrap().0,
        edit_distance_reference(&a, &b)
    );
}
