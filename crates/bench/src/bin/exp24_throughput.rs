//! E24 (extension) — the § III.A exponential message-time cost, measured
//! at the hardware level: cycles per computation (evaluate + reset) vs
//! temporal resolution, and the throughput it implies.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::kernel::Plan;
use st_bench::{banner, f3, print_table};
use st_core::{FunctionTable, Time, Volley};
use st_grl::{compile_network, GrlSim};
use st_net::synth::{synthesize, SynthesisOptions};
use st_net::EventSim;

/// A 2-input "saturating add-ish" table over a window: y = min(x0, x1) + w
/// for every normalized pattern in the window — forcing the circuit to
/// span the full temporal range.
fn window_table(window: u64) -> FunctionTable {
    let f = st_core::FnSpaceTime::new(2, move |x: &[Time]| {
        let m = x[0].meet(x[1]);
        if m.is_finite() {
            m + window
        } else {
            Time::INFINITY
        }
    });
    FunctionTable::from_fn(&f, window).expect("causal and invariant")
}

fn main() {
    banner(
        "E24 hardware throughput vs temporal resolution",
        "§ III.A (\"the total time to send a message grows exponentially\")",
        "a GRL computation over n-bit times needs Θ(2^n) cycles to evaluate \
         and reset — resolution is paid for in wall-clock, which is why the \
         paper operates at 3–4 bits",
    );

    println!("\ncycles per computation vs resolution (window-spanning function):");
    let mut rows = Vec::new();
    for &bits in &[1u32, 2, 3, 4, 5] {
        let window = (1u64 << bits) - 1;
        let table = window_table(window);
        let network = synthesize(&table, SynthesisOptions::default());
        let netlist = compile_network(&network);
        let sim = GrlSim::new();
        // Worst-case input: latest spikes in the window.
        let inputs = [Time::finite(window), Time::finite(window)];
        let report = sim.run(&netlist, &inputs).unwrap();
        let output = report.outputs[0];
        // Physically meaningful settle time: the last transition anywhere.
        let last_fall = report
            .fall_times
            .iter()
            .filter_map(|t| t.value())
            .max()
            .unwrap_or(0);
        // One computation = evaluation until quiescence + an equal-length
        // reset phase (every fallen wire raised, flip-flops refilled).
        let per_computation = 2 * last_fall.max(1);
        rows.push(vec![
            bits.to_string(),
            (window + 1).to_string(),
            table.len().to_string(),
            netlist.wire_count().to_string(),
            output.to_string(),
            last_fall.to_string(),
            per_computation.to_string(),
            f3(1.0 / per_computation as f64),
        ]);
    }
    print_table(
        &[
            "bits",
            "time steps",
            "table rows",
            "CMOS wires",
            "output at",
            "last transition",
            "cycles/computation",
            "throughput",
        ],
        &rows,
    );

    println!(
        "\nshape check: cycles per computation roughly double per added \
         bit (the 2^n message duration), and the circuit itself also grows \
         (more rows, wider sorts) — both cost curves the paper's \
         low-resolution operating point sidesteps."
    );

    software_throughput();
}

/// Volleys/second of a timed closure that processes `volleys` inputs.
fn rate(volleys: usize, f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    volleys as f64 / started.elapsed().as_secs_f64()
}

fn thousands(x: f64) -> String {
    if x >= 10e3 {
        format!("{:.0}k", x / 1e3)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Second half of the experiment: the *simulator's* throughput, sequential
/// per-volley loops (re-preparing per volley, as the naive driver does) vs
/// the compile-once batched engine at 1/2/4 worker threads.
fn software_throughput() {
    let window = 7u64;
    // A 3-input window-spanning function: enough rows (~hundreds) that the
    // per-volley row scan is real work worth indexing away.
    let f = st_core::FnSpaceTime::new(3, move |x: &[Time]| {
        let m = x[0].meet(x[1]).meet(x[2]);
        if m.is_finite() {
            m + window
        } else {
            Time::INFINITY
        }
    });
    let table = FunctionTable::from_fn(&f, window).expect("causal and invariant");
    let network = synthesize(&table, SynthesisOptions::default());
    let netlist = compile_network(&network);

    let mut rng = StdRng::seed_from_u64(24);
    let volleys: Vec<Volley> = (0..4096)
        .map(|_| {
            Volley::new(
                (0..3)
                    .map(|_| {
                        if rng.random_bool(0.1) {
                            Time::INFINITY
                        } else {
                            Time::finite(rng.random_range(0..=window))
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    // The cycle-accurate GRL simulator is orders of magnitude slower per
    // volley; a slice keeps its rows comparable in wall-clock.
    let grl_volleys = &volleys[..32];

    println!(
        "\nsoftware throughput, {} random volleys (3-input window-{window} \
         table, {} rows):",
        volleys.len(),
        table.len()
    );
    let compiled_table = table.compile();
    let compiled_net = EventSim::new().compile(&network);
    let plan = Plan::from_network(&network);
    let mut rows = Vec::new();
    type Engine<'a> = (
        &'a str,
        &'a [Volley],
        Box<dyn Fn(&[Volley]) + 'a>,
        Box<dyn Fn(&[Volley]) + 'a>,
        CompiledArtifact,
    );
    // Per engine: the *naive* sequential loop (re-preparing per volley, as
    // the pre-batch drivers did) and the *hoisted* sequential loop (compile
    // once, evaluate many on one thread). Speedup is quoted against the
    // hoisted baseline so it reflects evaluation only, not re-compilation
    // the naive driver happened to pay per volley.
    let engines: Vec<Engine> = vec![
        (
            "table",
            &volleys,
            Box::new(|vs: &[Volley]| {
                // Naive: linear row scan per volley.
                for v in vs {
                    std::hint::black_box(table.eval(v.times()).unwrap());
                }
            }),
            Box::new(|vs: &[Volley]| {
                for v in vs {
                    std::hint::black_box(compiled_table.eval(v.times()).unwrap());
                }
            }),
            CompiledArtifact::from_table(&table),
        ),
        (
            "net",
            &volleys,
            Box::new(|vs: &[Volley]| {
                // Naive: EventSim::run re-extracts the topology per call.
                let sim = EventSim::new();
                for v in vs {
                    std::hint::black_box(sim.run(&network, v.times()).unwrap());
                }
            }),
            Box::new(|vs: &[Volley]| {
                for v in vs {
                    std::hint::black_box(compiled_net.run(v.times()).unwrap());
                }
            }),
            CompiledArtifact::from_network(&network),
        ),
        (
            "grl",
            grl_volleys,
            Box::new(|vs: &[Volley]| {
                // Naive: lower the network to a netlist per volley.
                let sim = GrlSim::new();
                for v in vs {
                    let nl = compile_network(&network);
                    std::hint::black_box(sim.run(&nl, v.times()).unwrap());
                }
            }),
            Box::new(|vs: &[Volley]| {
                let sim = GrlSim::new();
                for v in vs {
                    std::hint::black_box(sim.run(&netlist, v.times()).unwrap());
                }
            }),
            CompiledArtifact::Grl(netlist.clone()),
        ),
        (
            "kernel",
            &volleys,
            Box::new(|vs: &[Volley]| {
                // Naive: re-flatten the network into a plan per volley.
                for v in vs {
                    let p = Plan::from_network(&network);
                    std::hint::black_box(p.eval(v.times()).unwrap());
                }
            }),
            Box::new(|vs: &[Volley]| {
                // Hoisted: the flattened plan, still one volley at a time —
                // the batch columns add the 8-lane SWAR packets on top.
                for v in vs {
                    std::hint::black_box(plan.eval(v.times()).unwrap());
                }
            }),
            CompiledArtifact::from_kernel_network(&network),
        ),
    ];
    for (name, vs, naive, hoisted, artifact) in &engines {
        let naive_rate = rate(vs.len(), || naive(vs));
        let seq = rate(vs.len(), || hoisted(vs));
        let batched: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let evaluator = BatchEvaluator::with_threads(threads);
                rate(vs.len(), || {
                    std::hint::black_box(evaluator.eval(artifact, vs).unwrap());
                })
            })
            .collect();
        let best = batched.iter().copied().fold(f64::MIN, f64::max);
        rows.push(vec![
            (*name).to_string(),
            thousands(naive_rate),
            thousands(seq),
            thousands(batched[0]),
            thousands(batched[1]),
            thousands(batched[2]),
            format!("{:.1}×", best / seq),
        ]);
    }
    print_table(
        &[
            "engine",
            "naive seq (volleys/s)",
            "hoisted seq",
            "batch ×1",
            "batch ×2",
            "batch ×4",
            "best speedup",
        ],
        &rows,
    );

    println!(
        "\nshape check: hoisting compilation out of the per-volley loop is \
         most of the single-thread win (compare naive vs hoisted); the \
         quoted speedup is batch-best over the *hoisted* sequential loop, \
         so it reflects parallel evaluation only. Extra workers stack \
         roughly linearly on multi-core hosts. The kernel row's batch \
         columns additionally pack 8 volleys per 64-bit word (SWAR), so \
         its speedup exceeds the worker count."
    );
}
