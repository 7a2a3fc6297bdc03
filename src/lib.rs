//! # spacetime — the space-time algebra workspace, under one roof
//!
//! Umbrella crate for the reproduction of J. E. Smith, *"Space-Time
//! Algebra: A Model for Neocortical Computation"* (ISCA 2018). It
//! re-exports the five library crates so examples, integration tests, and
//! downstream users can reach everything through one dependency:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `st-core` | the algebra: times, primitives, tables, volleys |
//! | [`net`] | `st-net` | gate networks, synthesis, sorters, WTA, optimizer |
//! | [`neuron`] | `st-neuron` | SRM0 neurons, responses, RBF units |
//! | [`tnn`] | `st-tnn` | columns, STDP, tempotron, workloads, metrics |
//! | [`grl`] | `st-grl` | race logic: CMOS netlists, simulation, energy |
//! | [`kernel`] | `st-kernel` | flattened volley kernels on 8- and 256-lane byte blocks |
//! | [`lint`] | `st-lint` | static diagnostics over all representations |
//! | [`verify`] | `st-verify` | boundedness certificates + bounded equivalence |
//! | [`opt`] | `st-opt` | dataflow analyses + verified optimization passes |
//! | [`obs`] | `st-obs` | probes, event traces, rasters, run statistics |
//! | [`insight`] | `st-insight` | provenance queries, run diffing, volley analytics |
//! | [`metrics`] | `st-metrics` | counters, histograms, Prometheus, bench reports |
//! | [`trace`] | `st-trace` | hierarchical spans, flamegraphs, Chrome timelines |
//! | [`batch`] | (this crate) | compile-once / evaluate-many parallel engine |
//!
//! The package also ships the `spacetime` CLI (`src/main.rs`); run
//! `spacetime help` for its subcommands.
//!
//! ## Example
//!
//! ```
//! use spacetime::core::{FunctionTable, Time};
//! use spacetime::grl::{compile_network, GrlSim};
//! use spacetime::net::synth::{synthesize, SynthesisOptions};
//!
//! // The paper's Fig. 7 table → Theorem 1 network → CMOS race logic.
//! let table = FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n")?;
//! let network = synthesize(&table, SynthesisOptions::pure());
//! let netlist = compile_network(&network);
//! let t = Time::finite;
//! let report = GrlSim::new().run(&netlist, &[t(3), t(4), t(5)])?;
//! assert_eq!(report.outputs[0], t(6)); // the paper's worked example
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod batch;
pub mod bench;

pub use st_core as core;
pub use st_grl as grl;
pub use st_insight as insight;
pub use st_kernel as kernel;
pub use st_lint as lint;
pub use st_metrics as metrics;
pub use st_net as net;
pub use st_neuron as neuron;
pub use st_obs as obs;
pub use st_opt as opt;
pub use st_tnn as tnn;
pub use st_trace as trace;
pub use st_verify as verify;
