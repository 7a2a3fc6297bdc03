//! # st-grl — generalized race logic
//!
//! Implements § V of Smith's "Space-Time Algebra" (ISCA 2018): the
//! space-time algebra realized with off-the-shelf CMOS digital logic,
//! where temporal events are `1→0` level transitions instead of spikes.
//! AND computes `min`, OR computes `max`, a reset latch computes `lt`
//! (Fig. 16), and clocked shift registers realize unit delays.
//!
//! | Module | Contents |
//! |---|---|
//! | [`netlist`] | gate-level netlists and their builder |
//! | [`sim`] | cycle-accurate simulation with transition counting |
//! | [`compile`] | algebraic `st-net` networks → CMOS netlists |
//! | [`shortest_path`] | the Madhavan-style race-logic DAG application |
//! | [`alignment`] | race-logic sequence alignment (edit distance) |
//! | [`energy`] | switching-activity aggregation (§ VI conjecture 1) |
//! | [`vcd`] | IEEE-1364 VCD waveform export for standard viewers |
//! | [`physical`] | gate-latency ("direct delay") GRL and its error analysis |
//!
//! The headline property — any TNN designed in the neural domain maps
//! gate-for-gate onto CMOS with cycle-exact behaviour — is what
//! [`compile_network`] + [`GrlSim`] demonstrate, and what the test and
//! property suites verify against the algebraic evaluators.
//!
//! ## Quick start
//!
//! ```
//! use st_core::Time;
//! use st_grl::shortest_path::{shortest_paths_race, shortest_paths_reference, WeightedDag};
//!
//! let dag = WeightedDag::new(4, vec![(0, 1, 2), (0, 2, 5), (1, 3, 2), (2, 3, 1)])?;
//! let (race, report) = shortest_paths_race(&dag, 0)?;
//! assert_eq!(race, shortest_paths_reference(&dag, 0));
//! assert_eq!(race[3], Time::finite(4));
//! // Every wire switched at most once (§ VI minimal-transition property).
//! assert!(report.eval_transitions <= report.fall_times.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
pub mod alignment;
pub mod compile;
pub mod energy;
pub mod lint;
pub mod netlist;
pub mod physical;
pub mod shortest_path;
pub mod sim;
pub mod vcd;

pub use alignment::{edit_distance_race, edit_distance_reference};
pub use compile::{
    compile_network, try_compile_network, GrlCompileError, GrlCompileReason, MAX_DELAY_STAGES,
};
pub use energy::{
    binary_baseline_transitions, estimate_energy, measure_energy, EnergyBreakdown, EnergyModel,
    EnergyStats,
};
pub use netlist::{GrlBuilder, GrlGate, GrlNetlist, WireId};
pub use physical::{divergence_rate, run_physical, PhysicalReport, PhysicalTiming};
pub use shortest_path::WeightedDag;
pub use sim::{GrlReport, GrlScratch, GrlSim};
pub use vcd::{to_vcd, try_to_vcd};
