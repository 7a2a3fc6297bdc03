//! # st-net — feedforward space-time computing networks
//!
//! Structural networks of space-time primitives (`min`, `max`, `lt`,
//! `inc`), per § III of Smith's "Space-Time Algebra" (ISCA 2018), together
//! with every network-level construction the paper gives:
//!
//! * [`graph`] — the gate graph, its builder, and the functional evaluator;
//! * [`event`] — the discrete-event evaluator with activity accounting;
//! * [`analysis`] — gate census, logic depth, critical delay, DOT export;
//! * [`synth`] — Lemma 2 (`max` from `min`/`lt`) and Theorem 1 (minterm
//!   canonical form) synthesis from function tables;
//! * [`sorting`] — Batcher bitonic sorters over `min`/`max` comparators;
//! * [`wta`] — winner-take-all lateral inhibition (1-, τ-, and k-WTA);
//! * [`microweight`] — the configuration mechanism for programmable
//!   (synapse-like) networks;
//! * [`compile`] — compilation between [`st_core::Expr`] and networks;
//! * [`text`] — a human-editable netlist file format.
//!
//! ## Quick start
//!
//! ```
//! use st_core::{FunctionTable, Time};
//! use st_net::synth::{synthesize, SynthesisOptions};
//!
//! // Define a bounded space-time function by a normalized table…
//! let t = Time::finite;
//! let table = FunctionTable::from_rows(2, vec![
//!     (vec![t(0), t(1)], t(2)),
//!     (vec![t(1), t(0)], t(3)),
//! ])?;
//! // …synthesize it into a network of min/lt/inc gates (Theorem 1)…
//! let net = synthesize(&table, SynthesisOptions::pure());
//! // …and evaluate: the network realizes the table, shifts included.
//! assert_eq!(net.eval(&[t(5), t(6)])?, vec![t(7)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
pub mod analysis;
pub mod compile;
pub mod error;
pub mod event;
pub mod graph;
pub mod lint;
pub mod microweight;
pub mod sorting;
pub mod synth;
pub mod text;
pub mod wta;

pub use analysis::{gate_counts, logic_depth, GateCounts};
pub use error::NetError;
pub use event::{CompiledNetwork, EventReport, EventSim};
pub use graph::{GateId, GateKind, Network, NetworkBuilder, NetworkFunction};
pub use microweight::{micro_weight_into, MicroWeight, WeightedFanout};
pub use synth::{synthesize, SynthesisOptions};
pub use text::{network_to_text, parse_network, ParseNetworkError};
