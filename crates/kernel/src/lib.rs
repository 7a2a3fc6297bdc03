//! # st-kernel — flattened SWAR volley kernels
//!
//! The raw-speed engine for the space-time algebra: a gate network (or a
//! race-logic netlist) is compiled **once** into a flattened
//! [`Plan`] — topological order precomputed, one step per gate with its
//! operands resolved, only merges of three or more sources in a fan-in
//! arena — and volleys are then
//! evaluated **up to [`MAX_PACKET`] (256) at a time**, each input line's
//! spike times packed one per u8 lane (see [`st_core::lane`]): eight to a
//! `u64` word for the batch engine's packets of up to eight, one per byte
//! of a [`ByteBlock`] past that. The four primitives `min`/`max`/`lt`/`inc`
//! become a handful of branch-free SWAR instructions per word, or one
//! plain byte op per lane that the compiler vectorizes, and an
//! ∞-dominance early-out skips any gate whose fan-in is all-silent
//! across the whole packet.
//!
//! Correctness rides on two facts, both pinned by exhaustive and
//! differential tests:
//!
//! * the lane encoding is an order isomorphism, so unsigned byte ops
//!   equal the algebra's ops on encoded values;
//! * a plan-level bound (computed by a one-pass dataflow analysis over
//!   the delays and constants of the gates some output reads,
//!   [`Plan::lane_input_limit`]) tells exactly which batches can be
//!   lane-packed without an output saturating; everything
//!   else takes the scalar path ([`Plan::eval`]), which is bit-identical
//!   to [`st_net::Network::eval`] at full `u64` precision.
//!
//! ```
//! use st_core::{Time, Volley};
//! use st_kernel::{Plan, Scratch};
//! use st_net::sorting::sorting_network;
//!
//! let plan = Plan::from_network(&sorting_network(4));
//! let t = Time::finite;
//! let volley = Volley::new(vec![t(3), Time::INFINITY, t(0), t(2)]);
//!
//! // Scalar path: one volley at full u64 precision.
//! assert_eq!(
//!     plan.eval(volley.times())?,
//!     vec![t(0), t(2), t(3), Time::INFINITY]
//! );
//!
//! // Lane path: up to 256 volleys per packet.
//! let batch = vec![volley.clone(), volley];
//! let mut out = vec![Volley::new(Vec::new()); 2];
//! let mut scratch = Scratch::default();
//! assert!(plan.lane_capable(&batch));
//! plan.eval_packet(&mut scratch, &batch, &mut out);
//! assert_eq!(out[0].times(), &[t(0), t(2), t(3), Time::INFINITY]);
//! # Ok::<(), st_core::CoreError>(())
//! ```

// An engine must not crash on the networks it runs: library code
// reports through `Result`, and the documented panic contracts (the
// argument shapes of the packet entry points) are `assert!`s (tests
// are exempt via clippy.toml).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod graphopt;
pub mod packet;
pub mod plan;

pub use packet::{ByteBlock, PacketStats, Scratch, MAX_PACKET};
pub use plan::Plan;
