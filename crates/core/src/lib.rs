//! # st-core — the space-time algebra
//!
//! This crate implements the *space-time (s-t) algebra* of
//! J. E. Smith, "Space-Time Algebra: A Model for Neocortical Computation"
//! (ISCA 2018): a model of feedforward computation in which values are the
//! *times of events* — spikes between neurons, or logic-level transitions
//! in race logic — drawn from the domain `N0^∞` (discretized time plus `∞`
//! for "no event").
//!
//! The algebra is the bounded distributive lattice
//! `S = (N0^∞, ∧, ∨, 0, ∞)` together with the primitive functions
//! `min` (`∧`), `max` (`∨`), `lt` (`≺`) and `inc` (`+c`). Functions built
//! from these automatically satisfy the two physical side conditions the
//! paper demands of anything computing with the flow of time:
//!
//! * **causality** — an output event cannot depend on later input events,
//!   and never precedes the earliest input;
//! * **invariance** — shifting all inputs later by a constant shifts the
//!   output by the same constant.
//!
//! ## What lives where
//!
//! | Module | Contents |
//! |---|---|
//! | [`time`] | the domain: [`Time`] with `∞`, order, and arithmetic |
//! | [`lane`] | the u8 lane encoding behind packed batch evaluation |
//! | [`ops`] | the primitives and derived operations as free functions |
//! | [`lattice`] | executable statements of the lattice laws |
//! | [`function`] | the [`SpaceTimeFunction`] trait and property checkers |
//! | [`hash`] | a small multiplicative hasher for integer-keyed maps |
//! | [`json`] | the one JSON reader and string escaper, and the `Time` ↔ ticks-or-`null` codec |
//! | [`expr`] | an AST over the primitives, with Lemma 2 `max`-elimination |
//! | [`mod@simplify`] | lattice-law rewriting of expressions |
//! | [`parse`] | s-expression parsing for [`Expr`] |
//! | [`table`] | normalized function tables (bounded s-t functions) |
//! | [`volley`] | spike volleys and communication-efficiency accounting |
//!
//! ## Quick start
//!
//! ```
//! use st_core::{Expr, FunctionTable, SpaceTimeFunction, Time, Volley};
//!
//! // Values are event times; ∞ is "no event".
//! let early = Time::finite(1);
//! let late = Time::finite(4);
//! assert_eq!(early.meet(late), early);          // min: first event
//! assert_eq!(early.lt_gate(late), early);       // lt: passes iff strictly first
//! assert_eq!(late.lt_gate(early), Time::INFINITY);
//!
//! // Feedforward compositions are space-time functions (Lemma 1).
//! let f = (Expr::input(0).inc(1) & Expr::input(1)).lt(Expr::input(2));
//! st_core::verify_space_time(&f, 4, 2, None)?;
//!
//! // Bounded s-t functions are definable by normalized tables (§ III.F).
//! let table = FunctionTable::from_fn(&f, 3)?;
//! assert_eq!(table.eval(&[Time::finite(0), Time::finite(3), Time::finite(2)])?,
//!            f.apply(&[Time::finite(0), Time::finite(3), Time::finite(2)])?);
//!
//! // Information travels as spike volleys (§ III.A).
//! let volley = Volley::encode([Some(0), Some(3), None, Some(1)]);
//! assert_eq!(volley.to_string(), "[0, 3, ∞, 1]");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
pub mod compiled;
pub mod error;
pub mod expr;
pub mod function;
pub mod hash;
pub mod json;
pub mod lane;
pub mod lattice;
pub mod ops;
pub mod parse;
pub mod simplify;
pub mod table;
pub mod time;
pub mod volley;

pub use compiled::CompiledTable;
pub use error::CoreError;
pub use expr::Expr;
pub use function::{
    check_bounded_at, check_causality_at, check_invariance_at, enumerate_inputs, verify_space_time,
    with_arity, FnSpaceTime, PropertyViolation, SpaceTimeFunction, WithArity,
};
pub use parse::{parse_expr, ParseExprError};
pub use simplify::simplify;
pub use table::{FunctionTable, ParseTableError, TableRow};
pub use time::{ParseTimeError, Time};
pub use volley::Volley;
