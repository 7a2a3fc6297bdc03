//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace vendors
//! a small property-testing runtime with the same *surface* as the parts
//! of proptest its test suites use: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map` / `prop_filter` / `prop_recursive` / `boxed`,
//! range, tuple and [`Just`](strategy::Just) strategies,
//! `prop::collection::vec`, `prop::option::weighted`, weighted
//! [`prop_oneof!`], and the [`proptest!`] / `prop_assert*` macros backed
//! by a deterministic seeded runner.
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its case number and the
//!   per-test RNG seed, which reproduce the exact inputs on re-run;
//! * **deterministic by default** — each test derives its RNG seed from
//!   the test's name, so failures are stable across runs and machines;
//! * case count comes from [`test_runner::Config`] (default 256) and can
//!   be scaled globally with the `PROPTEST_CASES` environment variable.

pub mod collection;
mod macros;
pub mod option;
pub mod strategy;
pub mod test_runner;

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced strategy modules, mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}
