//! Shared helpers for the top-level integration test suites.

pub mod arbitrary;
pub mod mutation;
