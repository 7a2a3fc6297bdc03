//! The u8 lane encoding for packed batch evaluation (§ III.A volley
//! coding).
//!
//! The paper's volley coding keeps every event time small and
//! non-negative, so a bounded slice of the domain `N0^∞` fits in a byte:
//! finite times `0..=254` map to themselves and `∞` maps to `0xFF`. The
//! map is an **order isomorphism** from `{0..=254} ∪ {∞}` (under the
//! algebra's total order, where `∞` is the top element) onto `0..=255`
//! under plain unsigned order. That single fact is what makes lane
//! packing sound: unsigned byte `min`/`max`/`<` compute exactly the
//! algebra's `∧`/`∨`/`≺` on encoded values, with no per-lane branching.
//!
//! `st-kernel` lays these bytes out one per volley in a block — one
//! block per input line or gate — and computes the primitives as plain
//! `u8::min`, `u8::max`, a compare-select and `u8::saturating_add`,
//! lane by lane, on [`LANES`]-lane blocks for the batch engine's
//! packets and 256-lane blocks past that.
//!
//! Two deliberate domain edges, both handled by callers (`st-kernel`
//! checks a per-plan bound before taking the lane path):
//!
//! * finite times above [`MAX_FINITE`] (254) have **no encoding** —
//!   [`encode`] returns `None`;
//! * a lane `inc` **saturates to the lane `∞`** (`0xFF`) when a sum
//!   leaves the finite byte range, whereas scalar [`Time::inc`] keeps
//!   counting. The two agree exactly as long as every finite value stays
//!   `<= MAX_FINITE`.

use crate::time::Time;

/// Number of lanes in the batch engine's packet, the kernel's narrow
/// block.
pub const LANES: usize = 8;

/// The lane encoding of `∞` (top of the order, all bits set).
pub const INF: u8 = 0xFF;

/// The largest finite time a lane can hold.
pub const MAX_FINITE: u8 = 0xFE;

/// Encodes one [`Time`] into a lane byte.
///
/// Returns `None` for finite times above [`MAX_FINITE`], which have no
/// lane representation.
#[inline]
#[must_use]
pub fn encode(t: Time) -> Option<u8> {
    match t.value() {
        None => Some(INF),
        Some(v) if v <= u64::from(MAX_FINITE) => Some(v as u8),
        Some(_) => None,
    }
}

/// Decodes a lane byte back into a [`Time`] (`0xFF` → `∞`).
#[inline]
#[must_use]
pub fn decode(lane: u8) -> Time {
    if lane == INF {
        Time::INFINITY
    } else {
        Time::finite(u64::from(lane))
    }
}
