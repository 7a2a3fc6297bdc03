//! u8 lane packing for SWAR batch evaluation (§ III.A volley coding).
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
//! Eight encoded times pack into one `u64` (lane 0 in the least
//! significant byte), and the four primitives become branch-free
//! **SWAR** (SIMD-within-a-register) expressions over whole words — one
//! word carries the same input line of eight different volleys, so a
//! fixed-function network evaluates eight volleys per pass. The same
//! bytes, laid out one per volley in a wider block, need no word tricks
//! at all: `st-kernel`'s 256-lane byte blocks compute the primitives as
//! plain `u8::min`, `u8::max`, a compare-select and
//! `u8::saturating_add`, which equal [`min`], [`max`], [`lt_gate`] and
//! [`inc`] lane for lane.
//!
//! Two deliberate domain edges, both handled by callers (`st-kernel`
//! checks a per-plan bound before taking the lane path):
//!
//! * finite times above [`MAX_FINITE`] (254) have **no encoding** —
//!   [`encode`] and [`pack`] return `None`;
//! * [`inc`] **saturates to the lane `∞`** (`0xFF`) when a sum leaves
//!   the finite byte range, whereas scalar [`Time::inc`] keeps counting.
//!   The two agree exactly as long as every finite value stays
//!   `<= MAX_FINITE`.

use crate::time::Time;

/// Number of u8 lanes in one packed word.
pub const LANES: usize = 8;

/// The lane encoding of `∞` (top of the order, all bits set).
pub const INF: u8 = 0xFF;

/// The largest finite time a lane can hold.
pub const MAX_FINITE: u8 = 0xFE;

/// A word whose eight lanes are all `∞` — the all-silent packet.
pub const ALL_INF: u64 = u64::MAX;

/// High (sign) bit of each lane.
const H: u64 = 0x8080_8080_8080_8080;
/// Low bit of each lane.
const L: u64 = 0x0101_0101_0101_0101;

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

/// Replicates one lane byte into all eight lanes.
#[inline]
#[must_use]
pub fn broadcast(lane: u8) -> u64 {
    u64::from(lane) * L
}

/// Packs up to [`LANES`] times into one word, lane 0 least significant;
/// missing trailing lanes are padded with `∞`.
///
/// Returns `None` if any time is finite but above [`MAX_FINITE`].
///
/// # Panics
///
/// Panics if `times` has more than [`LANES`] elements.
#[must_use]
pub fn pack(times: &[Time]) -> Option<u64> {
    assert!(times.len() <= LANES, "at most {LANES} lanes per word");
    let mut word = ALL_INF;
    for (i, &t) in times.iter().enumerate() {
        let lane = encode(t)?;
        let shift = 8 * i;
        word = (word & !(0xFF << shift)) | (u64::from(lane) << shift);
    }
    Some(word)
}

/// Unpacks a word into its eight [`Time`] lanes.
#[must_use]
pub fn unpack(word: u64) -> [Time; LANES] {
    std::array::from_fn(|i| decode(get(word, i)))
}

/// Extracts lane `i` (0 = least significant byte).
///
/// # Panics
///
/// Panics if `lane >= LANES`.
#[inline]
#[must_use]
pub fn get(word: u64, lane: usize) -> u8 {
    assert!(lane < LANES, "lane index out of range");
    (word >> (8 * lane)) as u8
}

/// Per-lane mask of `x < y` (unsigned): `0xFF` where the lane of `x` is
/// strictly below the lane of `y`, `0x00` elsewhere.
///
/// The comparison is computed without lane interaction: `t` holds, in
/// each lane's bit 7, the carry-free borrow signal of the low-7-bit
/// subtraction `x - y`, and the standard full-subtractor recurrence
/// combines it with the lanes' own bit 7s. The final `* 0xFF` smears
/// each lane's bit 0 across the lane — no carries, since each lane
/// contributes at most `0x01`.
#[inline]
#[must_use]
fn lt_mask(x: u64, y: u64) -> u64 {
    let t = (x | H).wrapping_sub(y & !H);
    let borrow = ((!x & y) | (!(x ^ y) & !t)) & H;
    (borrow >> 7) * 0xFF
}

/// Per-lane `min` — the algebra's `∧` on encoded times.
#[inline]
#[must_use]
pub fn min(x: u64, y: u64) -> u64 {
    let m = lt_mask(x, y);
    y ^ ((x ^ y) & m)
}

/// Per-lane `max` — the algebra's `∨` on encoded times.
#[inline]
#[must_use]
pub fn max(x: u64, y: u64) -> u64 {
    let m = lt_mask(x, y);
    x ^ ((x ^ y) & m)
}

/// Per-lane `lt` gate — the algebra's `≺` on encoded times: the lane of
/// `x` where `x < y`, the lane `∞` elsewhere.
///
/// Works because the lane `∞` is all-ones: `(x & m) | !m` selects `x`
/// under the mask and fills rejected lanes with `0xFF`.
#[inline]
#[must_use]
pub fn lt_gate(x: u64, y: u64) -> u64 {
    let m = lt_mask(x, y);
    (x & m) | !m
}

/// Per-lane saturating `+ delta` — the algebra's `inc` on encoded times.
///
/// `∞` lanes stay `∞` (adding to `0xFF` saturates back to `0xFF`).
/// Finite lanes whose sum exceeds [`MAX_FINITE`] saturate to the lane
/// `∞`; scalar [`Time::inc`] would keep counting, so lane and scalar
/// `inc` agree exactly iff the true sum stays within the lane domain
/// (callers enforce this with a plan-level bound check).
#[inline]
#[must_use]
pub fn inc(x: u64, delta: u8) -> u64 {
    let y = broadcast(delta);
    // Carry-free per-lane wrapping add: sum the low 7 bits (which cannot
    // cross a lane boundary), then fold the high bits back in with xor.
    let low = (x & !H).wrapping_add(y & !H);
    let sum = low ^ ((x ^ y) & H);
    // Standard carry-out of bit 7, per lane; saturate lanes that carried.
    let carry = ((x & y) | ((x | y) & !sum)) & H;
    sum | ((carry >> 7) * 0xFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_round_trip_and_constants() {
        assert_eq!(encode(Time::INFINITY), Some(INF));
        assert_eq!(decode(INF), Time::INFINITY);
        assert_eq!(broadcast(INF), ALL_INF);
        assert_eq!(pack(&[]), Some(ALL_INF));
    }

    #[test]
    fn pack_rejects_unencodable_times() {
        assert_eq!(encode(Time::finite(255)), None);
        assert_eq!(pack(&[Time::finite(3), Time::finite(300)]), None);
    }

    #[test]
    fn pack_places_lane_zero_least_significant() {
        let word = pack(&[Time::finite(1), Time::finite(2)]).unwrap();
        assert_eq!(get(word, 0), 1);
        assert_eq!(get(word, 1), 2);
        assert_eq!(get(word, 7), INF);
        assert_eq!(unpack(word)[0], Time::finite(1));
    }
}
