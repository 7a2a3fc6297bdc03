//! Exhaustive checks of the u8 lane encoding.
//!
//! The lane path is only sound if the byte encoding is an order
//! isomorphism, so these tests enumerate, rather than sample: all 256
//! encodable times for the round trip, and all 256 × 256 pairs for the
//! order. (`st-kernel` checks its byte ops against the scalar [`Time`]
//! ops on every byte pair through this encoding.)

use st_core::lane;
use st_core::Time;

/// Every encodable time: `0..=254` and `∞`.
fn encodable_times() -> impl Iterator<Item = Time> {
    (0..=254u64).map(Time::finite).chain([Time::INFINITY])
}

#[test]
fn encode_round_trips_every_encodable_time() {
    for t in encodable_times() {
        let lane = lane::encode(t).unwrap();
        assert_eq!(lane::decode(lane), t, "round trip of {t}");
    }
    // The two domain edges: 254 is the last encodable finite time.
    assert_eq!(lane::encode(Time::finite(254)), Some(0xFE));
    assert_eq!(lane::encode(Time::finite(255)), None);
    assert_eq!(lane::encode(Time::MAX_FINITE), None);
    assert_eq!(lane::encode(Time::INFINITY), Some(0xFF));
}

#[test]
fn encoding_is_an_order_isomorphism() {
    // Scalar `Time` order and unsigned byte order agree on every pair —
    // the single fact the whole lane path rests on.
    for a in encodable_times() {
        for b in encodable_times() {
            let (ea, eb) = (lane::encode(a).unwrap(), lane::encode(b).unwrap());
            assert_eq!(a < b, ea < eb, "order of {a} vs {b}");
        }
    }
}
