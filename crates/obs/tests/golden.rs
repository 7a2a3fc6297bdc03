//! Golden-file tests for the exporters: a fixed synthetic event stream
//! (hand-written, no wall clock involved) must render byte-for-byte to the
//! checked-in `tests/golden/*` files. If an exporter's format changes
//! intentionally, regenerate the goldens and review the diff — downstream
//! tooling (CSV readers, `chrome://tracing`) parses these bytes.

use st_core::Time;
use st_obs::{chrome_trace, events_jsonl, spike_raster_csv, ObsEvent};

fn t(v: u64) -> Time {
    Time::finite(v)
}

/// A deterministic miniature run touching every event the exporters
/// treat specially: two marked volleys, gate/wire/neuron spikes, a
/// potential trajectory, a WTA decision, a latch capture, an STDP delta
/// and an infinite time.
fn fixture() -> Vec<ObsEvent> {
    vec![
        ObsEvent::VolleyStart { index: 0 },
        ObsEvent::GateFired {
            gate: 0,
            op: "input",
            at: t(0),
        },
        ObsEvent::GateFired {
            gate: 3,
            op: "min",
            at: t(2),
        },
        ObsEvent::Potential {
            neuron: 1,
            at: t(1),
            potential: 2,
        },
        ObsEvent::Potential {
            neuron: 1,
            at: t(3),
            potential: 4,
        },
        ObsEvent::NeuronSpike {
            neuron: 1,
            at: t(3),
        },
        ObsEvent::WtaDecision {
            winner: Some(1),
            tied: 1,
        },
        ObsEvent::WeightDelta {
            neuron: 1,
            synapse: 2,
            before: 3,
            after: 4,
        },
        ObsEvent::VolleyStart { index: 1 },
        ObsEvent::WireFell { wire: 5, at: t(4) },
        ObsEvent::LatchBlocked { wire: 6, at: t(4) },
        ObsEvent::GateFired {
            gate: 7,
            op: "lt",
            at: Time::INFINITY,
        },
    ]
}

/// Rewrites the golden files from the current exporter output. Run
/// `cargo test -p st-obs --test golden -- --ignored` after an intentional
/// format change, then review the diff before committing.
#[test]
#[ignore = "regenerates the golden files in place"]
fn regenerate_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let events = fixture();
    std::fs::write(dir.join("raster.csv"), spike_raster_csv(&events)).unwrap();
    std::fs::write(dir.join("chrome.json"), chrome_trace(&events)).unwrap();
    std::fs::write(dir.join("events.jsonl"), events_jsonl(&events)).unwrap();
}

#[test]
fn raster_csv_matches_golden() {
    assert_eq!(
        spike_raster_csv(&fixture()),
        include_str!("golden/raster.csv")
    );
}

#[test]
fn chrome_trace_matches_golden() {
    assert_eq!(chrome_trace(&fixture()), include_str!("golden/chrome.json"));
}

#[test]
fn jsonl_matches_golden() {
    assert_eq!(
        events_jsonl(&fixture()),
        include_str!("golden/events.jsonl")
    );
}
