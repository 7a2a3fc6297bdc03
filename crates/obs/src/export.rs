//! Trace exporters: spike-raster CSV, JSONL, and Chrome `trace_event`.
//!
//! All three exporters are pure functions of an event slice, so the same
//! recorded run can be rendered every way. Output is deterministic: rows
//! follow event arrival order, and floating-point fields are formatted
//! with fixed precision (the golden-file tests pin the exact bytes).
//!
//! * [`spike_raster_csv`] — one row per spike-like event
//!   (`gate_fired` / `wire_fell` / `neuron_spike`), the SNN literature's
//!   standard raster view.
//! * [`events_jsonl`] — every event as one JSON object per line; the
//!   lossless interchange format (`spacetime trace --format jsonl`).
//! * [`chrome_trace`] — Chrome `trace_event` JSON (load in
//!   `chrome://tracing` or Perfetto): wall-clock stage/chunk spans on
//!   process 0, model-time spikes and potential counters on process 1.

use std::fmt::Write as _;

use st_core::json::Json;

use crate::event::ObsEvent;

/// The unit label a spike-like event renders under (`gate3:min`,
/// `wire5`, `neuron2`).
fn spike_unit(event: &ObsEvent) -> Option<String> {
    match *event {
        ObsEvent::GateFired { gate, op, .. } => Some(format!("gate{gate}:{op}")),
        ObsEvent::WireFell { wire, .. } => Some(format!("wire{wire}")),
        ObsEvent::NeuronSpike { neuron, .. } => Some(format!("neuron{neuron}")),
        _ => None,
    }
}

/// The engine a spike-like event came from.
fn spike_source(event: &ObsEvent) -> &'static str {
    match event {
        ObsEvent::GateFired { .. } => "net",
        ObsEvent::WireFell { .. } => "grl",
        _ => "srm0",
    }
}

/// Renders the spike-like events as a raster CSV.
///
/// Columns: `volley,time,source,unit`. The `volley` column is carried by
/// the most recent [`ObsEvent::VolleyStart`] marker (0 before the first
/// marker); `time` is the model time in ticks; `source` names the engine
/// (`net`, `grl`, `srm0`); `unit` names the firing element. Events with
/// an infinite time (possible only for hand-built traces) are skipped.
#[must_use]
pub fn spike_raster_csv(events: &[ObsEvent]) -> String {
    let mut out = String::from("volley,time,source,unit\n");
    let mut volley = 0usize;
    for event in events {
        if let ObsEvent::VolleyStart { index } = *event {
            volley = index;
            continue;
        }
        let (Some(at), Some(unit)) = (event.model_time(), spike_unit(event)) else {
            continue;
        };
        let Some(t) = at.value() else { continue };
        let _ = writeln!(out, "{volley},{t},{},{unit}", spike_source(event));
    }
    out
}

/// Renders one event as a single-line JSON object.
fn event_json(event: &ObsEvent) -> String {
    let kind = event.kind();
    match *event {
        ObsEvent::VolleyStart { index } => {
            format!("{{\"kind\":\"{kind}\",\"index\":{index}}}")
        }
        ObsEvent::GateFired { gate, op, at } => format!(
            "{{\"kind\":\"{kind}\",\"gate\":{gate},\"op\":\"{op}\",\"at\":{}}}",
            Json::from(at)
        ),
        ObsEvent::WireFell { wire, at } => format!(
            "{{\"kind\":\"{kind}\",\"wire\":{wire},\"at\":{}}}",
            Json::from(at)
        ),
        ObsEvent::LatchBlocked { wire, at } => format!(
            "{{\"kind\":\"{kind}\",\"wire\":{wire},\"at\":{}}}",
            Json::from(at)
        ),
        ObsEvent::Potential {
            neuron,
            at,
            potential,
        } => format!(
            "{{\"kind\":\"{kind}\",\"neuron\":{neuron},\"at\":{},\"potential\":{potential}}}",
            Json::from(at)
        ),
        ObsEvent::NeuronSpike { neuron, at } => format!(
            "{{\"kind\":\"{kind}\",\"neuron\":{neuron},\"at\":{}}}",
            Json::from(at)
        ),
        ObsEvent::WtaDecision { winner, tied } => {
            let w = winner.map_or_else(|| "null".to_owned(), |w| w.to_string());
            format!("{{\"kind\":\"{kind}\",\"winner\":{w},\"tied\":{tied}}}")
        }
        ObsEvent::WeightDelta {
            neuron,
            synapse,
            before,
            after,
        } => format!(
            "{{\"kind\":\"{kind}\",\"neuron\":{neuron},\"synapse\":{synapse},\
             \"before\":{before},\"after\":{after}}}"
        ),
        ObsEvent::StageTiming {
            stage,
            start_nanos,
            nanos,
        } => format!(
            "{{\"kind\":\"{kind}\",\"stage\":\"{stage}\",\"start_nanos\":{start_nanos},\
             \"nanos\":{nanos}}}"
        ),
        ObsEvent::ChunkTiming {
            worker,
            start,
            len,
            start_nanos,
            nanos,
        } => format!(
            "{{\"kind\":\"{kind}\",\"worker\":{worker},\"start\":{start},\"len\":{len},\
             \"start_nanos\":{start_nanos},\"nanos\":{nanos}}}"
        ),
        ObsEvent::VolleyTimed {
            index,
            nanos,
            spikes,
        } => format!(
            "{{\"kind\":\"{kind}\",\"index\":{index},\"nanos\":{nanos},\"spikes\":{spikes}}}"
        ),
    }
}

/// The schema identifier the JSONL exporter stamps on its first line,
/// following the `spacetime-bench/1` / `spacetime-trend/1` convention.
/// Readers (`st-insight`, external tooling) validate it before trusting
/// the event lines.
pub const JSONL_SCHEMA: &str = "spacetime-obs/1";

/// The `spacetime-obs/1` header line: schema id, event count, and the
/// number of events the producing [`crate::Recorder`] dropped at its
/// capacity cap (0 for a complete trace).
fn jsonl_header(events: usize, dropped: u64) -> String {
    format!("{{\"schema\":\"{JSONL_SCHEMA}\",\"events\":{events},\"dropped\":{dropped}}}")
}

/// Renders every event as one JSON object per line (JSONL) — the
/// lossless interchange format. The first line is a `spacetime-obs/1`
/// schema header declaring the event count; the trace it describes is
/// complete (`"dropped":0`). For a capacity-truncated recording use
/// [`events_jsonl_with_dropped`] (or [`crate::Recorder::to_jsonl`]).
#[must_use]
pub fn events_jsonl(events: &[ObsEvent]) -> String {
    events_jsonl_with_dropped(events, 0)
}

/// [`events_jsonl`] with an explicit dropped-event count in the header,
/// for traces recorded through a capacity-bounded [`crate::Recorder`].
#[must_use]
pub fn events_jsonl_with_dropped(events: &[ObsEvent], dropped: u64) -> String {
    let mut out = jsonl_header(events.len(), dropped);
    out.push('\n');
    for event in events {
        out.push_str(&event_json(event));
        out.push('\n');
    }
    out
}

/// Microseconds with fixed 3-decimal formatting, from nanoseconds.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Renders a run as Chrome `trace_event` JSON for flame-style viewing.
///
/// Two processes are emitted:
///
/// * **pid 0 ("wall clock")** — [`ObsEvent::StageTiming`] and
///   [`ObsEvent::ChunkTiming`] become complete (`"ph":"X"`) spans, one
///   track per worker, timestamps in microseconds of wall-clock.
/// * **pid 1 ("model time")** — spike-like events become instant
///   (`"ph":"i"`) marks and [`ObsEvent::Potential`] samples become
///   counter (`"ph":"C"`) tracks, with one model tick rendered as one
///   microsecond.
///
/// Markers and decisions without a timestamp ([`ObsEvent::VolleyStart`],
/// [`ObsEvent::WtaDecision`], [`ObsEvent::WeightDelta`],
/// [`ObsEvent::VolleyTimed`]) are not representable on a timeline and are
/// omitted here — use [`events_jsonl`] for the complete record.
#[must_use]
pub fn chrome_trace(events: &[ObsEvent]) -> String {
    let mut entries: Vec<String> = vec![
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"wall clock\"}}"
            .to_owned(),
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"model time\"}}"
            .to_owned(),
    ];
    for event in events {
        match *event {
            ObsEvent::StageTiming {
                stage,
                start_nanos,
                nanos,
            } => entries.push(format!(
                "{{\"name\":\"{stage}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{}}}",
                micros(start_nanos),
                micros(nanos)
            )),
            ObsEvent::ChunkTiming {
                worker,
                start,
                len,
                start_nanos,
                nanos,
            } => entries.push(format!(
                "{{\"name\":\"chunk[{start}..{}]\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
                 \"ts\":{},\"dur\":{}}}",
                start + len,
                worker + 1,
                micros(start_nanos),
                micros(nanos)
            )),
            ObsEvent::Potential {
                neuron,
                at,
                potential,
            } => {
                if let Some(t) = at.value() {
                    entries.push(format!(
                        "{{\"name\":\"potential n{neuron}\",\"ph\":\"C\",\"pid\":1,\
                         \"tid\":0,\"ts\":{t},\"args\":{{\"v\":{potential}}}}}"
                    ));
                }
            }
            _ => {
                let (Some(at), Some(unit)) = (event.model_time(), spike_unit(event)) else {
                    continue;
                };
                if let Some(t) = at.value() {
                    entries.push(format!(
                        "{{\"name\":\"{unit}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\
                         \"tid\":0,\"ts\":{t}}}"
                    ));
                }
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use st_core::Time;

    use super::*;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::VolleyStart { index: 0 },
            ObsEvent::GateFired {
                gate: 0,
                op: "input",
                at: Time::ZERO,
            },
            ObsEvent::GateFired {
                gate: 4,
                op: "min",
                at: Time::finite(1),
            },
            ObsEvent::VolleyStart { index: 1 },
            ObsEvent::WireFell {
                wire: 2,
                at: Time::finite(3),
            },
            ObsEvent::NeuronSpike {
                neuron: 1,
                at: Time::finite(2),
            },
            ObsEvent::Potential {
                neuron: 1,
                at: Time::finite(2),
                potential: -1,
            },
            ObsEvent::WtaDecision {
                winner: None,
                tied: 0,
            },
            ObsEvent::StageTiming {
                stage: "eval",
                start_nanos: 0,
                nanos: 12_500,
            },
            ObsEvent::ChunkTiming {
                worker: 0,
                start: 0,
                len: 2,
                start_nanos: 1_000,
                nanos: 11_000,
            },
            ObsEvent::VolleyTimed {
                index: 0,
                nanos: 5_000,
                spikes: 2,
            },
        ]
    }

    #[test]
    fn raster_tracks_volley_markers() {
        let csv = spike_raster_csv(&sample_events());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "volley,time,source,unit");
        assert_eq!(lines[1], "0,0,net,gate0:input");
        assert_eq!(lines[2], "0,1,net,gate4:min");
        assert_eq!(lines[3], "1,3,grl,wire2");
        assert_eq!(lines[4], "1,2,srm0,neuron1");
        assert_eq!(lines.len(), 5); // non-spike events contribute no rows
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let jsonl = events_jsonl(&sample_events());
        // Header line plus one line per event.
        assert_eq!(jsonl.lines().count(), sample_events().len() + 1);
        let header = jsonl.lines().next().unwrap();
        assert_eq!(
            header,
            format!(
                "{{\"schema\":\"spacetime-obs/1\",\"events\":{},\"dropped\":0}}",
                sample_events().len()
            )
        );
        for line in jsonl.lines().skip(1) {
            let event = Json::parse(line).unwrap();
            assert!(event.get("kind").and_then(Json::as_str).is_some(), "{line}");
        }
        assert!(jsonl.contains("\"winner\":null"));
        assert!(jsonl.contains("\"nanos\":12500"));
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&sample_events());
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.ends_with("\n]}\n"));
        // Stage span in microseconds.
        assert!(json.contains("\"name\":\"eval\",\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":12.500"));
        // Chunk on its worker track.
        assert!(json.contains("\"name\":\"chunk[0..2]\""));
        assert!(json.contains("\"tid\":1"));
        // Model-time instants and the potential counter.
        assert!(json.contains("\"name\":\"gate4:min\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"potential n1\",\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"v\":-1}"));
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(12_500), "12.500");
        assert_eq!(micros(1_000_001), "1000.001");
    }
}
