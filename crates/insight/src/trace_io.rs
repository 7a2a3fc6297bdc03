//! Reading `spacetime-obs/2` (and `/1`) JSONL traces back into typed
//! events.
//!
//! `st-obs` exports every event as one flat JSON object per line, behind
//! a schema header. Each line is parsed as one document by the
//! workspace's JSON reader ([`st_core::json::Json`]), so a line that is
//! not exactly one JSON object — a garbage prefix, a missing `}`, a
//! repeated key, nesting past [`st_core::json::MAX_DEPTH`] — is rejected.
//!
//! Validation is strict: a missing or foreign schema header, an unknown
//! event kind or gate op, a field of the wrong type, a number outside its
//! field's range (a time of `u64::MAX`, the reserved `∞` encoding, or a
//! weight outside `i32`), or an event count that disagrees with the
//! header all fail with a line-numbered [`InsightError::BadTrace`] — a
//! truncated or hand-edited trace is rejected, never half-loaded.
//!
//! A `spacetime-obs/1` document reads too. Its three wall-clock kinds
//! (`volley_timed`, `chunk_timing`, `stage_timing`), which `/2` dropped
//! for `st-trace` spans, count against the header's declared total and
//! are then skipped, so a `/1` log reads into the events of its `/2`
//! rewrite.

use st_core::json::Json;
use st_core::Time;
use st_obs::{ObsEvent, JSONL_SCHEMA};

/// The first schema version, still read: [`JSONL_SCHEMA`] plus three
/// wall-clock event kinds.
const JSONL_SCHEMA_V1: &str = "spacetime-obs/1";

/// The `/1` event kinds that carried wall-clock time.
const V1_TIMING_KINDS: [&str; 3] = ["volley_timed", "chunk_timing", "stage_timing"];

use crate::InsightError;

/// A fully validated `spacetime-obs` trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedTrace {
    /// The recorded events, in original order.
    pub events: Vec<ObsEvent>,
    /// How many events the producing recorder dropped at its capacity
    /// cap (from the header; 0 for a complete trace).
    pub dropped: u64,
}

impl ParsedTrace {
    /// Indexes the trace into a [`crate::SpikeDb`], carrying the
    /// dropped-event count.
    #[must_use]
    pub fn to_db(&self) -> crate::SpikeDb {
        crate::SpikeDb::from_events_with_dropped(&self.events, self.dropped)
    }
}

/// One line's JSON object with its 1-based line number, for
/// line-numbered field errors.
struct Line {
    object: Json,
    number: usize,
}

impl Line {
    fn parse(text: &str, number: usize) -> Result<Line, InsightError> {
        let line = Line {
            object: Json::parse(text).map_err(|e| bad(number, e))?,
            number,
        };
        if line.object.as_obj().is_none() {
            return Err(bad(number, "not a JSON object".to_owned()));
        }
        Ok(line)
    }

    fn bad(&self, message: String) -> InsightError {
        bad(self.number, message)
    }

    fn field(&self, key: &str) -> Result<&Json, InsightError> {
        self.object
            .get(key)
            .ok_or_else(|| self.bad(format!("missing field \"{key}\"")))
    }

    /// A required integer field, in range for `T`.
    fn int<T: TryFrom<i128>>(&self, key: &str) -> Result<T, InsightError> {
        self.object.get(key).and_then(Json::as_int).ok_or_else(|| {
            self.bad(format!(
                "missing, non-integer or out-of-range field \"{key}\""
            ))
        })
    }

    /// A required string field.
    fn string(&self, key: &str) -> Result<&str, InsightError> {
        self.object
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| self.bad(format!("missing or non-string field \"{key}\"")))
    }

    /// A required model-time field: ticks, or `null` for `∞`.
    fn time(&self, key: &str) -> Result<Time, InsightError> {
        self.field(key)?
            .as_time()
            .ok_or_else(|| self.bad(format!("field \"{key}\" is neither ticks nor null")))
    }
}

fn bad(line: usize, message: String) -> InsightError {
    InsightError::BadTrace { line, message }
}

/// Interns a recorded gate-op name back to the `&'static str` the event
/// vocabulary carries. The six names are the complete `st-net` gate set.
fn intern_op(line: &Line) -> Result<&'static str, InsightError> {
    let op = line.string("op")?;
    ["input", "const", "inc", "min", "max", "lt"]
        .into_iter()
        .find(|&known| known == op)
        .ok_or_else(|| line.bad(format!("unknown gate op {op:?}")))
}

fn parse_event(line: &Line) -> Result<ObsEvent, InsightError> {
    Ok(match line.string("kind")? {
        "volley_start" => ObsEvent::VolleyStart {
            index: line.int("index")?,
        },
        "gate_fired" => ObsEvent::GateFired {
            gate: line.int("gate")?,
            op: intern_op(line)?,
            at: line.time("at")?,
        },
        "wire_fell" => ObsEvent::WireFell {
            wire: line.int("wire")?,
            at: line.time("at")?,
        },
        "latch_blocked" => ObsEvent::LatchBlocked {
            wire: line.int("wire")?,
            at: line.time("at")?,
        },
        "potential" => ObsEvent::Potential {
            neuron: line.int("neuron")?,
            at: line.time("at")?,
            potential: line.int("potential")?,
        },
        "neuron_spike" => ObsEvent::NeuronSpike {
            neuron: line.int("neuron")?,
            at: line.time("at")?,
        },
        "wta_decision" => ObsEvent::WtaDecision {
            winner: match line.field("winner")? {
                Json::Null => None,
                w => Some(w.as_int().ok_or_else(|| {
                    line.bad("field \"winner\" is neither an index nor null".to_owned())
                })?),
            },
            tied: line.int("tied")?,
        },
        "weight_delta" => ObsEvent::WeightDelta {
            neuron: line.int("neuron")?,
            synapse: line.int("synapse")?,
            before: line.int("before")?,
            after: line.int("after")?,
        },
        other => return Err(line.bad(format!("unknown event kind {other:?}"))),
    })
}

/// Parses a `spacetime-obs/2` JSONL document (as written by
/// `st_obs::events_jsonl` / `Recorder::to_jsonl` / `spacetime trace
/// --format jsonl`) back into typed events. A `spacetime-obs/1` document
/// reads the same way, less its wall-clock lines.
///
/// # Errors
///
/// [`InsightError::BadTrace`] when the header is missing or declares a
/// foreign schema, when any line is not one JSON object or holds a
/// malformed event, or when the line count disagrees with the header's
/// event count (a truncated file).
pub fn parse_trace(text: &str) -> Result<ParsedTrace, InsightError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| bad(0, "empty file".to_owned()))?;
    let header = Line::parse(header, 1)
        .ok()
        .filter(|h| h.object.get("schema").and_then(Json::as_str).is_some())
        .ok_or_else(|| {
            bad(
                0,
                format!(
                    "first line must be a {JSONL_SCHEMA:?} header (is this a raw event dump \
                     from an older export?)"
                ),
            )
        })?;
    let v1 = match header.string("schema")? {
        JSONL_SCHEMA => false,
        JSONL_SCHEMA_V1 => true,
        schema => {
            return Err(bad(
                0,
                format!(
                    "schema is {schema:?}, this reader understands {JSONL_SCHEMA:?} and \
                     {JSONL_SCHEMA_V1:?}"
                ),
            ))
        }
    };
    let declared: u64 = header.int("events")?;
    let dropped = header.int("dropped")?;

    let mut events = Vec::new();
    let mut read = 0u64;
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        read += 1;
        let line = Line::parse(line, i + 2)?;
        if v1 && V1_TIMING_KINDS.contains(&line.string("kind")?) {
            continue;
        }
        events.push(parse_event(&line)?);
    }
    if read != declared {
        return Err(bad(
            0,
            format!("header declares {declared} event(s) but the file holds {read} — truncated?"),
        ));
    }
    Ok(ParsedTrace { events, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_obs::events_jsonl_with_dropped;

    fn sample() -> Vec<ObsEvent> {
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
            ObsEvent::WireFell {
                wire: 2,
                at: Time::finite(3),
            },
            ObsEvent::LatchBlocked {
                wire: 2,
                at: Time::finite(4),
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
            ObsEvent::WeightDelta {
                neuron: 0,
                synapse: 3,
                before: -2,
                after: 5,
            },
        ]
    }

    #[test]
    fn round_trips_every_event_kind() {
        let events = sample();
        let text = events_jsonl_with_dropped(&events, 7);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.dropped, 7);
        assert!(parsed.to_db().is_truncated());
    }

    #[test]
    fn rejects_headerless_dumps() {
        let err = parse_trace("{\"kind\":\"volley_start\",\"index\":0}\n").unwrap_err();
        assert!(
            matches!(err, InsightError::BadTrace { line: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("spacetime-obs/2"), "{err}");
    }

    #[test]
    fn rejects_foreign_schemas() {
        let err = parse_trace("{\"schema\":\"spacetime-bench/1\",\"events\":0,\"dropped\":0}\n")
            .unwrap_err();
        assert!(err.to_string().contains("spacetime-bench/1"), "{err}");
    }

    #[test]
    fn a_v1_log_drops_its_timing_lines_and_counts_them() {
        let timing = [
            "{\"kind\":\"volley_timed\",\"index\":0,\"nanos\":1500,\"spikes\":1}",
            "{\"kind\":\"chunk_timing\",\"worker\":0,\"start\":0,\"len\":1,\
             \"start_nanos\":100,\"nanos\":4000}",
            "{\"kind\":\"stage_timing\",\"stage\":\"eval\",\"start_nanos\":0,\"nanos\":5000}",
        ];
        let v2 = events_jsonl_with_dropped(&sample(), 0);
        let body: Vec<&str> = v2.lines().skip(1).chain(timing).collect();
        let v1 = |declared: usize| {
            let header =
                format!("{{\"schema\":\"spacetime-obs/1\",\"events\":{declared},\"dropped\":0}}\n");
            header + &body.join("\n") + "\n"
        };
        let parsed = parse_trace(&v1(body.len())).unwrap();
        assert_eq!(parsed.events, sample());
        // The declared count covers the dropped lines too.
        let err = parse_trace(&v1(sample().len())).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // `/2` has no wall-clock kinds.
        for line in timing {
            assert!(
                line_two_error(line).contains("unknown event kind"),
                "{line}"
            );
        }
    }

    #[test]
    fn rejects_truncated_files_with_counts() {
        let full = events_jsonl_with_dropped(&sample(), 0);
        let cut: String = full.lines().take(5).map(|l| format!("{l}\n")).collect();
        let err = parse_trace(&cut).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn rejects_unknown_ops_and_kinds_with_line_numbers() {
        let text = "{\"schema\":\"spacetime-obs/2\",\"events\":1,\"dropped\":0}\n\
                    {\"kind\":\"gate_fired\",\"gate\":0,\"op\":\"xor\",\"at\":1}\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(
            err,
            InsightError::BadTrace {
                line: 2,
                message: "unknown gate op \"xor\"".to_owned()
            }
        );

        let text = "{\"schema\":\"spacetime-obs/2\",\"events\":1,\"dropped\":0}\n\
                    {\"kind\":\"gate_melted\"}\n";
        assert!(parse_trace(text).is_err());
    }

    const HEADER: &str = "{\"schema\":\"spacetime-obs/2\",\"events\":1,\"dropped\":0}\n";

    fn line_two_error(line: &str) -> String {
        match parse_trace(&format!("{HEADER}{line}\n")) {
            Err(InsightError::BadTrace { line: 2, message }) => message,
            other => panic!("{line}: expected a line-2 error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_lines_that_are_not_one_json_object() {
        let garbage = line_two_error("garbage{\"kind\":\"volley_start\",\"index\":0}");
        assert!(garbage.contains("unexpected character 'g'"), "{garbage}");
        let open = line_two_error("{\"kind\":\"volley_start\",\"index\":0");
        assert!(open.contains("expected ',' or '}'"), "{open}");
        let repeated = line_two_error("{\"kind\":\"volley_start\",\"index\":0,\"index\":1}");
        assert!(repeated.contains("repeated key \"index\""), "{repeated}");
        let array = line_two_error("[\"volley_start\"]");
        assert!(array.contains("not a JSON object"), "{array}");
        let deep = format!(
            "{{\"kind\":\"volley_start\",\"index\":{}",
            "[".repeat(50_000)
        );
        assert!(line_two_error(&deep).contains("nesting deeper than"));
    }

    #[test]
    fn rejects_numbers_outside_their_fields_range() {
        let at = line_two_error(
            "{\"kind\":\"gate_fired\",\"gate\":0,\"op\":\"input\",\"at\":18446744073709551615}",
        );
        assert_eq!(at, "field \"at\" is neither ticks nor null");
        let before = line_two_error(
            "{\"kind\":\"weight_delta\",\"neuron\":0,\"synapse\":0,\
             \"before\":4294967297,\"after\":0}",
        );
        assert!(before.contains("\"before\""), "{before}");
        let negative = line_two_error("{\"kind\":\"volley_start\",\"index\":-1}");
        assert!(negative.contains("\"index\""), "{negative}");
    }

    #[test]
    fn infinite_times_round_trip_as_null() {
        let events = vec![ObsEvent::GateFired {
            gate: 9,
            op: "lt",
            at: Time::INFINITY,
        }];
        let parsed = parse_trace(&events_jsonl_with_dropped(&events, 0)).unwrap();
        assert_eq!(parsed.events, events);
    }
}
