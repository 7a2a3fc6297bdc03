//! JSON rendering for certificates, counterexamples, and verify
//! outcomes.
//!
//! No serde in the build environment, so the emitters are hand-written
//! for the one stable document shape each type needs, with strings
//! escaped by [`st_core::json::escape`]. Spike times go through the
//! shared codec (`Json::from(time)`): `∞ → null` and finite ticks to
//! plain numbers, so consumers never parse the `∞` glyph. The embedded
//! diagnostics object is exactly [`st_lint::Report::to_json`]'s
//! document, so one parser ([`st_lint::Report::from_json`]) handles both
//! `spacetime lint --json` and `spacetime verify --json` findings.

use std::fmt::Write as _;

use st_core::json::{escape, Json};
use st_core::Time;

use crate::cert::Certificate;
use crate::equiv::{Counterexample, EquivProof};
use crate::VerifyOutcome;

/// A volley as a JSON array of scalars.
fn times_json(times: &[Time]) -> String {
    let cells: Vec<String> = times.iter().map(|&t| Json::from(t).to_string()).collect();
    format!("[{}]", cells.join(", "))
}

/// Indents every line after the first by `pad` spaces (for embedding a
/// multi-line JSON document as an object field).
fn indent_tail(text: &str, pad: usize) -> String {
    let padding = " ".repeat(pad);
    let mut lines = text.trim_end().lines();
    let mut out = lines.next().unwrap_or("").to_owned();
    for line in lines {
        out.push('\n');
        out.push_str(&padding);
        out.push_str(line);
    }
    out
}

impl Certificate {
    /// Renders the certificate as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"kind\": {},", escape(&self.kind));
        let _ = writeln!(out, "  \"window\": {},", self.window);
        let _ = writeln!(out, "  \"input_width\": {},", self.input_width);
        let _ = writeln!(out, "  \"output_width\": {},", self.output_width);
        let _ = writeln!(out, "  \"gate_count\": {},", self.gate_count);
        let _ = writeln!(out, "  \"depth\": {},", self.depth);
        let _ = writeln!(out, "  \"bounded\": {},", self.bounded);
        let _ = writeln!(
            out,
            "  \"worst_case_delay\": {},",
            self.worst_case_delay
                .map_or_else(|| "null".to_owned(), |d| d.to_string())
        );
        out.push_str("  \"outputs\": [");
        for (i, b) in self.outputs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{ \"line\": {}, \"lo\": {}, \"hi\": {}, \"maybe_silent\": {} }}",
                b.line,
                Json::from(b.lo),
                Json::from(b.hi),
                b.maybe_silent
            );
        }
        out.push_str(if self.outputs.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(out, "  \"dead_gates\": {},", usize_list(&self.dead_gates));
        let _ = writeln!(
            out,
            "  \"dead_outputs\": {},",
            usize_list(&self.dead_outputs)
        );
        out.push_str("  \"skews\": [");
        for (i, s) in self.skews.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{ \"a\": {}, \"b\": {}, \"lo\": {}, \"hi\": {} }}",
                s.a, s.b, s.lo, s.hi
            );
        }
        out.push_str(if self.skews.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

fn usize_list(items: &[usize]) -> String {
    let cells: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", cells.join(", "))
}

impl EquivProof {
    /// Renders the proof as a single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"left\": {}, \"right\": {}, \"window\": {}, \"volleys\": {} }}",
            escape(&self.left),
            escape(&self.right),
            self.window,
            self.volleys
        )
    }
}

impl Counterexample {
    /// Renders the counterexample as a JSON object, including the
    /// replayable whitespace `volley` form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"left\": {},", escape(&self.left));
        let _ = writeln!(out, "  \"right\": {},", escape(&self.right));
        let _ = writeln!(out, "  \"inputs\": {},", times_json(&self.inputs));
        let _ = writeln!(
            out,
            "  \"left_outputs\": {},",
            times_json(&self.left_outputs)
        );
        let _ = writeln!(
            out,
            "  \"right_outputs\": {},",
            times_json(&self.right_outputs)
        );
        let _ = writeln!(out, "  \"output\": {},", self.output);
        let _ = writeln!(out, "  \"volley\": {}", escape(&self.volley_line()));
        out.push_str("}\n");
        out
    }
}

impl VerifyOutcome {
    /// Renders the whole outcome — certificate, proofs, counterexamples,
    /// and the diagnostics report — as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n");
        let _ = writeln!(out, "  \"kind\": {},", escape(&self.kind));
        let _ = writeln!(out, "  \"window\": {},", self.window);
        let _ = writeln!(
            out,
            "  \"certificate\": {},",
            indent_tail(&self.certificate.to_json(), 2)
        );
        out.push_str("  \"proofs\": [");
        for (i, p) in self.proofs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}", p.to_json());
        }
        out.push_str(if self.proofs.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"counterexamples\": [");
        for (i, c) in self.counterexamples.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}", indent_tail(&c.to_json(), 4));
        }
        out.push_str(if self.counterexamples.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(
            out,
            "  \"report\": {}",
            indent_tail(&self.report.to_json(), 2)
        );
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::OutputBound;

    #[test]
    fn certificate_json_maps_infinity_to_null() {
        let cert = Certificate {
            kind: "net".to_owned(),
            window: 3,
            input_width: 2,
            output_width: 2,
            gate_count: 5,
            depth: 2,
            outputs: vec![
                OutputBound {
                    line: 0,
                    lo: Time::ZERO,
                    hi: Time::finite(4),
                    maybe_silent: true,
                },
                OutputBound {
                    line: 1,
                    lo: Time::INFINITY,
                    hi: Time::INFINITY,
                    maybe_silent: true,
                },
            ],
            worst_case_delay: Some(4),
            bounded: true,
            dead_gates: vec![3],
            dead_outputs: vec![1],
            skews: vec![crate::cert::SkewBound {
                a: 0,
                b: 1,
                lo: -2,
                hi: 3,
            }],
        };
        let json = cert.to_json();
        assert!(json.contains("\"lo\": null"), "{json}");
        assert!(
            json.contains("{ \"a\": 0, \"b\": 1, \"lo\": -2, \"hi\": 3 }"),
            "{json}"
        );
        assert!(json.contains("\"worst_case_delay\": 4"), "{json}");
        assert!(json.contains("\"dead_gates\": [3]"), "{json}");
        assert!(json.contains("\"dead_outputs\": [1]"), "{json}");
    }

    #[test]
    fn counterexample_json_carries_the_replay_volley() {
        let cex = Counterexample {
            left: "net".to_owned(),
            right: "grl".to_owned(),
            inputs: vec![Time::ZERO, Time::INFINITY],
            left_outputs: vec![Time::finite(2)],
            right_outputs: vec![Time::finite(3)],
            output: 0,
        };
        let json = cex.to_json();
        assert!(json.contains("\"inputs\": [0, null]"), "{json}");
        assert!(json.contains("\"volley\": \"0 ∞\""), "{json}");
    }
}
