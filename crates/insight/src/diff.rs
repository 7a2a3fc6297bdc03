//! Cross-run divergence diffing: *where* two runs first disagree.
//!
//! Two granularities cover the two real comparison scenarios:
//!
//! * [`diff_gate_runs`] — both runs came from the **same gate graph**
//!   (a run vs. a re-run, or a run vs. a text-level mutant that
//!   preserves shape). Gates are scanned per volley in index order —
//!   the builder guarantees sources precede their gate, so index order
//!   is topological and the first differing gate is a *root cause*: all
//!   of its sources still agreed, and their agreed times are attached
//!   as causal context.
//! * [`diff_output_runs`] — the runs came from **different lowerings**
//!   of the same behavior (raw vs. `spacetime opt`, net vs. column).
//!   Gate indices are incomparable, so the diff projects to output
//!   lines, the representation-independent observable.
//!
//! Both return the *first* divergence in (volley, position) order, or
//! `None` when the runs agree everywhere — `spacetime inspect --diff`
//! maps that to the workspace's 0/1 exit convention.

use st_core::json::Json;
use st_core::Time;
use st_lint::LintGraph;

use crate::db::{SpikeDb, Unit};
use crate::InsightError;

fn fmt_time(t: Time) -> String {
    t.value()
        .map_or_else(|| "inf".to_owned(), |v| v.to_string())
}

/// The first gate-level disagreement between two same-shape runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateDivergence {
    /// Volley position (within the runs) of the divergence.
    pub volley: usize,
    /// The first gate, in topological (index) order, whose firing time
    /// differs.
    pub gate: usize,
    /// The gate's operation name.
    pub op: &'static str,
    /// Recorded firing time in run A.
    pub in_a: Time,
    /// Recorded firing time in run B.
    pub in_b: Time,
    /// The gate's sources with their (agreed) firing times — every
    /// source still matched across the runs, which is what makes this
    /// gate the root cause rather than a downstream symptom.
    pub sources: Vec<(usize, Time)>,
}

impl GateDivergence {
    /// A one-paragraph human rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let context = if self.sources.is_empty() {
            String::new()
        } else {
            let agreed: Vec<String> = self
                .sources
                .iter()
                .map(|&(s, t)| format!("g{s}@{}", fmt_time(t)))
                .collect();
            format!("  sources agreed: {}\n", agreed.join(", "))
        };
        format!(
            "first divergence: volley {}, gate {} ({})\n  run A: {}\n  run B: {}\n{context}",
            self.volley,
            self.gate,
            self.op,
            fmt_time(self.in_a),
            fmt_time(self.in_b),
        )
    }

    /// A single-object JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let sources: Vec<String> = self
            .sources
            .iter()
            .map(|&(s, t)| format!("{{\"gate\":{s},\"at\":{}}}", Json::from(t)))
            .collect();
        format!(
            "{{\"volley\":{},\"gate\":{},\"op\":\"{}\",\"a\":{},\"b\":{},\"sources\":[{}]}}",
            self.volley,
            self.gate,
            self.op,
            Json::from(self.in_a),
            Json::from(self.in_b),
            sources.join(",")
        )
    }
}

/// The first output-line disagreement between two runs of (supposedly)
/// equivalent artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputDivergence {
    /// Volley position of the divergence.
    pub volley: usize,
    /// The output line that differs.
    pub line: usize,
    /// Output time in run A.
    pub in_a: Time,
    /// Output time in run B.
    pub in_b: Time,
}

impl OutputDivergence {
    /// A one-line human rendering.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "first divergence: volley {}, output {}: A={} B={}\n",
            self.volley,
            self.line,
            fmt_time(self.in_a),
            fmt_time(self.in_b)
        )
    }

    /// A single-object JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"volley\":{},\"line\":{},\"a\":{},\"b\":{}}}",
            self.volley,
            self.line,
            Json::from(self.in_a),
            Json::from(self.in_b)
        )
    }
}

/// Locates the first gate-level divergence between two recorded runs of
/// the same gate graph, in topological+time order. `Ok(None)` means the
/// runs agree at every gate of every volley.
///
/// # Errors
///
/// [`InsightError::Truncated`] when either recording dropped events (a
/// missing event would read as a spurious `∞` divergence);
/// [`InsightError::ShapeMismatch`] when the runs cover different volley
/// counts.
pub fn diff_gate_runs(
    graph: &LintGraph,
    a: &SpikeDb,
    b: &SpikeDb,
) -> Result<Option<GateDivergence>, InsightError> {
    for db in [a, b] {
        if db.is_truncated() {
            return Err(InsightError::Truncated {
                dropped: db.dropped(),
            });
        }
    }
    if a.volleys().len() != b.volleys().len() {
        return Err(InsightError::ShapeMismatch {
            message: format!(
                "run A has {} volley(s), run B has {}",
                a.volleys().len(),
                b.volleys().len()
            ),
        });
    }
    for (volley, (va, vb)) in a.volleys().iter().zip(b.volleys()).enumerate() {
        for (gate, node) in graph.nodes().iter().enumerate() {
            let (ta, tb) = (va.time_of(Unit::Gate(gate)), vb.time_of(Unit::Gate(gate)));
            if ta == tb {
                continue;
            }
            let sources = node
                .sources
                .iter()
                .map(|&s| (s, va.time_of(Unit::Gate(s))))
                .collect();
            return Ok(Some(GateDivergence {
                volley,
                gate,
                op: node.op.name(),
                in_a: ta,
                in_b: tb,
                sources,
            }));
        }
    }
    Ok(None)
}

/// Locates the first output-line divergence between two runs given as
/// per-volley output vectors (as produced by any engine's batch
/// evaluation). `Ok(None)` means the outputs agree everywhere.
///
/// # Errors
///
/// [`InsightError::ShapeMismatch`] when the runs cover different volley
/// counts or output widths.
pub fn diff_output_runs(
    a: &[Vec<Time>],
    b: &[Vec<Time>],
) -> Result<Option<OutputDivergence>, InsightError> {
    if a.len() != b.len() {
        return Err(InsightError::ShapeMismatch {
            message: format!("run A has {} volley(s), run B has {}", a.len(), b.len()),
        });
    }
    for (volley, (oa, ob)) in a.iter().zip(b).enumerate() {
        if oa.len() != ob.len() {
            return Err(InsightError::ShapeMismatch {
                message: format!(
                    "volley {volley}: run A has {} output line(s), run B has {}",
                    oa.len(),
                    ob.len()
                ),
            });
        }
        for (line, (&ta, &tb)) in oa.iter().zip(ob).enumerate() {
            if ta != tb {
                return Ok(Some(OutputDivergence {
                    volley,
                    line,
                    in_a: ta,
                    in_b: tb,
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_lint::LintOp;
    use st_obs::ObsEvent;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    /// y = min(x0+1, x1).
    fn chain() -> LintGraph {
        let mut g = LintGraph::new(2);
        let a = g.push(LintOp::Input(0), vec![]);
        let b = g.push(LintOp::Input(1), vec![]);
        let d = g.push(LintOp::Inc(1), vec![a]);
        let m = g.push(LintOp::Min, vec![d, b]);
        g.set_outputs(vec![m]);
        g
    }

    /// Records one volley of `graph` over `inputs` as an event stream.
    fn record(graph: &LintGraph, volleys: &[Vec<Time>]) -> SpikeDb {
        let mut events = Vec::new();
        for (i, inputs) in volleys.iter().enumerate() {
            events.push(ObsEvent::VolleyStart { index: i });
            let values = crate::cone::eval_graph(graph, inputs).unwrap();
            for (gate, (&at, node)) in values.iter().zip(graph.nodes()).enumerate() {
                if at.is_finite() {
                    events.push(ObsEvent::GateFired {
                        gate,
                        op: node.op.name(),
                        at,
                    });
                }
            }
        }
        SpikeDb::from_events(&events)
    }

    #[test]
    fn identical_runs_diff_clean() {
        let g = chain();
        let volleys = vec![vec![t(0), t(3)], vec![t(2), t(0)]];
        let a = record(&g, &volleys);
        let b = record(&g, &volleys);
        assert_eq!(diff_gate_runs(&g, &a, &b).unwrap(), None);
    }

    #[test]
    fn first_divergence_is_the_root_cause_with_agreed_sources() {
        let g = chain();
        let a = record(&g, &[vec![t(0), t(3)]]);
        // Mutant graph: the inc delta bumped 1 → 2. Same shape, so gate
        // indices align; gate 2 is the first (and root) divergence even
        // though gate 3 differs downstream too.
        let mut mutant = chain();
        mutant.set_op(2, LintOp::Inc(2));
        let b = record(&mutant, &[vec![t(0), t(3)]]);

        let d = diff_gate_runs(&g, &a, &b).unwrap().unwrap();
        assert_eq!((d.volley, d.gate, d.op), (0, 2, "inc"));
        assert_eq!((d.in_a, d.in_b), (t(1), t(2)));
        assert_eq!(d.sources, vec![(0, t(0))]);
        assert!(d.render().contains("gate 2 (inc)"), "{}", d.render());
        assert!(d.to_json().contains("\"a\":1,\"b\":2"), "{}", d.to_json());
    }

    #[test]
    fn silence_differences_are_divergences() {
        let g = chain();
        let a = record(&g, &[vec![t(0), t(3)]]);
        // lt-swapped mutant: min → lt makes gate 3 silent (1 < 3 holds,
        // actually fires)… use max instead: max(1,3)=3 ≠ min=1.
        let mut mutant = chain();
        mutant.set_op(3, LintOp::Max);
        let b = record(&mutant, &[vec![t(0), t(3)]]);
        let d = diff_gate_runs(&g, &a, &b).unwrap().unwrap();
        assert_eq!(d.gate, 3);
        assert_eq!((d.in_a, d.in_b), (t(1), t(3)));
    }

    #[test]
    fn truncated_and_mismatched_runs_are_refused() {
        let g = chain();
        let a = record(&g, &[vec![t(0), t(3)]]);
        let truncated = SpikeDb::from_events_with_dropped(&[], 5);
        assert!(matches!(
            diff_gate_runs(&g, &a, &truncated),
            Err(InsightError::Truncated { dropped: 5 })
        ));
        let b = record(&g, &[vec![t(0), t(3)], vec![t(1), t(1)]]);
        assert!(matches!(
            diff_gate_runs(&g, &a, &b),
            Err(InsightError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn output_diff_localizes_and_validates() {
        let a = vec![vec![t(1), Time::INFINITY], vec![t(2), t(3)]];
        assert_eq!(diff_output_runs(&a, &a).unwrap(), None);

        let b = vec![vec![t(1), Time::INFINITY], vec![t(2), t(9)]];
        let d = diff_output_runs(&a, &b).unwrap().unwrap();
        assert_eq!((d.volley, d.line, d.in_a, d.in_b), (1, 1, t(3), t(9)));
        assert!(d.render().contains("volley 1, output 1"), "{}", d.render());
        assert!(d.to_json().contains("\"a\":3,\"b\":9"), "{}", d.to_json());

        assert!(diff_output_runs(&a, &a[..1]).is_err());
        let ragged = vec![vec![t(1)], vec![t(2), t(3)]];
        assert!(diff_output_runs(&a, &ragged).is_err());
    }
}
