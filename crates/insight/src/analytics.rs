//! Volley-coding analytics over a recorded run.
//!
//! § III.A of the paper defines the volley code by two distributional
//! properties — which units fire (the active subset) and *how tightly*
//! their spikes cluster in time (temporal precision, measured here as
//! per-volley extent: last finite spike minus first). This module
//! aggregates a [`SpikeDb`] into those distributions plus the WTA-side
//! statistics the column engine cares about: winner histograms, tie
//! counts, inhibition margins, and silent volleys.
//!
//! Everything is computed with integer arithmetic over tick counts and
//! rendered with fixed-precision division, so the output is
//! deterministic and diff-stable across platforms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use st_core::Time;

use crate::db::{SpikeDb, Unit};

/// Per-unit firing summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSummary {
    /// The unit.
    pub unit: Unit,
    /// Number of volleys it fired in.
    pub fires: usize,
    /// Earliest recorded firing time.
    pub first: Time,
    /// Latest recorded firing time.
    pub last: Time,
    /// Sum of its firing times in ticks (for mean computation).
    pub total_ticks: u64,
}

impl UnitSummary {
    /// Mean firing time in ticks, as fixed two-decimal text.
    #[must_use]
    pub fn mean(&self) -> String {
        fixed_mean(self.total_ticks, self.fires)
    }
}

/// `total / count` with two fixed decimals, `-` for an empty count.
fn fixed_mean(total: u64, count: usize) -> String {
    if count == 0 {
        return "-".to_owned();
    }
    let scaled = total * 100 / count as u64;
    format!("{}.{:02}", scaled / 100, scaled % 100)
}

/// Aggregate statistics over one recorded run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InsightStats {
    /// Number of volleys in the run.
    pub volleys: usize,
    /// Total indexed events.
    pub events: usize,
    /// Total spike-like events (gate firings, wire falls, neuron spikes).
    pub spikes: usize,
    /// Events the producing recorder dropped (0 = complete).
    pub dropped: u64,
    /// Per-unit summaries, in unit order.
    pub units: Vec<UnitSummary>,
    /// Spike-count histogram over firing times (ticks → spikes).
    pub histogram: BTreeMap<u64, usize>,
    /// Per-volley temporal extent (last finite spike − first), one entry
    /// per volley with at least one spike — the § III.A precision
    /// distribution.
    pub extents: Vec<u64>,
    /// Volleys in which nothing fired.
    pub silent_volleys: usize,
    /// WTA winner histogram (neuron → wins), from recorded decisions.
    pub winners: BTreeMap<usize, usize>,
    /// WTA decisions where every neuron stayed silent.
    pub no_winner: usize,
    /// WTA decisions with more than one neuron tied for earliest.
    pub ties: usize,
    /// Per-decision inhibition margins: runner-up output spike minus the
    /// winner's, one entry per decided volley with ≥ 2 neuron spikes.
    pub margins: Vec<u64>,
}

impl InsightStats {
    /// Aggregates a spike database into run statistics.
    #[must_use]
    pub fn from_db(db: &SpikeDb) -> InsightStats {
        let mut stats = InsightStats {
            volleys: db.volleys().len(),
            events: db.event_count(),
            dropped: db.dropped(),
            ..InsightStats::default()
        };
        let mut per_unit: BTreeMap<Unit, UnitSummary> = BTreeMap::new();
        for volley in db.volleys() {
            let mut first = Time::INFINITY;
            let mut last = Time::ZERO;
            let mut any = false;
            for &(unit, at) in &volley.spikes {
                stats.spikes += 1;
                let Some(ticks) = at.value() else { continue };
                any = true;
                first = Time::min_of([first, at]);
                last = Time::max_of([last, at]);
                *stats.histogram.entry(ticks).or_default() += 1;
                let entry = per_unit.entry(unit).or_insert(UnitSummary {
                    unit,
                    fires: 0,
                    first: at,
                    last: at,
                    total_ticks: 0,
                });
                entry.fires += 1;
                entry.first = Time::min_of([entry.first, at]);
                entry.last = Time::max_of([entry.last, at]);
                entry.total_ticks += ticks;
            }
            if any {
                let (Some(hi), Some(lo)) = (last.value(), first.value()) else {
                    unreachable!("finite by construction");
                };
                stats.extents.push(hi - lo);
            } else {
                stats.silent_volleys += 1;
            }
            if let Some((winner, tied)) = volley.wta {
                match winner {
                    Some(n) => *stats.winners.entry(n).or_default() += 1,
                    None => stats.no_winner += 1,
                }
                if tied > 1 {
                    stats.ties += 1;
                }
                let mut spikes: Vec<u64> = volley
                    .neuron_spikes()
                    .filter_map(|(_, at)| at.value())
                    .collect();
                spikes.sort_unstable();
                if spikes.len() >= 2 {
                    stats.margins.push(spikes[1] - spikes[0]);
                }
            }
        }
        stats.units = per_unit.into_values().collect();
        stats
    }

    /// Distribution summary of a sample: `(min, mean-text, max)`.
    fn summary(sample: &[u64]) -> (u64, String, u64) {
        let min = sample.iter().copied().min().unwrap_or(0);
        let max = sample.iter().copied().max().unwrap_or(0);
        (min, fixed_mean(sample.iter().sum(), sample.len()), max)
    }

    /// A human-readable multi-line report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "volleys: {}  events: {}  spikes: {}  silent volleys: {}\n",
            self.volleys, self.events, self.spikes, self.silent_volleys
        );
        if self.dropped > 0 {
            let _ = writeln!(out, "WARNING: recorder dropped {} event(s)", self.dropped);
        }
        if !self.extents.is_empty() {
            let (min, mean, max) = InsightStats::summary(&self.extents);
            let _ = writeln!(
                out,
                "volley extent (ticks): min {min}  mean {mean}  max {max}"
            );
        }
        if !self.units.is_empty() {
            let _ = writeln!(out, "unit          fires  rate   first  last  mean");
            for u in &self.units {
                let _ = writeln!(
                    out,
                    "{:<13} {:>5}  {:<5}  {:>5}  {:>4}  {}",
                    u.unit.to_string(),
                    u.fires,
                    fixed_mean(u.fires as u64 * 100, self.volleys.max(1) * 100),
                    u.first.value().unwrap_or(0),
                    u.last.value().unwrap_or(0),
                    u.mean()
                );
            }
        }
        if !self.winners.is_empty() || self.no_winner > 0 {
            let wins: Vec<String> = self
                .winners
                .iter()
                .map(|(n, c)| format!("n{n}:{c}"))
                .collect();
            let _ = writeln!(
                out,
                "wta: winners {}  none {}  ties {}",
                if wins.is_empty() {
                    "-".to_owned()
                } else {
                    wins.join(" ")
                },
                self.no_winner,
                self.ties
            );
            if !self.margins.is_empty() {
                let (min, mean, max) = InsightStats::summary(&self.margins);
                let _ = writeln!(out, "wta margin (ticks): min {min}  mean {mean}  max {max}");
            }
        }
        out
    }

    /// A single-object JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"volleys\":{},\"events\":{},\"spikes\":{},\"dropped\":{},\"silent_volleys\":{}",
            self.volleys, self.events, self.spikes, self.dropped, self.silent_volleys
        );
        out.push_str(",\"units\":[");
        for (i, u) in self.units.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"unit\":\"{}\",\"fires\":{},\"first\":{},\"last\":{}}}",
                u.unit,
                u.fires,
                u.first.value().unwrap_or(0),
                u.last.value().unwrap_or(0)
            );
        }
        out.push_str("],\"histogram\":{");
        for (i, (t, c)) in self.histogram.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{t}\":{c}");
        }
        out.push_str("},\"extents\":[");
        for (i, e) in self.extents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{e}");
        }
        out.push_str("],\"wta\":{\"winners\":{");
        for (i, (n, c)) in self.winners.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{n}\":{c}");
        }
        let _ = write!(
            out,
            "}},\"no_winner\":{},\"ties\":{},\"margins\":[",
            self.no_winner, self.ties
        );
        for (i, m) in self.margins.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{m}");
        }
        out.push_str("]}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_obs::ObsEvent;

    fn t(v: u64) -> Time {
        Time::finite(v)
    }

    fn sample_db() -> SpikeDb {
        SpikeDb::from_events(&[
            ObsEvent::VolleyStart { index: 0 },
            ObsEvent::NeuronSpike {
                neuron: 0,
                at: t(2),
            },
            ObsEvent::NeuronSpike {
                neuron: 1,
                at: t(5),
            },
            ObsEvent::WtaDecision {
                winner: Some(0),
                tied: 1,
            },
            ObsEvent::VolleyStart { index: 1 },
            ObsEvent::WtaDecision {
                winner: None,
                tied: 0,
            },
            ObsEvent::VolleyStart { index: 2 },
            ObsEvent::NeuronSpike {
                neuron: 0,
                at: t(4),
            },
            ObsEvent::NeuronSpike {
                neuron: 1,
                at: t(4),
            },
            ObsEvent::WtaDecision {
                winner: Some(0),
                tied: 2,
            },
        ])
    }

    #[test]
    fn aggregates_rates_extents_and_wta() {
        let stats = InsightStats::from_db(&sample_db());
        assert_eq!(stats.volleys, 3);
        assert_eq!(stats.spikes, 4);
        assert_eq!(stats.silent_volleys, 1);
        assert_eq!(stats.extents, vec![3, 0]);
        assert_eq!(stats.winners.get(&0), Some(&2));
        assert_eq!(stats.no_winner, 1);
        assert_eq!(stats.ties, 1);
        assert_eq!(stats.margins, vec![3, 0]);
        assert_eq!(stats.histogram.get(&4), Some(&2));

        let n0 = &stats.units[0];
        assert_eq!(n0.unit, Unit::Neuron(0));
        assert_eq!((n0.fires, n0.first, n0.last), (2, t(2), t(4)));
        assert_eq!(n0.mean(), "3.00");
    }

    #[test]
    fn renderings_are_stable() {
        let stats = InsightStats::from_db(&sample_db());
        let text = stats.render();
        assert!(text.contains("volleys: 3"), "{text}");
        assert!(
            text.contains("volley extent (ticks): min 0  mean 1.50  max 3"),
            "{text}"
        );
        assert!(text.contains("wta: winners n0:2  none 1  ties 1"), "{text}");
        assert!(text.contains("neuron0"), "{text}");

        let json = stats.to_json();
        assert!(json.contains("\"extents\":[3,0]"), "{json}");
        assert!(json.contains("\"winners\":{\"0\":2}"), "{json}");
        assert!(st_core::json::Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn truncation_warns() {
        let db = SpikeDb::from_events_with_dropped(&[], 9);
        let stats = InsightStats::from_db(&db);
        assert_eq!(stats.dropped, 9);
        assert!(stats.render().contains("dropped 9 event(s)"));
    }

    #[test]
    fn fixed_mean_formatting() {
        assert_eq!(fixed_mean(0, 0), "-");
        assert_eq!(fixed_mean(7, 2), "3.50");
        assert_eq!(fixed_mean(1, 3), "0.33");
    }
}
