//! The schema-versioned `BENCH_<label>.json` report: types, JSON
//! round-trip, validation, and baseline comparison.
//!
//! Schema id: [`SCHEMA`] (`spacetime-bench/1`). A report records where it
//! was taken ([`MachineInfo`], git revision, unix timestamp) and one
//! [`Scenario`] per bench matrix cell: engine × problem size × thread
//! count, with warmup/measured iteration counts, exact wall-clock
//! percentiles over the measured iterations ([`WallStats`]), derived
//! throughput, and the full engine counter/histogram snapshot.
//!
//! [`compare`] diffs two reports scenario-by-scenario on median (p50)
//! wall-clock and flags any scenario whose ratio exceeds a configurable
//! regression threshold; the CLI's `spacetime bench --compare` renders
//! the resulting table and exits non-zero when
//! [`CompareOutcome::regressed`] is set. The vendored criterion stand-in
//! dumps the same scenario shape (schema id `spacetime-criterion/1`), so
//! one set of tooling reads both.

use std::collections::BTreeMap;

use st_core::json::Json;

use crate::hist::nearest_rank;

/// Schema identifier written into (and required of) every bench report.
pub const SCHEMA: &str = "spacetime-bench/1";

/// Where a report was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available parallelism at bench time.
    pub cpus: u64,
}

impl MachineInfo {
    /// Probes the current host.
    #[must_use]
    pub fn current() -> MachineInfo {
        MachineInfo {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        }
    }
}

/// Exact wall-clock statistics over the measured iterations of one
/// scenario, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct WallStats {
    /// Fastest iteration.
    pub min: u64,
    /// Median (nearest-rank p50).
    pub p50: u64,
    /// Nearest-rank p95.
    pub p95: u64,
    /// Slowest iteration.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl WallStats {
    /// Computes stats from raw per-iteration nanos. `None` when empty.
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Option<WallStats> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Some(WallStats {
            min: sorted[0],
            p50: nearest_rank(&sorted, 50)?,
            p95: nearest_rank(&sorted, 95)?,
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().map(|&n| n as f64).sum::<f64>() / sorted.len() as f64,
        })
    }
}

/// Bucket-granular summary of one engine histogram, embedded per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Bucket-resolution median.
    pub p50: u64,
    /// Bucket-resolution p95.
    pub p95: u64,
}

impl HistSummary {
    /// Summarizes a histogram. `None` when empty.
    #[must_use]
    pub fn from_histogram(h: &crate::hist::Histogram) -> Option<HistSummary> {
        Some(HistSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min()?,
            max: h.max()?,
            p50: h.approx_percentile(50)?,
            p95: h.approx_percentile(95)?,
        })
    }
}

/// One bench matrix cell: engine × size × threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique scenario name, e.g. `net/16/t2`.
    pub name: String,
    /// Engine id: `table`, `net`, `grl`, or `tnn`.
    pub engine: String,
    /// Problem size (input width).
    pub size: u64,
    /// Batch worker thread count.
    pub threads: u64,
    /// Warmup iterations (not measured).
    pub warmup: u64,
    /// Measured iterations.
    pub iterations: u64,
    /// Volleys evaluated per iteration.
    pub volleys_per_iter: u64,
    /// Per-iteration wall-clock stats.
    pub wall_nanos: WallStats,
    /// Volleys per second at the median iteration time.
    pub throughput_volleys_per_sec: f64,
    /// Engine counters accumulated over the measured iterations.
    pub counters: BTreeMap<String, u64>,
    /// Engine histograms accumulated over the measured iterations.
    pub histograms: BTreeMap<String, HistSummary>,
}

/// A full bench report: header plus scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema id; always [`SCHEMA`] for reports this module writes.
    pub schema: String,
    /// Report label (the `<label>` in `BENCH_<label>.json`).
    pub label: String,
    /// Unix timestamp (seconds) when the report was taken.
    pub created_unix: u64,
    /// `git rev-parse --short HEAD` at bench time, or `unknown`.
    pub git_rev: String,
    /// Host description.
    pub machine: MachineInfo,
    /// One entry per matrix cell, in run order.
    pub scenarios: Vec<Scenario>,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn num(n: u64) -> Json {
    Json::Int(n.into())
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON (diff-friendly; this is
    /// the format of the committed `BENCH_seed.json` baseline).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    fn to_value(&self) -> Json {
        obj(vec![
            ("schema", Json::Str(self.schema.clone())),
            ("label", Json::Str(self.label.clone())),
            ("created_unix", num(self.created_unix)),
            ("git_rev", Json::Str(self.git_rev.clone())),
            (
                "machine",
                obj(vec![
                    ("os", Json::Str(self.machine.os.clone())),
                    ("arch", Json::Str(self.machine.arch.clone())),
                    ("cpus", num(self.machine.cpus)),
                ]),
            ),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(scenario_to_value).collect()),
            ),
        ])
    }

    /// Parses and validates a report document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem: malformed JSON, wrong
    /// or missing schema id, or any missing/ill-typed required field.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let root = Json::parse(text)?;
        let schema = str_field(&root, "schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let machine = root.get("machine").ok_or("missing field \"machine\"")?;
        let scenarios = root
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("missing or non-array field \"scenarios\"")?;
        Ok(BenchReport {
            schema,
            label: str_field(&root, "label")?,
            created_unix: u64_field(&root, "created_unix")?,
            git_rev: str_field(&root, "git_rev")?,
            machine: MachineInfo {
                os: str_field(machine, "os")?,
                arch: str_field(machine, "arch")?,
                cpus: u64_field(machine, "cpus")?,
            },
            scenarios: scenarios
                .iter()
                .enumerate()
                .map(|(i, s)| scenario_from_value(s).map_err(|e| format!("scenario {i}: {e}")))
                .collect::<Result<_, _>>()?,
        })
    }
}

fn scenario_to_value(s: &Scenario) -> Json {
    let wall = obj(vec![
        ("min", num(s.wall_nanos.min)),
        ("p50", num(s.wall_nanos.p50)),
        ("p95", num(s.wall_nanos.p95)),
        ("max", num(s.wall_nanos.max)),
        ("mean", Json::Float(s.wall_nanos.mean)),
    ]);
    let counters = Json::Obj(
        s.counters
            .iter()
            .map(|(k, &v)| (k.clone(), num(v)))
            .collect(),
    );
    let histograms = Json::Obj(
        s.histograms
            .iter()
            .map(|(k, h)| {
                (
                    k.clone(),
                    obj(vec![
                        ("count", num(h.count)),
                        ("sum", num(h.sum)),
                        ("min", num(h.min)),
                        ("max", num(h.max)),
                        ("p50", num(h.p50)),
                        ("p95", num(h.p95)),
                    ]),
                )
            })
            .collect(),
    );
    obj(vec![
        ("name", Json::Str(s.name.clone())),
        ("engine", Json::Str(s.engine.clone())),
        ("size", num(s.size)),
        ("threads", num(s.threads)),
        ("warmup", num(s.warmup)),
        ("iterations", num(s.iterations)),
        ("volleys_per_iter", num(s.volleys_per_iter)),
        ("wall_nanos", wall),
        (
            "throughput_volleys_per_sec",
            Json::Float(s.throughput_volleys_per_sec),
        ),
        ("counters", counters),
        ("histograms", histograms),
    ])
}

pub(crate) fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

pub(crate) fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_int)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn f64_field(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-number field {key:?}"))
}

fn scenario_from_value(v: &Json) -> Result<Scenario, String> {
    let wall = v.get("wall_nanos").ok_or("missing field \"wall_nanos\"")?;
    let counters = v
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("missing or non-object field \"counters\"")?
        .iter()
        .map(|(k, n)| {
            n.as_int()
                .map(|n| (k.clone(), n))
                .ok_or_else(|| format!("counter {k:?} is not an integer"))
        })
        .collect::<Result<_, _>>()?;
    let histograms = v
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("missing or non-object field \"histograms\"")?
        .iter()
        .map(|(k, h)| {
            Ok::<_, String>((
                k.clone(),
                HistSummary {
                    count: u64_field(h, "count")?,
                    sum: u64_field(h, "sum")?,
                    min: u64_field(h, "min")?,
                    max: u64_field(h, "max")?,
                    p50: u64_field(h, "p50")?,
                    p95: u64_field(h, "p95")?,
                },
            ))
        })
        .collect::<Result<_, _>>()?;
    Ok(Scenario {
        name: str_field(v, "name")?,
        engine: str_field(v, "engine")?,
        size: u64_field(v, "size")?,
        threads: u64_field(v, "threads")?,
        warmup: u64_field(v, "warmup")?,
        iterations: u64_field(v, "iterations")?,
        volleys_per_iter: u64_field(v, "volleys_per_iter")?,
        wall_nanos: WallStats {
            min: u64_field(wall, "min")?,
            p50: u64_field(wall, "p50")?,
            p95: u64_field(wall, "p95")?,
            max: u64_field(wall, "max")?,
            mean: f64_field(wall, "mean")?,
        },
        throughput_volleys_per_sec: f64_field(v, "throughput_volleys_per_sec")?,
        counters,
        histograms,
    })
}

/// One row of a comparison: a scenario present in both reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Scenario name.
    pub name: String,
    /// Baseline median nanos.
    pub old_p50: u64,
    /// Candidate median nanos.
    pub new_p50: u64,
    /// `new_p50 / old_p50` (1.0 when the baseline is 0).
    pub ratio: f64,
    /// `true` when `ratio` exceeds the threshold.
    pub regressed: bool,
}

/// The result of diffing two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOutcome {
    /// One row per scenario present in both reports, in candidate order.
    pub rows: Vec<CompareRow>,
    /// Scenario names only in the baseline.
    pub missing: Vec<String>,
    /// Scenario names only in the candidate.
    pub added: Vec<String>,
    /// The threshold the rows were judged against.
    pub threshold: f64,
    /// `true` when any shared scenario regressed past the threshold.
    pub regressed: bool,
}

/// Diffs `new` against the `old` baseline on median wall-clock.
///
/// A scenario regresses when `new_p50 > old_p50 * threshold`; a threshold
/// of `1.5` tolerates up to 50% slowdown. Scenarios present in only one
/// report are listed but never gate.
#[must_use]
pub fn compare(old: &BenchReport, new: &BenchReport, threshold: f64) -> CompareOutcome {
    let old_by_name: BTreeMap<&str, &Scenario> =
        old.scenarios.iter().map(|s| (s.name.as_str(), s)).collect();
    let new_names: BTreeMap<&str, ()> = new
        .scenarios
        .iter()
        .map(|s| (s.name.as_str(), ()))
        .collect();
    let mut rows = Vec::new();
    let mut added = Vec::new();
    for s in &new.scenarios {
        let Some(base) = old_by_name.get(s.name.as_str()) else {
            added.push(s.name.clone());
            continue;
        };
        let ratio = if base.wall_nanos.p50 == 0 {
            1.0
        } else {
            s.wall_nanos.p50 as f64 / base.wall_nanos.p50 as f64
        };
        rows.push(CompareRow {
            name: s.name.clone(),
            old_p50: base.wall_nanos.p50,
            new_p50: s.wall_nanos.p50,
            ratio,
            regressed: ratio > threshold,
        });
    }
    let missing = old
        .scenarios
        .iter()
        .filter(|s| !new_names.contains_key(s.name.as_str()))
        .map(|s| s.name.clone())
        .collect();
    let regressed = rows.iter().any(|r| r.regressed);
    CompareOutcome {
        rows,
        missing,
        added,
        threshold,
        regressed,
    }
}

impl CompareOutcome {
    /// Renders the per-scenario delta table for terminal display.
    #[must_use]
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once("scenario".len()))
            .max()
            .unwrap_or(8);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>12}  {:>12}  {:>7}  status",
            "scenario", "old p50 ns", "new p50 ns", "ratio"
        );
        for r in &self.rows {
            let status = if r.regressed { "REGRESSED" } else { "ok" };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>12}  {:>12}  {:>6.2}x  {status}",
                r.name, r.old_p50, r.new_p50, r.ratio
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "{name:<name_w$}  (only in baseline)");
        }
        for name in &self.added {
            let _ = writeln!(out, "{name:<name_w$}  (new scenario, no baseline)");
        }
        let _ = writeln!(
            out,
            "threshold {:.2}x over {} shared scenario(s): {}",
            self.threshold,
            self.rows.len(),
            if self.regressed { "REGRESSED" } else { "ok" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario(name: &str, p50: u64) -> Scenario {
        let mut counters = BTreeMap::new();
        counters.insert("net.gate_evals".to_owned(), 42);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "batch.volley_nanos".to_owned(),
            HistSummary {
                count: 3,
                sum: 30,
                min: 5,
                max: 15,
                p50: 15,
                p95: 15,
            },
        );
        Scenario {
            name: name.to_owned(),
            engine: "net".to_owned(),
            size: 8,
            threads: 2,
            warmup: 1,
            iterations: 5,
            volleys_per_iter: 64,
            wall_nanos: WallStats {
                min: p50 / 2,
                p50,
                p95: p50 * 2,
                max: p50 * 2,
                mean: p50 as f64,
            },
            throughput_volleys_per_sec: 64.0 / (p50 as f64 / 1e9),
            counters,
            histograms,
        }
    }

    fn sample_report(p50: u64) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_owned(),
            label: "test".to_owned(),
            created_unix: 1_700_000_000,
            git_rev: "abc1234".to_owned(),
            machine: MachineInfo {
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
                cpus: 8,
            },
            scenarios: vec![sample_scenario("net/8/t2", p50)],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report(1000);
        let text = report.to_json();
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn validation_rejects_bad_documents() {
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{}").is_err());
        let wrong_schema = sample_report(10).to_json().replace(SCHEMA, "other/9");
        let err = BenchReport::from_json(&wrong_schema).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let no_wall = sample_report(10).to_json().replace("wall_nanos", "nope");
        assert!(BenchReport::from_json(&no_wall).is_err());
    }

    #[test]
    fn wall_stats_from_samples() {
        assert_eq!(WallStats::from_samples(&[]), None);
        let s = WallStats::from_samples(&[30, 10, 20, 40]).unwrap();
        assert_eq!(s.min, 10);
        assert_eq!(s.p50, 20);
        assert_eq!(s.p95, 40);
        assert_eq!(s.max, 40);
        assert_eq!(s.mean, 25.0);
    }

    #[test]
    fn compare_detects_injected_slowdown() {
        let baseline = sample_report(1000);
        // Within threshold: 1.2x slower, threshold 1.5x.
        let ok = compare(&baseline, &sample_report(1200), 1.5);
        assert!(!ok.regressed);
        assert_eq!(ok.rows.len(), 1);
        assert!(!ok.rows[0].regressed);
        // Injected slowdown: 3x slower blows through the 1.5x threshold.
        let slow = compare(&baseline, &sample_report(3000), 1.5);
        assert!(slow.regressed);
        assert!(slow.rows[0].regressed);
        assert!((slow.rows[0].ratio - 3.0).abs() < 1e-9);
        let table = slow.render_table();
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("net/8/t2"), "{table}");
    }

    #[test]
    fn compare_tracks_membership_changes() {
        let mut old = sample_report(100);
        old.scenarios.push(sample_scenario("gone", 50));
        let mut new = sample_report(100);
        new.scenarios.push(sample_scenario("fresh", 60));
        let out = compare(&old, &new, 1.5);
        assert_eq!(out.missing, vec!["gone".to_owned()]);
        assert_eq!(out.added, vec!["fresh".to_owned()]);
        assert!(!out.regressed);
        let table = out.render_table();
        assert!(table.contains("only in baseline"), "{table}");
        assert!(table.contains("new scenario"), "{table}");
    }

    #[test]
    fn zero_baseline_never_divides() {
        let mut old = sample_report(100);
        old.scenarios[0].wall_nanos.p50 = 0;
        let out = compare(&old, &sample_report(100), 1.5);
        assert!((out.rows[0].ratio - 1.0).abs() < 1e-9);
        assert!(!out.regressed);
    }
}
