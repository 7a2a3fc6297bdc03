//! The perf-trend ledger: an append-only JSONL history of bench medians.
//!
//! Where `BENCH_<label>.json` is a full [`BenchReport`] snapshot, the
//! ledger (`BENCH_history.jsonl`, appended by `spacetime bench
//! --history`) keeps one compact [`TrendRow`] per bench run — label,
//! timestamp, git revision, and the per-scenario p50 wall-clock — so
//! performance can be read *over time* rather than pairwise.
//!
//! Schema id: [`TREND_SCHEMA`] (`spacetime-trend/1`), one JSON object
//! per line. Unknown scenarios are carried verbatim; [`render_trend`]
//! diffs every row against a baseline report (normally the committed
//! `BENCH_seed.json`) and renders a per-scenario delta table.

use std::collections::BTreeMap;

use st_core::json::Json;

use crate::report::{str_field, u64_field, BenchReport};

/// Schema identifier written into (and required of) every ledger row.
pub const TREND_SCHEMA: &str = "spacetime-trend/1";

/// One bench run, reduced to its per-scenario medians.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendRow {
    /// Schema id; always [`TREND_SCHEMA`] for rows this module writes.
    pub schema: String,
    /// Report label the row was taken from.
    pub label: String,
    /// Unix timestamp (seconds) of the source report.
    pub created_unix: u64,
    /// Git revision of the source report.
    pub git_rev: String,
    /// Median wall-clock nanos, keyed by scenario name.
    pub p50s: BTreeMap<String, u64>,
}

impl TrendRow {
    /// Reduces a full bench report to a ledger row.
    #[must_use]
    pub fn from_report(report: &BenchReport) -> TrendRow {
        TrendRow {
            schema: TREND_SCHEMA.to_owned(),
            label: report.label.clone(),
            created_unix: report.created_unix,
            git_rev: report.git_rev.clone(),
            p50s: report
                .scenarios
                .iter()
                .map(|s| (s.name.clone(), s.wall_nanos.p50))
                .collect(),
        }
    }

    /// Renders the row as one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let p50s = self
            .p50s
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Int(v.into())))
            .collect();
        Json::Obj(BTreeMap::from([
            ("schema".to_owned(), Json::Str(self.schema.clone())),
            ("label".to_owned(), Json::Str(self.label.clone())),
            (
                "created_unix".to_owned(),
                Json::Int(self.created_unix.into()),
            ),
            ("git_rev".to_owned(), Json::Str(self.git_rev.clone())),
            ("p50s".to_owned(), Json::Obj(p50s)),
        ]))
        .to_string()
    }

    /// Parses one ledger line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem: malformed JSON, wrong
    /// or missing schema id, or any missing/ill-typed required field.
    pub fn from_json_line(line: &str) -> Result<TrendRow, String> {
        let root = Json::parse(line)?;
        let schema = str_field(&root, "schema")?;
        if schema != TREND_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {TREND_SCHEMA:?})"
            ));
        }
        let p50s = root
            .get("p50s")
            .and_then(Json::as_obj)
            .ok_or("missing or non-object field \"p50s\"")?
            .iter()
            .map(|(k, n)| {
                n.as_int()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("p50 {k:?} is not an integer"))
            })
            .collect::<Result<_, _>>()?;
        Ok(TrendRow {
            schema,
            label: str_field(&root, "label")?,
            created_unix: u64_field(&root, "created_unix")?,
            git_rev: str_field(&root, "git_rev")?,
            p50s,
        })
    }
}

/// Parses a whole ledger file (blank lines skipped), oldest row first.
///
/// # Errors
///
/// Returns the first per-line parse error, prefixed with its 1-based
/// line number.
pub fn parse_history(text: &str) -> Result<Vec<TrendRow>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| TrendRow::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Renders the ledger as a per-scenario trend table against a baseline.
///
/// Every scenario appearing in the baseline or any row gets one line per
/// ledger row, showing the row's p50 and its ratio to the baseline p50;
/// scenarios a given row is missing are skipped for that row. Rows
/// render oldest first, so reading down a scenario block reads forward
/// in time.
#[must_use]
pub fn render_trend(baseline: &BenchReport, rows: &[TrendRow]) -> String {
    use std::fmt::Write as _;
    let base: BTreeMap<&str, u64> = baseline
        .scenarios
        .iter()
        .map(|s| (s.name.as_str(), s.wall_nanos.p50))
        .collect();
    let mut names: Vec<&str> = base.keys().copied().collect();
    for row in rows {
        for name in row.p50s.keys() {
            if !base.contains_key(name.as_str()) && !names.contains(&name.as_str()) {
                names.push(name.as_str());
            }
        }
    }
    names.sort_unstable();
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once(baseline.label.len()))
        .chain(std::iter::once("label".len()))
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trend vs baseline {:?} ({} scenario(s), {} ledger row(s))",
        baseline.label,
        names.len(),
        rows.len()
    );
    for name in names {
        let _ = writeln!(out, "\n{name}");
        let _ = writeln!(
            out,
            "  {:<label_w$}  {:>8}  {:>12}  {:>7}",
            "label", "git", "p50 ns", "ratio"
        );
        if let Some(&p50) = base.get(name) {
            let _ = writeln!(
                out,
                "  {:<label_w$}  {:>8}  {p50:>12}  {:>6.2}x",
                baseline.label, baseline.git_rev, 1.0
            );
        }
        for row in rows {
            let Some(&p50) = row.p50s.get(name) else {
                continue;
            };
            let ratio = base
                .get(name)
                .map(|&b| if b == 0 { 1.0 } else { p50 as f64 / b as f64 });
            match ratio {
                Some(ratio) => {
                    let _ = writeln!(
                        out,
                        "  {:<label_w$}  {:>8}  {p50:>12}  {ratio:>6.2}x",
                        row.label, row.git_rev
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {:<label_w$}  {:>8}  {p50:>12}  {:>7}",
                        row.label, row.git_rev, "-"
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MachineInfo, Scenario, WallStats, SCHEMA};

    fn report(label: &str, p50: u64) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_owned(),
            label: label.to_owned(),
            created_unix: 1_700_000_000,
            git_rev: "abc1234".to_owned(),
            machine: MachineInfo {
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
                cpus: 8,
            },
            scenarios: vec![Scenario {
                name: "net/8/t2".to_owned(),
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
                throughput_volleys_per_sec: 0.0,
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }],
        }
    }

    #[test]
    fn row_round_trips_through_jsonl() {
        let row = TrendRow::from_report(&report("nightly", 1234));
        let line = row.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(TrendRow::from_json_line(&line).unwrap(), row);
    }

    #[test]
    fn history_parses_many_lines_and_reports_line_numbers() {
        let a = TrendRow::from_report(&report("a", 100)).to_json_line();
        let b = TrendRow::from_report(&report("b", 150)).to_json_line();
        let text = format!("{a}\n\n{b}\n");
        let rows = parse_history(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "a");
        assert_eq!(rows[1].label, "b");

        let bad = format!("{a}\nnot json\n");
        let err = parse_history(&bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");

        let wrong = a.replace(TREND_SCHEMA, "other/9");
        let err = parse_history(&wrong).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn trend_table_shows_ratios_against_baseline() {
        let baseline = report("seed", 100);
        let rows = vec![
            TrendRow::from_report(&report("run1", 150)),
            TrendRow::from_report(&report("run2", 50)),
        ];
        let table = render_trend(&baseline, &rows);
        assert!(table.contains("net/8/t2"), "{table}");
        assert!(table.contains("1.50x"), "{table}");
        assert!(table.contains("0.50x"), "{table}");
        assert!(table.contains("seed"), "{table}");
        // Rows render oldest-first under each scenario.
        let run1 = table.find("run1").unwrap();
        let run2 = table.find("run2").unwrap();
        assert!(run1 < run2, "{table}");
    }

    #[test]
    fn trend_handles_scenarios_missing_from_baseline() {
        let baseline = report("seed", 100);
        let mut extra = TrendRow::from_report(&report("run1", 150));
        extra.p50s.insert("tnn/4/t1".to_owned(), 999);
        let table = render_trend(&baseline, &[extra]);
        assert!(table.contains("tnn/4/t1"), "{table}");
        assert!(table.contains('-'), "{table}");
    }
}
