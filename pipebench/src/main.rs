//! `pipebench --workload <compile|stream|burst> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints a run header (seed, machine shape, git revision, worker count,
//! sample counts), one line per metric, and as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` the per-layer metrics, and
//! writes the traced spans to `pipebench/traces/` as a Chrome timeline
//! and as JSONL.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use pipebench::workload::{run, run_traced, Report, Settings, Workload};
use spacetime::metrics::MachineInfo;
use spacetime::trace::{chrome_spans, spans_jsonl};

const USAGE: &str = "usage: pipebench --workload <compile|stream|burst> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    match run_cli() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_cli() -> Result<(), String> {
    let (settings, traced) = parse_args(std::env::args().skip(1))?;
    let report = if traced {
        run_traced(&settings)?
    } else {
        run(&settings)?
    };
    print!("{}", header(&settings, traced, &report));
    for metric in &report.metrics {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    for metric in &report.printed {
        println!(
            "{:<40} {:>16.6} {} (printed only: not bounded)",
            metric.name, metric.value, metric.unit
        );
    }
    if traced {
        for path in write_traces(&settings, &report)? {
            println!("spans written to {}", path.display());
        }
    }
    println!("{}", result_json(&report)?);
    Ok(())
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(Settings, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(s.ok_or_else(|| bad("duration"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing --{what}\n{USAGE}");
    let settings = Settings {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds: seconds.ok_or_else(|| missing("seconds"))?,
        threads: None,
    };
    Ok((settings, trace.ok_or_else(|| missing("trace"))?))
}

fn header(settings: &Settings, traced: bool, report: &Report) -> String {
    let machine = MachineInfo::current();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipebench workload={} seed={} seconds={} trace={}",
        settings.workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(traced)
    );
    let _ = writeln!(
        out,
        "machine: cpus={} arch={} os={}",
        machine.cpus, machine.arch, machine.os
    );
    let _ = writeln!(out, "revision: {}", git_revision());
    let _ = writeln!(out, "workers: {}", report.workers);
    for line in &report.samples {
        let _ = writeln!(out, "samples: {line}");
    }
    let _ = writeln!(
        out,
        "failed_ratio: {} ({} of {} operations failed)",
        report.failed_ratio(),
        report.failed,
        report.attempted
    );
    out
}

/// The short revision of the checkout, or `unknown` when it is not a git
/// repository. Discovery stops at the working directory, so nothing
/// above it is read.
fn git_revision() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned())
}

/// Writes the traced spans through st-trace's renderers, so `spacetime
/// profile`'s viewers (Chrome's `about:tracing`, JSONL tooling) open them.
fn write_traces(settings: &Settings, report: &Report) -> Result<Vec<PathBuf>, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", settings.workload.name(), settings.seed);
    let files = [
        (
            dir.join(format!("{stem}.chrome.json")),
            chrome_spans(&report.records),
        ),
        (
            dir.join(format!("{stem}.spans.jsonl")),
            spans_jsonl(&report.records),
        ),
    ];
    files
        .into_iter()
        .map(|(path, text)| {
            std::fs::write(&path, text)
                .map(|()| path.clone())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        })
        .collect()
}

fn result_json(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}
