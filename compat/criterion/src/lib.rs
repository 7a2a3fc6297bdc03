//! Offline stand-in for the `criterion` crate.
//!
//! The build environment cannot reach crates.io, so this workspace vendors
//! a minimal wall-clock benchmark harness exposing the call surface its
//! benches use: [`Criterion::benchmark_group`], `bench_function` /
//! `bench_with_input` with [`BenchmarkId`], [`Throughput`], the
//! [`Bencher::iter`] loop, and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Reporting is deliberately simple: each benchmark warms up briefly,
//! times a fixed-duration measurement loop, and prints the median
//! per-iteration time (plus elements/second when a throughput was set).
//! There is no statistical analysis, HTML output, or baseline comparison.
//! Set `BENCH_QUICK=1` to shrink measurement time for smoke runs.
//!
//! Set `CRITERION_JSON=<path>` to additionally dump a machine-readable
//! summary of every benchmark run: schema `spacetime-criterion/1`, whose
//! scenario shape matches the `spacetime bench` report
//! (`spacetime-bench/1`, see `docs/metrics.md`) so the same tooling can
//! compare either. The file is written when [`criterion_main!`]'s entry
//! point finishes (or on an explicit [`flush_json`] call).

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver handed to each `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\ngroup {name}");
        BenchmarkGroup {
            _criterion: self,
            throughput: None,
        }
    }

    /// Benches a single function outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        run_benchmark(name, None, &mut f);
    }
}

/// A named benchmark within a group: `BenchmarkId::new("case", param)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id labelled `name/parameter`.
    pub fn new<P: Display>(name: &str, parameter: P) -> BenchmarkId {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }
}

/// Work-per-iteration hint used to report rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// A group of related benchmarks sharing a throughput setting.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the work-per-iteration for subsequent benches in the group.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Benches `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&id.into().0, self.throughput, &mut f);
    }

    /// Benches `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&id.label, self.throughput, &mut |b| f(b, input));
    }

    /// Ends the group (kept for API compatibility; prints nothing extra).
    pub fn finish(self) {}
}

/// Either a `&str` or a [`BenchmarkId`] (both accepted by
/// `bench_function`).
#[derive(Debug, Clone)]
pub struct BenchId(String);

impl From<&str> for BenchId {
    fn from(s: &str) -> BenchId {
        BenchId(s.to_owned())
    }
}

impl From<BenchmarkId> for BenchId {
    fn from(id: BenchmarkId) -> BenchId {
        BenchId(id.label)
    }
}

/// Timing loop handle passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
    per_iter_nanos: u64,
}

impl Bencher {
    /// Times `f` over this sample's iteration count.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
        self.per_iter_nanos =
            u64::try_from(self.elapsed.as_nanos() / u128::from(self.iters)).unwrap_or(u64::MAX);
    }

    /// Mean nanoseconds per iteration of the most recent [`Bencher::iter`]
    /// call — the sample the JSON summary aggregates.
    #[must_use]
    pub fn per_iter_nanos(&self) -> u64 {
        self.per_iter_nanos
    }
}

fn measurement_budget() -> Duration {
    if std::env::var_os("BENCH_QUICK").is_some() {
        Duration::from_millis(50)
    } else {
        Duration::from_millis(400)
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, throughput: Option<Throughput>, f: &mut F) {
    // Calibration: grow the iteration count until one sample takes ≥ ~2 ms.
    let mut iters = 1u64;
    let per_iter = loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
            per_iter_nanos: 0,
        };
        f(&mut b);
        if b.elapsed >= Duration::from_millis(2) || iters >= 1 << 30 {
            break b.elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 4;
    };

    // Measurement: fixed wall-clock budget, median of the samples.
    let budget = measurement_budget();
    let samples = 11usize;
    let sample_iters = ((budget.as_secs_f64() / samples as f64 / per_iter).ceil() as u64).max(1);
    // Whole nanoseconds for the report's wall-time fields, plus the
    // unrounded per-iteration times: a sub-nanosecond body floors to 0.
    let (mut nanos, mut exact): (Vec<u64>, Vec<f64>) = (0..samples)
        .map(|_| {
            let mut b = Bencher {
                iters: sample_iters,
                elapsed: Duration::ZERO,
                per_iter_nanos: 0,
            };
            f(&mut b);
            (
                b.per_iter_nanos(),
                b.elapsed.as_nanos() as f64 / sample_iters as f64,
            )
        })
        .unzip();
    nanos.sort_unstable();
    exact.sort_unstable_by(f64::total_cmp);
    let median = exact[samples / 2] / 1e9;

    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("  ({:.3e} elem/s)", n as f64 / median),
        Throughput::Bytes(n) => format!("  ({:.3e} B/s)", n as f64 / median),
    });
    println!(
        "  {label:<44} {:>12}/iter{}",
        format_duration(median),
        rate.unwrap_or_default()
    );

    if std::env::var_os(JSON_ENV).is_some() {
        RECORDS.lock().expect("record lock").push(Record {
            label: label.to_owned(),
            sample_iters,
            per_iter_nanos: nanos,
            exact_p50_nanos: percentile(&exact, 50),
            throughput,
        });
    }
}

/// Environment variable naming the JSON summary output file. When set,
/// every benchmark's per-sample nanos are recorded and
/// [`flush_json`] writes the `spacetime-criterion/1` report there.
pub const JSON_ENV: &str = "CRITERION_JSON";

/// The schema identifier of the JSON summary. The scenario shape is
/// field-compatible with `spacetime-bench/1`, so `spacetime bench
/// --compare` tooling can parse either after adjusting the id.
pub const JSON_SCHEMA: &str = "spacetime-criterion/1";

struct Record {
    label: String,
    sample_iters: u64,
    per_iter_nanos: Vec<u64>,
    /// Median per-iteration time before flooring to whole nanoseconds.
    exact_p50_nanos: f64,
    throughput: Option<Throughput>,
}

static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nearest-rank percentile over an ascending sample list.
fn percentile<T: Copy>(sorted: &[T], q: u64) -> T {
    let rank = ((q * sorted.len() as u64).div_ceil(100)).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn scenario_json(r: &Record) -> String {
    let n = &r.per_iter_nanos; // already ascending
    let mean = n.iter().sum::<u64>() as f64 / n.len() as f64;
    let p50 = percentile(n, 50);
    let exact = r.exact_p50_nanos;
    let throughput = match r.throughput {
        Some(Throughput::Elements(e) | Throughput::Bytes(e)) if exact > 0.0 => {
            e as f64 * 1e9 / exact
        }
        _ if exact > 0.0 => 1e9 / exact,
        _ => 0.0,
    };
    let volleys = match r.throughput {
        Some(Throughput::Elements(e) | Throughput::Bytes(e)) => e,
        None => 1,
    };
    format!(
        concat!(
            "{{\"name\": \"{}\", \"engine\": \"criterion\", \"size\": 0, ",
            "\"threads\": 1, \"warmup\": 0, \"iterations\": {}, ",
            "\"volleys_per_iter\": {}, \"wall_nanos\": {{\"min\": {}, ",
            "\"p50\": {}, \"p95\": {}, \"max\": {}, \"mean\": {}}}, ",
            "\"throughput_volleys_per_sec\": {}, \"counters\": {{}}, ",
            "\"histograms\": {{}}}}"
        ),
        escape_json(&r.label),
        r.sample_iters,
        volleys,
        n[0],
        p50,
        percentile(n, 95),
        n[n.len() - 1],
        mean,
        throughput,
    )
}

/// Writes the `spacetime-criterion/1` JSON summary to the path named by
/// [`JSON_ENV`] and clears the recorded samples. A no-op when the
/// variable is unset or no benchmarks recorded samples; called
/// automatically by [`criterion_main!`].
pub fn flush_json() {
    let Some(path) = std::env::var_os(JSON_ENV) else {
        return;
    };
    let records = std::mem::take(&mut *RECORDS.lock().expect("record lock"));
    if records.is_empty() {
        return;
    }
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let scenarios: Vec<String> = records.iter().map(scenario_json).collect();
    let body = format!(
        concat!(
            "{{\"schema\": \"{}\", \"label\": \"criterion\", ",
            "\"created_unix\": {}, \"git_rev\": \"unknown\", ",
            "\"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}}, ",
            "\"scenarios\": [{}]}}\n"
        ),
        JSON_SCHEMA,
        created,
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, usize::from),
        scenarios.join(", "),
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("criterion: cannot write {}: {e}", path.to_string_lossy());
    }
}

fn format_duration(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench entry point running each group in order, then
/// flushing the JSON summary (if `CRITERION_JSON` is set).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::flush_json();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_and_reporting_run() {
        std::env::set_var("BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.throughput(Throughput::Elements(10));
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        group.bench_function("plain", |b| b.iter(|| black_box(1u64 + 1)));
        group.finish();
        c.bench_function("top_level", |b| b.iter(|| black_box(2u64 * 2)));
    }

    #[test]
    fn json_summary_is_dumped_when_env_set() {
        let path = std::env::temp_dir().join(format!("criterion-json-{}.json", std::process::id()));
        std::env::set_var("BENCH_QUICK", "1");
        std::env::set_var(JSON_ENV, &path);
        let mut c = Criterion::default();
        c.bench_function("json_smoke", |b| b.iter(|| black_box(3u64 * 3)));
        flush_json();
        std::env::remove_var(JSON_ENV);
        let text = std::fs::read_to_string(&path).expect("summary written");
        std::fs::remove_file(&path).ok();
        assert!(
            text.contains("\"schema\": \"spacetime-criterion/1\""),
            "{text}"
        );
        assert!(text.contains("\"name\": \"json_smoke\""), "{text}");
        assert!(text.contains("\"wall_nanos\""), "{text}");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[10], 50), 10);
        assert_eq!(percentile(&[1, 2, 3, 4], 50), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 95), 4);
    }
}
