//! The `spacetime bench` harness: a deterministic scenario matrix over the
//! five evaluation engines, timed through the batch evaluator with the
//! st-metrics counters attached.
//!
//! Each [`ScenarioSpec`] names an engine (`table`, `net`, `grl`, `tnn`,
//! `kernel`), a
//! size parameter, and a thread count. Running a spec builds the artifact,
//! generates a deterministic volley workload, performs warmup iterations,
//! then times the measured iterations while a [`MetricsRegistry`]
//! accumulates the engine counters. The result is a
//! [`st_metrics::Scenario`] ready for a schema-versioned
//! [`st_metrics::BenchReport`] — the JSON that `spacetime bench --compare`
//! gates regressions against.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use st_core::{FnSpaceTime, FunctionTable, Time, Volley};
use st_metrics::{
    BenchReport, HistSummary, MachineInfo, MetricsRegistry, Scenario, WallStats, SCHEMA,
};
use st_net::sorting::sorting_network;
use st_net::{Network, NetworkBuilder};
use st_obs::NullProbe;
use st_opt::{optimize_network, OptOptions, OptOutcome};
use st_tnn::train::{fresh_column, TrainConfig};
use st_trace::{NullTracer, SpanId};

use crate::batch::{BatchEvaluator, CompiledArtifact};

/// Environment variable overriding the measured iteration count of every
/// scenario (minimum 1). Lets CI smoke tests and the CLI test suite run
/// the full matrix in milliseconds.
pub const ITERS_ENV: &str = "SPACETIME_BENCH_ITERS";

/// One cell of the bench matrix: an engine at a size, run at a thread
/// count for a fixed number of warmup and measured iterations.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Engine label: `table`, `net`, `grl`, or `tnn`.
    pub engine: &'static str,
    /// Engine-specific size parameter (arity, network width, or column
    /// width).
    pub size: usize,
    /// Batch evaluator worker threads.
    pub threads: usize,
    /// Untimed iterations run before measurement.
    pub warmup: u64,
    /// Timed iterations.
    pub iterations: u64,
    /// Volleys evaluated per iteration.
    pub volleys_per_iter: u64,
}

impl ScenarioSpec {
    /// The scenario's report name, `{engine}/{size}/t{threads}` — the key
    /// `--compare` matches old and new runs on.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}/{}/t{}", self.engine, self.size, self.threads)
    }
}

fn matrix(sizes: &[(&'static str, usize)], threads: &[usize], iters: u64) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &(engine, size) in sizes {
        for &t in threads {
            specs.push(ScenarioSpec {
                engine,
                size,
                threads: t,
                warmup: 2,
                iterations: iters,
                volleys_per_iter: 64,
            });
        }
    }
    specs
}

/// The `--quick` tier: all four engines at small sizes, two thread
/// counts. Sized so the whole matrix finishes in a few seconds — this is
/// what the CI perf-smoke job runs.
#[must_use]
pub fn quick_matrix() -> Vec<ScenarioSpec> {
    matrix(
        &[
            ("table", 3),
            ("net", 8),
            ("grl", 4),
            ("tnn", 8),
            ("kernel", 8),
            ("rawnet", 4),
            ("optnet", 4),
            ("rawkernel", 4),
            ("optkernel", 4),
        ],
        &[1, 2],
        10,
    )
}

/// The `--full` tier: the quick sizes plus a larger size per engine and a
/// third thread count.
#[must_use]
pub fn full_matrix() -> Vec<ScenarioSpec> {
    matrix(
        &[
            ("table", 3),
            ("table", 4),
            ("net", 8),
            ("net", 16),
            ("grl", 4),
            ("grl", 8),
            ("tnn", 8),
            ("tnn", 16),
            ("kernel", 8),
            ("kernel", 16),
            ("rawnet", 4),
            ("optnet", 4),
            ("rawkernel", 4),
            ("optkernel", 4),
        ],
        &[1, 2, 4],
        30,
    )
}

/// The deliberately redundant network behind the `rawnet`/`rawkernel`
/// scenarios: per input, two *separate* four-stage unit-delay chains
/// `min`-ed together. Semantically each output is just `input + 4`, but
/// spelled this way the network carries fusible delay chains, congruent
/// duplicate subexpressions, and (after those collapse) dead gates —
/// exactly the redundancy the `st-opt` default pipeline removes. The
/// `optnet`/`optkernel` rows run the verified-optimized form of the
/// same network, so raw-vs-opt scenario pairs read as a direct measure
/// of what optimization buys at evaluation time.
#[must_use]
pub fn redundant_bench_network(size: usize) -> Network {
    let mut b = NetworkBuilder::new();
    let ins = b.inputs(size);
    let mut outs = Vec::with_capacity(size);
    for &input in &ins {
        let mut chain = |mut w| {
            for _ in 0..4 {
                w = b.inc(w, 1);
            }
            w
        };
        let a = chain(input);
        let c = chain(input);
        outs.push(b.min2(a, c));
    }
    b.build(outs)
}

/// Runs the default verified pipeline over
/// [`redundant_bench_network`], returning the outcome (whose artifact
/// is the optimized network and whose records feed the `opt.*`
/// counters).
///
/// # Errors
///
/// Returns a message if a pass or its verification fails operationally.
pub fn optimized_bench_outcome(size: usize) -> Result<OptOutcome, String> {
    let raw = redundant_bench_network(size);
    let outcome = optimize_network(&raw, &OptOptions::default())?;
    if outcome.rejected() > 0 {
        return Err(format!(
            "the bench network's optimization was rejected:\n{}",
            outcome.render()
        ));
    }
    Ok(outcome)
}

fn optimized_bench_network(size: usize) -> Result<Network, String> {
    match optimized_bench_outcome(size)?.artifact {
        st_verify::Artifact::Net(n) => Ok(n),
        other => Err(format!("expected a network back, got {}", other.kind())),
    }
}

/// Compiles the artifact a scenario times.
///
/// - `table`: min over `size` inputs, tabulated over window 3 and
///   compiled to mask-indexed rows.
/// - `net`: a `size`-wide bitonic sorting network under the event sim.
/// - `grl`: the same sorting network lowered to a race-logic netlist.
/// - `tnn`: a fresh `size`×`size` SRM0 column with 1-WTA inhibition.
/// - `kernel`: the `net` sorting network flattened into a lane-packed
///   kernel plan — the same computation as `net`, so the two rows read
///   as a direct engine-vs-engine speedup.
/// - `rawnet` / `rawkernel`: the deliberately redundant
///   [`redundant_bench_network`] under the event sim / kernel plan.
/// - `optnet` / `optkernel`: the verified-optimized form of the same
///   network — raw-vs-opt row pairs measure what `st-opt` buys.
///
/// # Errors
///
/// Returns a message if the engine label is unknown or tabulation fails.
pub fn build_artifact(engine: &str, size: usize) -> Result<CompiledArtifact, String> {
    match engine {
        "table" => {
            let min = FnSpaceTime::new(size, |xs: &[Time]| {
                xs.iter().copied().fold(Time::INFINITY, Time::min)
            });
            let table = FunctionTable::from_fn(&min, 3)
                .map_err(|e| format!("tabulating min/{size}: {e}"))?;
            Ok(CompiledArtifact::from_table(&table))
        }
        "net" => Ok(CompiledArtifact::from_network(&sorting_network(size))),
        "grl" => Ok(CompiledArtifact::from_grl_network(&sorting_network(size))),
        "kernel" => Ok(CompiledArtifact::from_kernel_network(&sorting_network(
            size,
        ))),
        "tnn" => Ok(CompiledArtifact::Column(fresh_column(
            size,
            size,
            0.5,
            &TrainConfig::default(),
        ))),
        "rawnet" => Ok(CompiledArtifact::from_network(&redundant_bench_network(
            size,
        ))),
        "optnet" => Ok(CompiledArtifact::from_network(&optimized_bench_network(
            size,
        )?)),
        "rawkernel" => Ok(CompiledArtifact::from_kernel_network(
            &redundant_bench_network(size),
        )),
        "optkernel" => Ok(CompiledArtifact::from_kernel_network(
            &optimized_bench_network(size)?,
        )),
        other => Err(format!(
            "unknown engine {other:?} (expected table, net, grl, tnn, kernel, \
             rawnet, optnet, rawkernel, or optkernel)"
        )),
    }
}

/// Generates `count` width-`width` volleys of finite spike times in
/// `0..=max_time` from a seeded xorshift — the same workload for every
/// run of a scenario, so timing differences are the machine's, not the
/// input's.
#[must_use]
pub fn generate_volleys(width: usize, count: usize, max_time: u32, seed: u64) -> Vec<Volley> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let span = u64::from(max_time) + 1;
    (0..count)
        .map(|_| Volley::new((0..width).map(|_| Time::finite(next() % span)).collect()))
        .collect()
}

fn effective_iterations(spec: &ScenarioSpec) -> u64 {
    std::env::var(ITERS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(spec.iterations, |n| n.max(1))
}

/// Runs one scenario: build, warmup, measure, and summarize into a
/// report [`Scenario`].
///
/// # Errors
///
/// Returns a message if the artifact cannot be built or an evaluation
/// fails.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<Scenario, String> {
    let artifact = build_artifact(spec.engine, spec.size)?;
    // Tables generalize by causal reduction only within their window, so
    // keep table inputs inside it; the other engines take a wider spread.
    let max_time = if spec.engine == "table" { 3 } else { 7 };
    let volleys = generate_volleys(
        artifact.input_width(),
        spec.volleys_per_iter as usize,
        max_time,
        0x5EED_0001 ^ (spec.size as u64) << 8,
    );
    let evaluator = BatchEvaluator::with_threads(spec.threads);
    for _ in 0..spec.warmup {
        evaluator
            .eval(&artifact, &volleys)
            .map_err(|e| format!("{}: warmup failed: {e}", spec.name()))?;
    }
    let iterations = effective_iterations(spec);
    let mut registry = MetricsRegistry::new();
    // The optimized scenarios carry their optimization's `opt.*`
    // counters (gates before/after, passes run/rejected) alongside the
    // engine counters, so a bench report shows what the pipeline did to
    // the artifact it timed.
    if spec.engine.starts_with("opt") {
        st_opt::record_metrics(&optimized_bench_outcome(spec.size)?, &mut registry);
    }
    let mut samples = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let start = Instant::now();
        evaluator
            .eval_instrumented(
                &artifact,
                &volleys,
                &mut NullProbe,
                &mut registry,
                &mut NullTracer,
                SpanId::NONE,
            )
            .map_err(|e| format!("{}: evaluation failed: {e}", spec.name()))?;
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let wall = WallStats::from_samples(&samples).ok_or_else(|| "no samples".to_string())?;
    let throughput = if wall.p50 == 0 {
        0.0
    } else {
        spec.volleys_per_iter as f64 * 1e9 / wall.p50 as f64
    };
    Ok(Scenario {
        name: spec.name(),
        engine: spec.engine.to_string(),
        size: spec.size as u64,
        threads: spec.threads as u64,
        warmup: spec.warmup,
        iterations,
        volleys_per_iter: spec.volleys_per_iter,
        wall_nanos: wall,
        throughput_volleys_per_sec: throughput,
        counters: registry
            .counters()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        histograms: registry
            .histograms()
            .filter_map(|(name, h)| HistSummary::from_histogram(h).map(|s| (name.to_string(), s)))
            .collect(),
    })
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository.
#[must_use]
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs every spec in order and assembles the schema-versioned report.
///
/// # Errors
///
/// Returns the first scenario failure.
pub fn run_matrix(specs: &[ScenarioSpec], label: &str) -> Result<BenchReport, String> {
    let mut scenarios = Vec::with_capacity(specs.len());
    for spec in specs {
        scenarios.push(run_scenario(spec)?);
    }
    Ok(BenchReport {
        schema: SCHEMA.to_string(),
        label: label.to_string(),
        created_unix: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        git_rev: git_rev(),
        machine: MachineInfo::current(),
        scenarios,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_are_engine_size_threads() {
        let spec = ScenarioSpec {
            engine: "net",
            size: 8,
            threads: 2,
            warmup: 1,
            iterations: 1,
            volleys_per_iter: 4,
        };
        assert_eq!(spec.name(), "net/8/t2");
    }

    #[test]
    fn quick_matrix_covers_all_engines_at_two_thread_counts() {
        let specs = quick_matrix();
        for engine in [
            "table",
            "net",
            "grl",
            "tnn",
            "kernel",
            "rawnet",
            "optnet",
            "rawkernel",
            "optkernel",
        ] {
            let threads: Vec<usize> = specs
                .iter()
                .filter(|s| s.engine == engine)
                .map(|s| s.threads)
                .collect();
            assert!(
                threads.len() >= 2 && threads.windows(2).any(|w| w[0] != w[1]),
                "{engine} must run at >=2 distinct thread counts, got {threads:?}"
            );
        }
    }

    #[test]
    fn volleys_are_deterministic_and_bounded() {
        let a = generate_volleys(4, 16, 7, 42);
        let b = generate_volleys(4, 16, 7, 42);
        assert_eq!(a, b);
        assert_ne!(a, generate_volleys(4, 16, 7, 43));
        for v in &a {
            for &t in v.times() {
                assert!(t.is_finite() && t <= Time::finite(7));
            }
        }
    }

    #[test]
    fn every_engine_builds_and_runs_one_scenario() {
        for (engine, size) in [
            ("table", 3),
            ("net", 8),
            ("grl", 4),
            ("tnn", 8),
            ("kernel", 8),
            ("rawnet", 4),
            ("optnet", 4),
            ("rawkernel", 4),
            ("optkernel", 4),
        ] {
            let spec = ScenarioSpec {
                engine,
                size,
                threads: 2,
                warmup: 1,
                iterations: 2,
                volleys_per_iter: 8,
            };
            let scenario = run_scenario(&spec).expect(engine);
            assert_eq!(scenario.name, spec.name());
            assert!(
                scenario.counters.values().any(|&v| v > 0),
                "{engine} scenario recorded no counters"
            );
        }
    }

    #[test]
    fn unknown_engine_is_rejected() {
        assert!(build_artifact("quantum", 4).is_err());
    }

    #[test]
    fn optimization_shrinks_the_bench_network_and_preserves_semantics() {
        let raw = redundant_bench_network(4);
        let outcome = optimized_bench_outcome(4).expect("clean optimization");
        assert_eq!(outcome.rejected(), 0, "{}", outcome.render());
        assert!(
            outcome.after * 2 <= outcome.before,
            "expected at least 2x gate reduction, got {} -> {}",
            outcome.before,
            outcome.after
        );
        let optimized = optimized_bench_network(4).expect("network back");
        for volley in generate_volleys(4, 16, 7, 99) {
            assert_eq!(
                raw.eval(volley.times()).unwrap(),
                optimized.eval(volley.times()).unwrap()
            );
        }
        // The opt scenarios surface the pipeline's counters in their
        // bench rows.
        let spec = ScenarioSpec {
            engine: "optnet",
            size: 4,
            threads: 1,
            warmup: 1,
            iterations: 2,
            volleys_per_iter: 8,
        };
        let scenario = run_scenario(&spec).expect("optnet scenario");
        assert_eq!(scenario.counters["opt.gates_before"], outcome.before as u64);
        assert!(scenario.counters["opt.gates_after"] < scenario.counters["opt.gates_before"]);
        assert_eq!(scenario.counters["opt.passes_rejected"], 0);
    }

    #[test]
    fn run_matrix_emits_schema_versioned_report() {
        let specs = [ScenarioSpec {
            engine: "table",
            size: 3,
            threads: 1,
            warmup: 1,
            iterations: 2,
            volleys_per_iter: 8,
        }];
        let report = run_matrix(&specs, "unit").expect("matrix");
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.label, "unit");
        let parsed = BenchReport::from_json(&report.to_json()).expect("round-trip");
        assert_eq!(parsed.scenarios.len(), 1);
    }
}
