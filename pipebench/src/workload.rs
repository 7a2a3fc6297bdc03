//! The three workloads. All are closed loops: one caller issues each
//! operation after the previous one returns.
//!
//! - `compile` passes the corpus (spec text → verified plan) again and
//!   again, single-threaded; an untimed spot check through a one-worker
//!   batch evaluator follows every compile.
//! - `stream` makes 16 384-volley calls on the 4 x 5 column's plan.
//! - `burst` makes 1–64-volley calls on the same plan, with 1 % of
//!   volleys past the lane bound.
//!
//! An untraced run reports the end-to-end metrics. Its timings are
//! scaled round by round to the reference machine speed (see
//! [`crate::speed`]); a round is one corpus pass on `compile`, and one
//! set-up with the calls that follow it on `stream`/`burst`.
//!
//! A traced run repeats
//! one fixed unit of work (a corpus pass, or a fixed call schedule)
//! untraced and traced in turn, keeps the spans and counters of the
//! first traced unit for the per-layer metrics, and reports the wall
//! time the tracing added as `trace.overhead_pct`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use spacetime::batch::{BatchEvaluator, CompiledArtifact};
use spacetime::core::Volley;
use spacetime::metrics::{MetricSink, MetricsRegistry, NullMetrics};
use spacetime::obs::NullProbe;
use spacetime::trace::{NullTracer, SpanId, SpanRecord, TraceBuffer, Tracer};

use crate::corpus::{self, Rng, Spec};
use crate::layers::{layer_metrics, Call};
use crate::oracle::{mismatches, Reference, SpotCheck};
use crate::pipeline::{compile, CompileCounts, Compiled};
use crate::speed::{Scaled, Speed, REFERENCE_SECONDS};
use crate::stats::{beyond_percentile, geomean, median, percentile};
use crate::Metric;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Spec text → verified plan over the four-class corpus.
    Compile,
    /// Large calls on one plan: SWAR packets and worker fan-out.
    Stream,
    /// Small calls with out-of-range volleys: dispatch and fallback.
    Burst,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Stream, Workload::Burst];

    /// The workload named `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Stream => "stream",
            Workload::Burst => "burst",
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// How long the measured phase runs, in seconds. At least one unit
    /// of work runs however small this is.
    pub seconds: f64,
    /// The batch evaluator's worker count; `None` keeps the workload's
    /// own: one on `compile`, one per available core on `stream`/`burst`.
    pub threads: Option<usize>,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted: specs compiled on `compile`, volleys
    /// evaluated on `stream`/`burst`.
    pub attempted: u64,
    /// Operations that returned an error or an output differing from the
    /// reference.
    pub failed: u64,
    /// The batch evaluator's worker count.
    pub workers: usize,
    /// End-to-end metrics for an untraced run, per-layer metrics for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// End-to-end figures printed beside the metrics but not bounded in
    /// `BENCHMARK.json`: `call_p99_us`, whose run-to-run spread on a
    /// shared two-core machine exceeds the largest bound a metric may
    /// have, and the unscaled wall times behind the bounded timings with
    /// the run's median speed factor.
    pub printed: Vec<Metric>,
    /// The sample count behind each timing, and the call-time tail,
    /// one line each for the run header.
    pub samples: Vec<String>,
    /// The kept spans of a traced run (empty when untraced).
    pub records: Vec<SpanRecord>,
}

impl Report {
    /// Failed ÷ attempted operations.
    #[must_use]
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of the metric named `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Set-ups per `compile` run (input generation only, so cheap).
const COMPILE_SETUPS: usize = 51;
/// Set-ups per `stream`/`burst` run, one before each round of calls (each
/// runs the whole pipeline).
const EVAL_SETUPS: usize = 15;
/// Volleys in the `stream`/`burst` pool.
const POOL_LEN: usize = 65_536;
/// Volleys per `stream` call.
const STREAM_CALL: usize = 16_384;
/// The largest `burst` call; sizes are uniform in `1..=BURST_MAX_CALL`.
const BURST_MAX_CALL: usize = 64;
/// Share of `burst` volleys with a spike past the lane bound.
const BURST_BEYOND_SHARE: f64 = 0.01;
/// How often a `stream`/`burst` round samples the reference loop
/// between calls.
const SPEED_INTERVAL: Duration = Duration::from_millis(100);
/// Reference samples taken right before and again right after each
/// `stream`/`burst` set-up, for the set-up's own speed factor.
const SETUP_SAMPLES: usize = 3;

/// Runs the workload untraced and reports its end-to-end metrics.
///
/// # Errors
///
/// Returns an error when an input cannot be generated or its reference
/// computed; pipeline failures are counted in [`Report::failed`].
pub fn run(settings: &Settings) -> Result<Report, String> {
    let evaluator = evaluator(settings);
    match settings.workload {
        Workload::Compile => run_compile(settings, &evaluator),
        _ => run_eval(settings, &evaluator),
    }
}

/// Runs the workload's traced unit and reports its per-layer metrics.
///
/// # Errors
///
/// See [`run`].
pub fn run_traced(settings: &Settings) -> Result<Report, String> {
    let evaluator = evaluator(settings);
    match settings.workload {
        Workload::Compile => trace_compile(settings, &evaluator),
        _ => trace_eval(settings, &evaluator),
    }
}

/// The batch evaluator of a run: single-threaded on `compile`, the
/// evaluator's default (one worker per available core) on `stream` and
/// `burst`, unless the settings fix the worker count.
fn evaluator(settings: &Settings) -> BatchEvaluator {
    match (settings.threads, settings.workload) {
        (Some(threads), _) => BatchEvaluator::with_threads(threads),
        (None, Workload::Compile) => BatchEvaluator::with_threads(1),
        (None, _) => BatchEvaluator::new(),
    }
}

/// The batch calls of a run.
#[derive(Debug, Default)]
struct CallLog {
    /// Wall time of each call, in microseconds.
    micros: Vec<f64>,
    /// Volleys over all calls.
    volleys: u64,
    /// The calls' spans, when traced.
    traced: Vec<Call>,
}

impl CallLog {
    /// Makes one batch call under a `batch.eval` span and returns how
    /// many volleys failed: all of them if the call errs, otherwise those
    /// whose output differs from `expected`. With null instruments,
    /// `eval_instrumented` is exactly `BatchEvaluator::eval`.
    fn call<T: Tracer, M: MetricSink>(
        &mut self,
        evaluator: &BatchEvaluator,
        artifact: &CompiledArtifact,
        volleys: &[Volley],
        expected: &[Volley],
        tracer: &mut T,
        sink: &mut M,
    ) -> u64 {
        let span = tracer.begin("batch.eval", SpanId::NONE);
        let start = Instant::now();
        let result =
            evaluator.eval_instrumented(artifact, volleys, &mut NullProbe, sink, tracer, span);
        let elapsed = start.elapsed();
        tracer.end(span);
        self.micros.push(elapsed.as_secs_f64() * 1e6);
        self.volleys += volleys.len() as u64;
        if tracer.is_enabled() {
            let fallback = match artifact {
                CompiledArtifact::Kernel(plan) => !plan.lane_capable(volleys),
                _ => false,
            };
            self.traced.push(Call {
                span,
                volleys: volleys.len() as u64,
                fallback,
            });
        }
        match result {
            Ok(outputs) => mismatches(&outputs, expected) as u64,
            Err(_) => volleys.len() as u64,
        }
    }

    /// Spot-checks a plan: the in-lane call, then the one past the lane
    /// bound. Returns the failed volley count.
    fn spot_check<T: Tracer, M: MetricSink>(
        &mut self,
        evaluator: &BatchEvaluator,
        artifact: &CompiledArtifact,
        check: &SpotCheck,
        tracer: &mut T,
        sink: &mut M,
    ) -> u64 {
        let in_lane = (&check.in_lane, &check.in_lane_expected);
        let beyond = (&check.beyond, &check.beyond_expected);
        [in_lane, beyond]
            .into_iter()
            .map(|(volleys, expected)| {
                self.call(evaluator, artifact, volleys, expected, tracer, sink)
            })
            .sum()
    }

    fn seconds(&self) -> f64 {
        self.micros.iter().sum::<f64>() / 1e6
    }
}

/// Stops a measured phase once the next unit of work, assumed as long
/// as the last, would overrun it.
struct Deadline {
    start: Instant,
    seconds: f64,
}

impl Deadline {
    fn new(seconds: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            seconds,
        }
    }

    fn room_for(&self, unit_seconds: f64) -> bool {
        self.start.elapsed().as_secs_f64() + unit_seconds <= self.seconds
    }
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- compile

/// One pass over the corpus.
#[derive(Debug, Default)]
struct CorpusPass {
    /// Summed pipeline time (text → plan) over the specs.
    seconds: f64,
    /// The same with each spec's time scaled by its speed factor.
    scaled: f64,
    /// Each spec's scaled pipeline time, in corpus order.
    spec_scaled: Vec<f64>,
    /// Each compiled spec's speed factor and spot-check calls, in
    /// corpus order.
    spec_calls: Vec<(f64, CallLog)>,
    /// Specs that failed to compile or failed their spot check.
    failed: u64,
    /// Gates in the pass's plans.
    plan_gates: u64,
}

impl CorpusPass {
    /// The pass's speed factor: its specs' factors weighted by their
    /// pipeline time.
    fn factor(&self) -> f64 {
        if self.seconds > 0.0 {
            self.scaled / self.seconds
        } else {
            1.0
        }
    }
}

/// The reference spot check of every corpus spec, drawn from `seed`.
///
/// # Errors
///
/// Returns a spec's parse error or its reference's evaluation error.
pub fn spot_checks(corpus: &[Spec], seed: u64) -> Result<Vec<SpotCheck>, String> {
    let mut rng = Rng::new(seed, 3);
    corpus
        .iter()
        .map(|spec| SpotCheck::new(&Reference::parse(spec)?, &mut rng))
        .collect()
}

/// Compiles every spec (the timed part), then spot-checks its plan
/// through the batch evaluator against the reference outputs. With a
/// `speed`, the reference loop is sampled before the first spec and
/// after each one, and each spec is scaled by the mean of the two
/// samples around it: a pass's few long proofs and many short specs
/// each get the machine speed of their own moment.
fn corpus_pass<T: Tracer, M: MetricSink>(
    corpus: &[Spec],
    checks: &[SpotCheck],
    evaluator: &BatchEvaluator,
    tracer: &mut T,
    sink: &mut M,
    counts: &mut CompileCounts,
    mut speed: Option<&mut Speed>,
) -> CorpusPass {
    let mut pass = CorpusPass::default();
    let mut before = speed.as_deref_mut().map(Speed::sample);
    for (spec, check) in corpus.iter().zip(checks) {
        let start = Instant::now();
        let compiled = compile(spec, tracer);
        let elapsed = seconds_since(start);
        let mut calls = None;
        let failed = match compiled {
            Err(e) => {
                eprintln!("pipebench: {e}");
                true
            }
            Ok(compiled) => {
                counts.absorb(&compiled);
                pass.plan_gates += compiled.plan.gate_count() as u64;
                let artifact = CompiledArtifact::from(compiled.plan);
                let mut log = CallLog::default();
                let wrong = log.spot_check(evaluator, &artifact, check, tracer, sink);
                calls = Some(log);
                if wrong > 0 {
                    eprintln!(
                        "pipebench: {}: {wrong} spot-check outputs differ",
                        spec.name
                    );
                }
                wrong > 0
            }
        };
        pass.failed += u64::from(failed);
        let factor = match (speed.as_deref_mut(), before) {
            (Some(speed), Some(t0)) => {
                let t1 = speed.sample();
                before = Some(t1);
                2.0 * REFERENCE_SECONDS / (t0 + t1)
            }
            _ => 1.0,
        };
        pass.seconds += elapsed;
        pass.scaled += elapsed * factor;
        pass.spec_scaled.push(elapsed * factor);
        if let Some(log) = calls {
            pass.spec_calls.push((factor, log));
        }
    }
    if let Some(speed) = speed {
        speed.end_round();
    }
    pass
}

/// Generates the corpus `COMPILE_SETUPS` times, sampling the reference
/// loop after each, and returns it with the set-up times.
fn compile_setup(seed: u64) -> (Vec<Spec>, Scaled) {
    let mut corpus = Vec::new();
    let mut wall = Vec::with_capacity(COMPILE_SETUPS);
    let mut speed = Speed::new();
    for _ in 0..COMPILE_SETUPS {
        let start = Instant::now();
        corpus = black_box(corpus::compile_corpus(seed));
        wall.push(seconds_since(start));
        speed.sample();
    }
    let factor = speed.end_round();
    let mut setup = Scaled::default();
    for seconds in wall {
        setup.push(seconds, factor);
    }
    (corpus, setup)
}

fn run_compile(settings: &Settings, evaluator: &BatchEvaluator) -> Result<Report, String> {
    let (corpus, setup) = compile_setup(settings.seed);
    let checks = spot_checks(&corpus, settings.seed)?;
    Ok(measure_compile(
        settings, evaluator, &corpus, &checks, &setup,
    ))
}

/// The `compile` workload's measured phase: passes over `corpus` until
/// the deadline, every spec's plan spot-checked against the matching
/// entry of `checks`; `setup` holds the set-up times behind `setup_s`.
/// Public so a self-test can hand it a spec whose plan disagrees with
/// its spot check.
#[must_use]
pub fn measure_compile(
    settings: &Settings,
    evaluator: &BatchEvaluator,
    corpus: &[Spec],
    checks: &[SpotCheck],
    setup: &Scaled,
) -> Report {
    let deadline = Deadline::new(settings.seconds);
    let mut passes: Vec<CorpusPass> = Vec::new();
    let mut speed = Speed::new();
    loop {
        let start = Instant::now();
        passes.push(corpus_pass(
            corpus,
            checks,
            evaluator,
            &mut NullTracer,
            &mut NullMetrics,
            &mut CompileCounts::default(),
            Some(&mut speed),
        ));
        if !deadline.room_for(seconds_since(start)) {
            break;
        }
    }

    let mut pass_seconds = Scaled::default();
    for pass in &passes {
        pass_seconds.push(pass.seconds, pass.factor());
    }
    let spec_medians: Vec<f64> = (0..corpus.len())
        .map(|i| {
            let scaled: Vec<f64> = passes.iter().map(|p| p.spec_scaled[i]).collect();
            median(&scaled) * 1e3
        })
        .collect();
    let rounds: Vec<(f64, &CallLog)> = passes
        .iter()
        .flat_map(|p| p.spec_calls.iter().map(|(factor, log)| (*factor, log)))
        .collect();
    let mut calls = CallFigures::new(&rounds);
    // Every spec's plan weighs the same in the spot checks' throughput,
    // as in `compile_geomean_ms`: the summed call time is mostly the two
    // largest sorters' scalar fallbacks.
    let spec_geomean = |scale: bool| {
        let per_pass: Vec<f64> = passes
            .iter()
            .filter(|p| p.spec_calls.len() == corpus.len())
            .map(|p| {
                let per_spec: Vec<f64> = p
                    .spec_calls
                    .iter()
                    .map(|(factor, log)| {
                        log.volleys as f64 / (log.seconds() * if scale { *factor } else { 1.0 })
                    })
                    .collect();
                geomean(&per_spec)
            })
            .collect();
        median(&per_pass)
    };
    calls.throughput = spec_geomean(true);
    calls.wall_throughput = spec_geomean(false);
    let plan_gates = passes.last().map_or(0, |p| p.plan_gates);
    Report {
        attempted: (passes.len() * corpus.len()) as u64,
        failed: passes.iter().map(|p| p.failed).sum(),
        workers: evaluator.threads(),
        metrics: end_to_end(
            &pass_seconds,
            geomean(&spec_medians),
            plan_gates,
            &calls,
            setup,
        ),
        printed: printed(&pass_seconds, &calls, setup),
        samples: vec![
            format!("set-ups behind setup_s: {}", setup.len()),
            format!(
                "corpus passes behind compile_s and compile_geomean_ms: {} of {} specs, \
                 with {} reference samples",
                passes.len(),
                corpus.len(),
                speed.samples()
            ),
            call_samples(&calls, "spot-check calls"),
        ],
        records: Vec::new(),
    }
}

fn trace_compile(settings: &Settings, evaluator: &BatchEvaluator) -> Result<Report, String> {
    let (corpus, _) = compile_setup(settings.seed);
    let checks = spot_checks(&corpus, settings.seed)?;

    let mut kept = None;
    let (mut attempted, mut failed) = (0, 0);
    let (overhead, pairs) = overhead_pairs(settings.seconds, |traced| {
        let (pass, seconds) = if traced {
            let (mut tracer, mut registry) = (TraceBuffer::new(), MetricsRegistry::new());
            let mut counts = CompileCounts::default();
            let start = Instant::now();
            let mut pass = corpus_pass(
                &corpus,
                &checks,
                evaluator,
                &mut tracer,
                &mut registry,
                &mut counts,
                None,
            );
            let seconds = seconds_since(start);
            if kept.is_none() {
                let calls: Vec<Call> = pass
                    .spec_calls
                    .iter_mut()
                    .flat_map(|(_, log)| std::mem::take(&mut log.traced))
                    .collect();
                kept = Some((tracer.into_records(), registry, counts, calls));
            }
            (pass, seconds)
        } else {
            let start = Instant::now();
            let pass = corpus_pass(
                &corpus,
                &checks,
                evaluator,
                &mut NullTracer,
                &mut NullMetrics,
                &mut CompileCounts::default(),
                None,
            );
            (pass, seconds_since(start))
        };
        attempted += corpus.len() as u64;
        failed += pass.failed;
        seconds
    });
    let (records, registry, counts, calls) = kept.expect("a traced unit ran");
    Ok(Report {
        attempted,
        failed,
        workers: evaluator.threads(),
        metrics: layer_metrics(&records, &registry, &counts, &calls, overhead),
        printed: Vec::new(),
        samples: vec![
            format!("untraced/traced corpus-pass pairs behind trace.overhead_pct: {pairs}"),
            format!("spans of the kept traced pass: {}", records.len()),
        ],
        records,
    })
}

// ----------------------------------------------------------- stream/burst

/// The inputs of a `stream`/`burst` run, with their reference outputs.
struct EvalInputs {
    /// The column spec's plan, ready for the batch evaluator.
    artifact: CompiledArtifact,
    /// What the pipeline did to build it.
    counts: CompileCounts,
    /// The volley pool every call slices.
    pool: Vec<Volley>,
    /// The reference output of every pool volley.
    expected: Vec<Volley>,
    /// The plan's spot check, as every compiled spec gets one.
    check: SpotCheck,
}

/// What one `stream`/`burst` set-up made, and how long it took.
struct SetUp {
    /// The volley pool.
    pool: Vec<Volley>,
    /// The column spec's pipeline products.
    compiled: Compiled,
    /// Wall time of the whole set-up.
    seconds: f64,
    /// Wall time of its pipeline part.
    pipeline: f64,
}

/// One set-up: generates the volley pool and runs the column spec
/// through the pipeline.
fn eval_setup<T: Tracer>(settings: &Settings, tracer: &mut T) -> Result<SetUp, String> {
    let beyond = if settings.workload == Workload::Burst {
        BURST_BEYOND_SHARE
    } else {
        0.0
    };
    let start = Instant::now();
    let pool = corpus::volley_pool(settings.seed, 5, POOL_LEN, beyond);
    let compile_start = Instant::now();
    let compiled = compile(&corpus::stream_spec(), tracer)?;
    let pipeline = seconds_since(compile_start);
    Ok(SetUp {
        pool: black_box(pool),
        compiled,
        seconds: seconds_since(start),
        pipeline,
    })
}

/// An untraced set-up between reference samples, with the speed factor
/// of those samples alone: the calls that follow run in another
/// machine state (two workers, thread churn) than the single-threaded
/// pipeline does.
fn sampled_setup(settings: &Settings, speed: &mut Speed) -> Result<(SetUp, f64), String> {
    for _ in 0..SETUP_SAMPLES {
        speed.sample();
    }
    let setup = eval_setup(settings, &mut NullTracer)?;
    for _ in 0..SETUP_SAMPLES {
        speed.sample();
    }
    Ok((setup, speed.end_round()))
}

impl EvalInputs {
    /// Computes the reference outputs of a set-up's pool and spot check.
    fn new(
        settings: &Settings,
        pool: Vec<Volley>,
        compiled: &Compiled,
    ) -> Result<EvalInputs, String> {
        let reference = Reference::parse(&corpus::stream_spec())?;
        let mut counts = CompileCounts::default();
        counts.absorb(compiled);
        Ok(EvalInputs {
            artifact: CompiledArtifact::from(compiled.plan.clone()),
            counts,
            expected: reference.eval_all(&pool)?,
            check: SpotCheck::new(&reference, &mut Rng::new(settings.seed, 3))?,
            pool,
        })
    }

    /// Makes the scheduled calls, each an `(offset, len)` slice of the
    /// pool, and returns the failed volley count.
    fn calls<T: Tracer, M: MetricSink>(
        &self,
        schedule: &[(usize, usize)],
        evaluator: &BatchEvaluator,
        tracer: &mut T,
        sink: &mut M,
        calls: &mut CallLog,
    ) -> u64 {
        schedule
            .iter()
            .map(|&(offset, len)| {
                let range = offset..offset + len;
                calls.call(
                    evaluator,
                    &self.artifact,
                    &self.pool[range.clone()],
                    &self.expected[range],
                    tracer,
                    sink,
                )
            })
            .sum()
    }
}

/// The next call of the seeded schedule, as an `(offset, len)` slice of
/// the pool.
fn next_call(rng: &mut Rng, workload: Workload) -> (usize, usize) {
    let len = match workload {
        Workload::Stream => STREAM_CALL,
        _ => 1 + rng.below(BURST_MAX_CALL as u64) as usize,
    };
    let offset = rng.below((POOL_LEN - len + 1) as u64) as usize;
    (offset, len)
}

/// `n` calls of the seeded schedule.
fn schedule(rng: &mut Rng, workload: Workload, n: usize) -> Vec<(usize, usize)> {
    (0..n).map(|_| next_call(rng, workload)).collect()
}

/// Untimed, verified calls before a `stream`/`burst` measurement, and
/// calls in one traced unit.
fn call_counts(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::Stream => (2, 16),
        _ => (200, 2048),
    }
}

fn run_eval(settings: &Settings, evaluator: &BatchEvaluator) -> Result<Report, String> {
    let workload = settings.workload;
    let mut speed = Speed::new();
    let (first_setup, first_factor) = sampled_setup(settings, &mut speed)?;
    let mut first = Some((first_setup.seconds, first_setup.pipeline, first_factor));
    let mut inputs = EvalInputs::new(settings, first_setup.pool, &first_setup.compiled)?;
    let mut untimed = CallLog::default();
    let mut failed = untimed.spot_check(
        evaluator,
        &inputs.artifact,
        &inputs.check,
        &mut NullTracer,
        &mut NullMetrics,
    );
    let mut rng = Rng::new(settings.seed, 4);
    let warmup = schedule(&mut rng, workload, call_counts(workload).0);
    failed += inputs.calls(
        &warmup,
        evaluator,
        &mut NullTracer,
        &mut NullMetrics,
        &mut untimed,
    );

    // The measured phase runs in rounds, each after a fresh set-up, so
    // the set-up times sample the whole run rather than its first
    // seconds. Each round evaluates its own set-up's plan. The set-up is
    // scaled by the reference samples around it, the calls by those
    // taken between them.
    let (mut setup, mut pipeline) = (Scaled::default(), Scaled::default());
    let mut rounds: Vec<(f64, CallLog)> = Vec::with_capacity(EVAL_SETUPS);
    for _ in 0..EVAL_SETUPS {
        let (setup_s, pipeline_s, setup_factor) = match first.take() {
            Some(first) => first,
            None => {
                let (round_setup, factor) = sampled_setup(settings, &mut speed)?;
                if round_setup.pool != inputs.pool {
                    return Err("one seed generated two different volley pools".to_owned());
                }
                inputs.artifact = CompiledArtifact::from(round_setup.compiled.plan);
                (round_setup.seconds, round_setup.pipeline, factor)
            }
        };
        setup.push(setup_s, setup_factor);
        pipeline.push(pipeline_s, setup_factor);
        let mut calls = CallLog::default();
        // The set-up counts against its round's share of the run time.
        let deadline = Deadline::new((settings.seconds / EVAL_SETUPS as f64 - setup_s).max(0.0));
        loop {
            let call = [next_call(&mut rng, workload)];
            failed += inputs.calls(
                &call,
                evaluator,
                &mut NullTracer,
                &mut NullMetrics,
                &mut calls,
            );
            speed.sample_every(SPEED_INTERVAL);
            if !deadline.room_for(0.0) {
                break;
            }
        }
        let factor = speed.end_round();
        rounds.push((factor, calls));
    }

    let borrowed: Vec<(f64, &CallLog)> = rounds.iter().map(|(f, log)| (*f, log)).collect();
    let figures = CallFigures::new(&borrowed);
    Ok(Report {
        attempted: untimed.volleys + figures.volleys,
        failed,
        workers: evaluator.threads(),
        metrics: end_to_end(
            &pipeline,
            pipeline.median() * 1e3,
            inputs.counts.plan_gates,
            &figures,
            &setup,
        ),
        printed: printed(&pipeline, &figures, &setup),
        samples: vec![
            format!(
                "rounds (set-up and calls) behind setup_s, compile_s and throughput_vps: {}, \
                 with {} reference samples",
                setup.len(),
                speed.samples()
            ),
            format!(
                "untimed calls (spot check, warm-up): {}",
                untimed.micros.len()
            ),
            call_samples(&figures, "timed calls"),
        ],
        records: Vec::new(),
    })
}

fn trace_eval(settings: &Settings, evaluator: &BatchEvaluator) -> Result<Report, String> {
    let workload = settings.workload;
    // The set-up, its spot check and the first traced unit record into
    // one buffer and one registry; later traced units only add overhead
    // samples.
    let (mut tracer, mut registry) = (TraceBuffer::new(), MetricsRegistry::new());
    let traced_setup = eval_setup(settings, &mut tracer)?;
    let inputs = EvalInputs::new(settings, traced_setup.pool, &traced_setup.compiled)?;
    let mut setup_calls = CallLog::default();
    let mut failed = setup_calls.spot_check(
        evaluator,
        &inputs.artifact,
        &inputs.check,
        &mut tracer,
        &mut registry,
    );
    let mut attempted = setup_calls.volleys;
    let unit = schedule(
        &mut Rng::new(settings.seed, 4),
        workload,
        call_counts(workload).1,
    );

    let mut kept_calls = None;
    let (overhead, pairs) = overhead_pairs(settings.seconds, |traced| {
        let mut calls = CallLog::default();
        failed += match (traced, kept_calls.is_none()) {
            (false, _) => inputs.calls(
                &unit,
                evaluator,
                &mut NullTracer,
                &mut NullMetrics,
                &mut calls,
            ),
            (true, true) => inputs.calls(&unit, evaluator, &mut tracer, &mut registry, &mut calls),
            (true, false) => inputs.calls(
                &unit,
                evaluator,
                &mut TraceBuffer::new(),
                &mut MetricsRegistry::new(),
                &mut calls,
            ),
        };
        attempted += calls.volleys;
        let seconds = calls.seconds();
        if traced && kept_calls.is_none() {
            kept_calls = Some(calls.traced);
        }
        seconds
    });
    let mut calls = setup_calls.traced;
    calls.extend(kept_calls.expect("a traced unit ran"));
    let records = tracer.into_records();
    Ok(Report {
        attempted,
        failed,
        workers: evaluator.threads(),
        metrics: layer_metrics(&records, &registry, &inputs.counts, &calls, overhead),
        printed: Vec::new(),
        samples: vec![
            format!(
                "untraced/traced pairs of {}-call units behind trace.overhead_pct: {pairs}",
                unit.len()
            ),
            format!(
                "spans of the set-up and the kept traced unit: {}",
                records.len()
            ),
        ],
        records,
    })
}

/// Runs `unit(traced)` in untraced/traced pairs, alternating which one
/// goes first, until the deadline leaves no room for another pair (at
/// least one pair runs). Returns `trace.overhead_pct` — how much longer
/// the median traced unit took than the median untraced one — and the
/// number of pairs.
fn overhead_pairs(seconds: f64, mut unit: impl FnMut(bool) -> f64) -> (f64, usize) {
    let deadline = Deadline::new(seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let start = Instant::now();
        let traced_first = traced.len() % 2 == 1;
        for tracing in [traced_first, !traced_first] {
            let unit_seconds = unit(tracing);
            if tracing {
                traced.push(unit_seconds);
            } else {
                plain.push(unit_seconds);
            }
        }
        if !deadline.room_for(seconds_since(start)) {
            break;
        }
    }
    let overhead = (median(&traced) / median(&plain) - 1.0) * 100.0;
    (overhead, traced.len())
}

// ---------------------------------------------------------------- shared

/// The call figures of a run, from its rounds' calls and speed factors.
#[derive(Debug, Clone, Copy)]
struct CallFigures {
    /// Median over rounds of the round's volleys ÷ its call time scaled
    /// to the reference speed.
    throughput: f64,
    /// The same from unscaled wall times.
    wall_throughput: f64,
    /// The median scaled call time, in microseconds.
    p50: f64,
    /// The median unscaled call time, in microseconds.
    wall_p50: f64,
    /// The 99th-percentile scaled call time, in microseconds.
    p99: f64,
    /// Calls beyond `p99`.
    beyond_p99: usize,
    /// Calls over all rounds.
    calls: usize,
    /// Volleys over all rounds.
    volleys: u64,
}

impl CallFigures {
    /// The figures of `rounds`, each a speed factor and the calls made
    /// beside it.
    fn new(rounds: &[(f64, &CallLog)]) -> CallFigures {
        let scaled: Vec<f64> = rounds
            .iter()
            .flat_map(|&(factor, log)| log.micros.iter().map(move |m| m * factor))
            .collect();
        let wall: Vec<f64> = rounds
            .iter()
            .flat_map(|(_, log)| log.micros.iter().copied())
            .collect();
        let throughput = |scale: bool| {
            let per_round: Vec<f64> = rounds
                .iter()
                .filter(|(_, log)| !log.micros.is_empty())
                .map(|&(factor, log)| {
                    let factor = if scale { factor } else { 1.0 };
                    log.volleys as f64 / (log.seconds() * factor)
                })
                .collect();
            median(&per_round)
        };
        CallFigures {
            throughput: throughput(true),
            wall_throughput: throughput(false),
            p50: median(&scaled),
            wall_p50: median(&wall),
            p99: percentile(&scaled, 99.0),
            beyond_p99: beyond_percentile(&scaled, 99.0),
            calls: scaled.len(),
            volleys: rounds.iter().map(|(_, log)| log.volleys).sum(),
        }
    }
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
fn end_to_end(
    compile: &Scaled,
    compile_geomean_ms: f64,
    plan_gates: u64,
    calls: &CallFigures,
    setup: &Scaled,
) -> Vec<Metric> {
    vec![
        Metric::new("compile_s", compile.median(), "s"),
        Metric::new("compile_geomean_ms", compile_geomean_ms, "ms"),
        Metric::new("plan_gates", plan_gates as f64, "gates"),
        Metric::new("throughput_vps", calls.throughput, "volleys/s"),
        Metric::new("call_p50_us", calls.p50, "us"),
        Metric::new("setup_s", setup.median(), "s"),
        Metric::new("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// The figures printed beside the end-to-end metrics; see
/// [`Report::printed`].
fn printed(compile: &Scaled, calls: &CallFigures, setup: &Scaled) -> Vec<Metric> {
    let factors: Vec<f64> = compile
        .scaled()
        .iter()
        .zip(compile.wall())
        .map(|(scaled, wall)| scaled / wall)
        .collect();
    vec![
        Metric::new("call_p99_us", calls.p99, "us"),
        Metric::new("speed_factor", median(&factors), "ratio"),
        Metric::new("compile_wall_s", compile.wall_median(), "s"),
        Metric::new("throughput_wall_vps", calls.wall_throughput, "volleys/s"),
        Metric::new("call_p50_wall_us", calls.wall_p50, "us"),
        Metric::new("setup_wall_s", setup.wall_median(), "s"),
    ]
}

/// The sample count behind the call figures, and how many calls lie
/// beyond `call_p99_us`.
fn call_samples(calls: &CallFigures, what: &str) -> String {
    format!(
        "{what} behind throughput_vps, call_p50_us and call_p99_us: {} ({} volleys), {} beyond call_p99_us",
        calls.calls, calls.volleys, calls.beyond_p99
    )
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
