//! Parallel batched volley evaluation across the workspace's engines.
//!
//! Every engine in the workspace follows the same shape: *compile* a
//! specification once (normalize a table, extract a network's topology,
//! lower to a race-logic netlist), then *evaluate* it against many input
//! volleys. The per-volley loops scattered through the experiment binaries
//! redo the compile step each iteration and run on one core; this module
//! hoists compilation out of the hot path and fans evaluation out across
//! worker threads.
//!
//! [`CompiledArtifact`] is the compile-once half: one enum over the five
//! evaluable forms (normalized function table, gate network, SRM0/WTA
//! column, GRL netlist, flattened SWAR kernel plan), each stored in its
//! pre-indexed representation.
//! [`BatchEvaluator`] is the evaluate-many half: it splits a volley batch
//! into contiguous chunks of whole units and runs every chunk through one
//! chunk runner. The unit is an eight-volley SWAR packet when the artifact
//! is a kernel plan and every volley fits its lanes, and one volley
//! otherwise. A lone chunk runs inline on the calling thread; otherwise
//! each chunk gets its own scoped worker (`std::thread::scope`, no
//! dependencies), joined in worker order. One merge then replays every
//! chunk's buffered probe events and metrics, which arrive in index
//! order. Durations are recorded only as `st-trace` spans.
//!
//! Results are **bit-identical to the sequential engines** regardless of
//! thread count — each output is a pure function of one input volley, so
//! parallelism never reorders anything observable. The cross-engine
//! property suite (`tests/cross_properties.rs`) pins this down at 1, 2,
//! and N threads.
//!
//! ```
//! use spacetime::batch::{BatchEvaluator, CompiledArtifact};
//! use spacetime::core::{FunctionTable, Time, Volley};
//!
//! let table = FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n")?;
//! let artifact = CompiledArtifact::from(table.compile());
//! let t = Time::finite;
//! let volleys = vec![
//!     Volley::new(vec![t(3), t(4), t(5)]),
//!     Volley::new(vec![t(1), t(0), Time::INFINITY]),
//! ];
//! let outputs = BatchEvaluator::with_threads(2).eval(&artifact, &volleys)?;
//! assert_eq!(outputs[0].times(), &[t(6)]);
//! assert_eq!(outputs[1].times(), &[t(2)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use st_core::{lane, CompiledTable, CoreError, FunctionTable, Volley};
use st_grl::{compile_network, GrlNetlist, GrlScratch, GrlSim};
use st_kernel::{PacketStats, Plan, Scratch};
use st_metrics::{MetricSink, MetricsRegistry, NullMetrics};
use st_net::{CompiledNetwork, EventSim, Network};
use st_obs::{NullProbe, Probe, Recorder};
use st_tnn::Column;
use st_trace::{NullTracer, SpanId, Tracer};

/// A specification compiled into its evaluate-many form.
///
/// Construct via the `From` impls (when you already hold the compiled
/// representation) or the `from_*` helpers (which run the compile step for
/// you). The artifact is immutable, so one instance can back any number of
/// concurrent [`BatchEvaluator::eval`] calls.
#[derive(Debug, Clone)]
pub enum CompiledArtifact {
    /// A normalized function table, indexed by finite-support mask
    /// ([`FunctionTable::compile`]). Outputs are width-1 volleys.
    Table(CompiledTable),
    /// A gate network with its topology extracted ([`EventSim::compile`]).
    Network(CompiledNetwork),
    /// An SRM0 column with lateral inhibition ([`Column::eval`]).
    Column(Column),
    /// A race-logic netlist, cycle-accurately simulated ([`GrlSim`]).
    Grl(GrlNetlist),
    /// A flattened SWAR execution plan ([`Plan`]). Batches whose inputs
    /// fit the plan's lane bound take the eight-volleys-per-packet SWAR
    /// path; everything else falls back to the bit-identical scalar
    /// plan evaluator.
    Kernel(Plan),
}

impl CompiledArtifact {
    /// Compiles a function table (see [`FunctionTable::compile`]).
    #[must_use]
    pub fn from_table(table: &FunctionTable) -> CompiledArtifact {
        CompiledArtifact::Table(table.compile())
    }

    /// Extracts a network's topology (see [`EventSim::compile`]).
    #[must_use]
    pub fn from_network(network: &Network) -> CompiledArtifact {
        CompiledArtifact::Network(EventSim::new().compile(network))
    }

    /// Lowers a network to a GRL netlist (see
    /// [`st_grl::compile_network`]).
    ///
    /// # Panics
    ///
    /// Panics on a gate kind with no CMOS mapping; use
    /// [`CompiledArtifact::try_from_grl_network`] when the network comes
    /// from outside the workspace builders.
    #[must_use]
    pub fn from_grl_network(network: &Network) -> CompiledArtifact {
        CompiledArtifact::Grl(compile_network(network))
    }

    /// Fallible [`CompiledArtifact::from_grl_network`]: an unsupported
    /// gate kind comes back as an error naming the gate.
    ///
    /// # Errors
    ///
    /// The rendered [`st_grl::GrlCompileError`] when a gate has no CMOS
    /// mapping.
    pub fn try_from_grl_network(network: &Network) -> Result<CompiledArtifact, String> {
        st_grl::try_compile_network(network)
            .map(CompiledArtifact::Grl)
            .map_err(|e| e.to_string())
    }

    /// Flattens a network into a SWAR execution plan (see
    /// [`Plan::from_network`]).
    #[must_use]
    pub fn from_kernel_network(network: &Network) -> CompiledArtifact {
        CompiledArtifact::Kernel(Plan::from_network(network))
    }

    /// Flattens a race-logic netlist into a SWAR execution plan (see
    /// [`Plan::from_grl`]).
    #[must_use]
    pub fn from_kernel_grl(netlist: &GrlNetlist) -> CompiledArtifact {
        CompiledArtifact::Kernel(Plan::from_grl(netlist))
    }

    /// The input width every volley must have.
    #[must_use]
    pub fn input_width(&self) -> usize {
        match self {
            CompiledArtifact::Table(t) => t.arity(),
            CompiledArtifact::Network(n) => n.input_count(),
            CompiledArtifact::Column(c) => c.input_width(),
            CompiledArtifact::Grl(g) => g.input_count(),
            CompiledArtifact::Kernel(p) => p.input_count(),
        }
    }

    /// The width of each output volley.
    #[must_use]
    pub fn output_width(&self) -> usize {
        match self {
            CompiledArtifact::Table(_) => 1,
            CompiledArtifact::Network(n) => n.output_count(),
            CompiledArtifact::Column(c) => c.output_width(),
            CompiledArtifact::Grl(g) => g.outputs().len(),
            CompiledArtifact::Kernel(p) => p.output_width(),
        }
    }

    /// Evaluates one volley sequentially — the batch engine's unit of
    /// work on every call that does not take SWAR packets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if the volley's width differs
    /// from [`CompiledArtifact::input_width`].
    pub fn eval_one(&self, volley: &Volley) -> Result<Volley, CoreError> {
        self.eval_one_instrumented(volley, &mut NullProbe, &mut NullMetrics)
    }

    /// [`CompiledArtifact::eval_one`] with a probe and a metric sink:
    /// routes to the engine's `*_instrumented` entry point, whose probe
    /// gets the engine's model-time events (gate firings, wire falls,
    /// potentials and spikes, WTA decisions; a function table records
    /// none) and whose sink gets its counters (`net.*`, `grl.*`,
    /// `srm0.*`/`tnn.*`, `kernel.*`, or `table.lookups`). With
    /// [`NullProbe`] and [`NullMetrics`] this compiles to exactly
    /// [`CompiledArtifact::eval_one`]; results are identical for any
    /// instruments.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if the volley's width differs
    /// from [`CompiledArtifact::input_width`].
    pub fn eval_one_instrumented<P: Probe, M: MetricSink>(
        &self,
        volley: &Volley,
        probe: &mut P,
        sink: &mut M,
    ) -> Result<Volley, CoreError> {
        match self {
            CompiledArtifact::Table(t) => {
                let out = t.eval(volley.times()).map(|out| Volley::new(vec![out]))?;
                if sink.is_live() {
                    sink.incr("table.lookups", 1);
                }
                Ok(out)
            }
            CompiledArtifact::Network(n) => n
                .run_instrumented(volley.times(), probe, sink)
                .map(|r| Volley::new(r.outputs)),
            CompiledArtifact::Column(c) => {
                if volley.width() != c.input_width() {
                    return Err(CoreError::ArityMismatch {
                        expected: c.input_width(),
                        actual: volley.width(),
                    });
                }
                Ok(c.eval_instrumented(volley, probe, sink))
            }
            CompiledArtifact::Grl(g) => GrlSim::new()
                .run_instrumented(g, volley.times(), &mut GrlScratch::default(), probe, sink)
                .map(|r| Volley::new(r.outputs)),
            CompiledArtifact::Kernel(p) => p
                .eval_instrumented(volley.times(), probe, sink)
                .map(Volley::new),
        }
    }
}

impl From<CompiledTable> for CompiledArtifact {
    fn from(table: CompiledTable) -> CompiledArtifact {
        CompiledArtifact::Table(table)
    }
}

impl From<CompiledNetwork> for CompiledArtifact {
    fn from(network: CompiledNetwork) -> CompiledArtifact {
        CompiledArtifact::Network(network)
    }
}

impl From<Column> for CompiledArtifact {
    fn from(column: Column) -> CompiledArtifact {
        CompiledArtifact::Column(column)
    }
}

impl From<GrlNetlist> for CompiledArtifact {
    fn from(netlist: GrlNetlist) -> CompiledArtifact {
        CompiledArtifact::Grl(netlist)
    }
}

impl From<Plan> for CompiledArtifact {
    fn from(plan: Plan) -> CompiledArtifact {
        CompiledArtifact::Kernel(plan)
    }
}

/// A failed volley within a batch.
///
/// Workers race through the batch in parallel and several volleys may be
/// malformed; the engine deterministically reports the **lowest-index**
/// failure, so the error is reproducible across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Index of the offending volley within the input batch.
    pub index: usize,
    /// What went wrong with it.
    pub source: CoreError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "volley {} failed: {:?}", self.index, self.source)
    }
}

impl std::error::Error for BatchError {}

/// Multi-threaded evaluate-many engine over a [`CompiledArtifact`].
///
/// The batch is split into contiguous chunks, one per worker; workers
/// write into disjoint slices of the output vector, so no locks or
/// channels are involved and the output order equals the input order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEvaluator {
    threads: usize,
}

impl Default for BatchEvaluator {
    fn default() -> BatchEvaluator {
        BatchEvaluator::new()
    }
}

impl BatchEvaluator {
    /// An evaluator using all available cores
    /// ([`std::thread::available_parallelism`]; 1 if unknown).
    #[must_use]
    pub fn new() -> BatchEvaluator {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        BatchEvaluator { threads }
    }

    /// An evaluator with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> BatchEvaluator {
        BatchEvaluator {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates every volley against the artifact, preserving order.
    ///
    /// Spawns at most one scoped worker per thread and per unit (an
    /// eight-volley packet on the SWAR path, one volley otherwise); a
    /// single-thread evaluator, or a batch of one unit, runs inline
    /// without spawning.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchError`] if any volley fails
    /// (in practice: a width mismatch against
    /// [`CompiledArtifact::input_width`]). The error is identical for
    /// every thread count.
    pub fn eval(
        &self,
        artifact: &CompiledArtifact,
        volleys: &[Volley],
    ) -> Result<Vec<Volley>, BatchError> {
        self.eval_instrumented(
            artifact,
            volleys,
            &mut NullProbe,
            &mut NullMetrics,
            &mut NullTracer,
            SpanId::NONE,
        )
    }

    /// [`BatchEvaluator::eval`] with a probe, a metric sink and a span
    /// tracer. With [`NullProbe`], [`NullMetrics`] and [`NullTracer`]
    /// this is exactly [`BatchEvaluator::eval`]; outputs are identical
    /// for any instruments. What each one records, on success only:
    ///
    /// - **probe:** per volley, in index order, one
    ///   [`ObsEvent::VolleyStart`] marker carrying the volley's index in
    ///   the batch, then the events that volley's engine records (via
    ///   [`CompiledArtifact::eval_one_instrumented`]). A SWAR packet
    ///   records only its volleys' markers: the lane walk evaluates
    ///   eight volleys per gate at once and has no per-gate events.
    /// - **sink:** the per-volley engine counters or, on the SWAR path,
    ///   the `kernel.packets`/`kernel.gates_swar`/`kernel.gates_skipped`
    ///   counters; plus the `batch.volleys`/`batch.chunks` counters.
    ///   Engine counters are identical for every thread count.
    /// - **tracer:** one `batch.chunk` span per chunk and, on the SWAR
    ///   path, one `kernel.packet` span per packet under its chunk, all
    ///   parented to `parent`: the dispatching stage span, whose id
    ///   crosses the `std::thread::scope` boundary explicitly. A lone
    ///   chunk records on the calling thread (`tid` 0); spawned workers
    ///   record into buffers minted by [`Tracer::worker`]. Spans are the
    ///   only place a duration is recorded.
    ///
    /// Each chunk buffers its events and counters; the chunks come back
    /// in worker order and are replayed in that order, so the probe
    /// stream and the counters are the same at every thread count.
    ///
    /// [`ObsEvent::VolleyStart`]: st_obs::ObsEvent::VolleyStart
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`BatchError`] if any volley fails; no
    /// events, metrics, or spans are recorded for a failed batch (the
    /// trace is truncated back to its state at entry).
    pub fn eval_instrumented<P: Probe, M: MetricSink, T: Tracer>(
        &self,
        artifact: &CompiledArtifact,
        volleys: &[Volley],
        probe: &mut P,
        sink: &mut M,
        tracer: &mut T,
        parent: SpanId,
    ) -> Result<Vec<Volley>, BatchError> {
        // The whole call takes SWAR packets when every volley fits the
        // plan's lanes; otherwise it runs one volley at a time, and the
        // scalar plan evaluator (bit-identical at full u64 precision)
        // reports the lowest failing index like every other engine.
        let packets = match artifact {
            CompiledArtifact::Kernel(plan)
                if !volleys.is_empty()
                    && volleys.iter().all(|v| v.width() == plan.input_count())
                    && plan.lane_capable(volleys) =>
            {
                Some(plan)
            }
            _ => None,
        };
        let job = Job {
            artifact,
            packets,
            probed: probe.is_enabled(),
            metered: sink.is_live(),
            parent,
        };
        let trace_mark = tracer.mark();
        let mut outputs: Vec<Volley> = Vec::with_capacity(volleys.len());
        outputs.resize_with(volleys.len(), || Volley::new(Vec::new()));

        // Chunks are whole units (packets or volleys), so the unit
        // partition, and with it every engine counter, is the same at
        // every thread count.
        let unit = if packets.is_some() { lane::LANES } else { 1 };
        let units = volleys.len().div_ceil(unit);
        let workers = self.threads.min(units).max(1);
        let chunks: Vec<Chunk> = if workers == 1 {
            vec![job.run_chunk(0, volleys, &mut outputs, tracer)]
        } else {
            let chunk_len = units.div_ceil(workers) * unit;
            std::thread::scope(|scope| {
                let job = &job;
                let handles: Vec<_> = volleys
                    .chunks(chunk_len)
                    .zip(outputs.chunks_mut(chunk_len))
                    .enumerate()
                    .map(|(w, (input, output))| {
                        let mut wtracer = tracer.worker(w as u32 + 1);
                        scope.spawn(move || {
                            let chunk = job.run_chunk(w * chunk_len, input, output, &mut wtracer);
                            (chunk, wtracer)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        let (chunk, wtracer) = handle.join().expect("batch worker panicked");
                        tracer.absorb(wtracer);
                        chunk
                    })
                    .collect()
            })
        };

        // Chunks stop at their first failure; in worker order the first
        // failure found is the lowest-index one.
        if let Some(error) = chunks.iter().find_map(|chunk| chunk.error.clone()) {
            tracer.truncate(trace_mark);
            return Err(error);
        }
        if job.metered {
            sink.incr("batch.volleys", volleys.len() as u64);
            sink.incr("batch.chunks", chunks.len() as u64);
        }
        for chunk in chunks {
            if let Some(registry) = &chunk.registry {
                sink.absorb(registry);
            }
            if job.metered && job.packets.is_some() {
                sink.incr("kernel.packets", chunk.len.div_ceil(lane::LANES) as u64);
                sink.incr("kernel.gates_swar", chunk.stats.gates_swar);
                sink.incr("kernel.gates_skipped", chunk.stats.gates_skipped);
            }
            for event in chunk.events.into_iter().flat_map(Recorder::into_events) {
                probe.record(event);
            }
        }
        Ok(outputs)
    }
}

/// What every chunk of one [`BatchEvaluator::eval_instrumented`] call
/// shares.
struct Job<'a> {
    artifact: &'a CompiledArtifact,
    /// The kernel plan, when the call takes SWAR packets.
    packets: Option<&'a Plan>,
    /// Whether the probe is enabled, so chunks buffer events.
    probed: bool,
    /// Whether the sink is live, so chunks meter into registries.
    metered: bool,
    parent: SpanId,
}

/// What one chunk hands back to the merge.
struct Chunk {
    len: usize,
    /// The packet walk's gate counts (zero off the SWAR path).
    stats: PacketStats,
    /// The chunk's probe events, in index order, when probed.
    events: Option<Recorder>,
    /// The per-volley engine counters, when metered.
    registry: Option<MetricsRegistry>,
    /// The chunk's first failure; it stops the chunk.
    error: Option<BatchError>,
}

impl Job<'_> {
    /// Evaluates the volleys `input` (the batch's from index `start` on)
    /// into `output` under one `batch.chunk` span: eight at a time
    /// through [`Plan::eval_packet`] on SWAR calls, each under a
    /// `kernel.packet` span, and one at a time through
    /// [`CompiledArtifact::eval_one_instrumented`] otherwise.
    fn run_chunk<T: Tracer>(
        &self,
        start: usize,
        input: &[Volley],
        output: &mut [Volley],
        tracer: &mut T,
    ) -> Chunk {
        let span = tracer.begin("batch.chunk", self.parent);
        let mut chunk = Chunk {
            len: input.len(),
            stats: PacketStats::default(),
            events: self.probed.then(Recorder::new),
            registry: self.metered.then(MetricsRegistry::new),
            error: None,
        };
        if let Some(plan) = self.packets {
            let traced = tracer.is_enabled();
            let mut scratch = Scratch::default();
            for (offset, (packet, slots)) in input
                .chunks(lane::LANES)
                .zip(output.chunks_mut(lane::LANES))
                .enumerate()
            {
                if let Some(events) = &mut chunk.events {
                    let first = start + offset * lane::LANES;
                    (first..first + packet.len()).for_each(|index| events.begin_volley(index));
                }
                let packet_span = if traced {
                    tracer.begin("kernel.packet", span)
                } else {
                    SpanId::NONE
                };
                chunk
                    .stats
                    .absorb(plan.eval_packet(&mut scratch, packet, slots));
                if traced {
                    tracer.end(packet_span);
                }
            }
        } else {
            for (offset, (volley, slot)) in input.iter().zip(output).enumerate() {
                let result = match &mut chunk.events {
                    Some(events) => {
                        events.begin_volley(start + offset);
                        self.eval_one(volley, events, chunk.registry.as_mut())
                    }
                    None => self.eval_one(volley, &mut NullProbe, chunk.registry.as_mut()),
                };
                match result {
                    Ok(out) => *slot = out,
                    Err(source) => {
                        chunk.error = Some(BatchError {
                            index: start + offset,
                            source,
                        });
                        break;
                    }
                }
            }
        }
        tracer.end(span);
        chunk
    }

    /// One volley through [`CompiledArtifact::eval_one_instrumented`],
    /// metered into the chunk's registry when there is one.
    fn eval_one<P: Probe>(
        &self,
        volley: &Volley,
        probe: &mut P,
        registry: Option<&mut MetricsRegistry>,
    ) -> Result<Volley, CoreError> {
        match registry {
            Some(registry) => self.artifact.eval_one_instrumented(volley, probe, registry),
            None => self
                .artifact
                .eval_one_instrumented(volley, probe, &mut NullMetrics),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_table() -> FunctionTable {
        FunctionTable::parse("0 1 2 -> 3\n1 0 ∞ -> 2\n2 2 0 -> 2\n").unwrap()
    }

    fn volleys3(window: u64) -> Vec<Volley> {
        st_core::enumerate_inputs(3, window)
            .map(Volley::new)
            .collect()
    }

    #[test]
    fn table_artifact_matches_sequential_eval_at_any_thread_count() {
        let table = paper_table();
        let artifact = CompiledArtifact::from_table(&table);
        assert_eq!(artifact.input_width(), 3);
        assert_eq!(artifact.output_width(), 1);
        let volleys = volleys3(2);
        let expected: Vec<Volley> = volleys
            .iter()
            .map(|v| Volley::new(vec![table.eval(v.times()).unwrap()]))
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = BatchEvaluator::with_threads(threads)
                .eval(&artifact, &volleys)
                .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn error_reports_lowest_index_regardless_of_threads() {
        let artifact = CompiledArtifact::from_table(&paper_table());
        let mut volleys = volleys3(1);
        volleys[5] = Volley::silent(2); // wrong width
        volleys[9] = Volley::silent(7); // also wrong, later
        for threads in [1, 2, 3, 8] {
            let err = BatchEvaluator::with_threads(threads)
                .eval(&artifact, &volleys)
                .unwrap_err();
            assert_eq!(err.index, 5, "threads = {threads}");
            assert!(matches!(
                err.source,
                CoreError::ArityMismatch {
                    expected: 3,
                    actual: 2
                }
            ));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let artifact = CompiledArtifact::from_table(&paper_table());
        assert_eq!(BatchEvaluator::new().eval(&artifact, &[]).unwrap(), vec![]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(BatchEvaluator::with_threads(0).threads(), 1);
    }

    #[test]
    fn probed_eval_matches_and_marks_every_volley() {
        use st_net::synth::{synthesize, SynthesisOptions};
        use st_obs::ObsEvent;
        let network = synthesize(&paper_table(), SynthesisOptions::pure());
        let artifact = CompiledArtifact::from_network(&network);
        let volleys = volleys3(2);
        let expected = BatchEvaluator::with_threads(1)
            .eval(&artifact, &volleys)
            .unwrap();
        // A sequential run of the network engine, one marker per volley.
        let compiled = EventSim::new().compile(&network);
        let mut sequential = Recorder::new();
        for (index, volley) in volleys.iter().enumerate() {
            sequential.begin_volley(index);
            compiled
                .run_instrumented(volley.times(), &mut sequential, &mut NullMetrics)
                .unwrap();
        }
        assert!(sequential
            .events()
            .iter()
            .any(|e| matches!(e, ObsEvent::GateFired { .. })));
        for threads in [1, 3] {
            let mut recorder = Recorder::new();
            let got = BatchEvaluator::with_threads(threads)
                .eval_instrumented(
                    &artifact,
                    &volleys,
                    &mut recorder,
                    &mut NullMetrics,
                    &mut NullTracer,
                    SpanId::NONE,
                )
                .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(recorder, sequential, "threads = {threads}");
        }

        // A failed batch records nothing.
        let mut bad = volleys3(1);
        bad[2] = Volley::silent(1);
        let mut recorder = Recorder::new();
        assert!(BatchEvaluator::with_threads(2)
            .eval_instrumented(
                &artifact,
                &bad,
                &mut recorder,
                &mut NullMetrics,
                &mut NullTracer,
                SpanId::NONE
            )
            .is_err());
        assert!(recorder.is_empty());
    }

    #[test]
    fn metered_eval_merges_worker_registries_deterministically() {
        let artifact = CompiledArtifact::from_table(&paper_table());
        let volleys = volleys3(2);
        let expected = BatchEvaluator::with_threads(1)
            .eval(&artifact, &volleys)
            .unwrap();
        let mut baseline: Option<MetricsRegistry> = None;
        for threads in [1, 2, 3, 8] {
            let mut sink = MetricsRegistry::new();
            let got = BatchEvaluator::with_threads(threads)
                .eval_instrumented(
                    &artifact,
                    &volleys,
                    &mut NullProbe,
                    &mut sink,
                    &mut NullTracer,
                    SpanId::NONE,
                )
                .unwrap();
            assert_eq!(got, expected, "threads = {threads}");
            assert_eq!(sink.counter("batch.volleys"), volleys.len() as u64);
            assert_eq!(
                sink.counter("batch.chunks"),
                threads.min(volleys.len()) as u64
            );
            assert_eq!(sink.counter("table.lookups"), volleys.len() as u64);
            assert_eq!(sink.histograms().count(), 0, "durations are spans");
            // Engine counters (everything except the chunk count) are
            // identical at every thread count.
            if let Some(base) = &baseline {
                let base_counts: Vec<_> = base
                    .counters()
                    .filter(|(n, _)| *n != "batch.chunks")
                    .collect();
                let these: Vec<_> = sink
                    .counters()
                    .filter(|(n, _)| *n != "batch.chunks")
                    .collect();
                assert_eq!(these, base_counts, "threads = {threads}");
            } else {
                baseline = Some(sink.clone());
            }
        }

        // A failed batch records no metrics at any thread count.
        let mut bad = volleys3(1);
        bad[2] = Volley::silent(1);
        for threads in [1, 4] {
            let mut sink = MetricsRegistry::new();
            assert!(BatchEvaluator::with_threads(threads)
                .eval_instrumented(
                    &artifact,
                    &bad,
                    &mut NullProbe,
                    &mut sink,
                    &mut NullTracer,
                    SpanId::NONE
                )
                .is_err());
            assert!(sink.is_empty(), "threads = {threads}");
        }
    }

    #[test]
    fn network_and_grl_artifacts_agree_with_each_other() {
        use st_net::synth::{synthesize, SynthesisOptions};
        let table = paper_table();
        let network = synthesize(&table, SynthesisOptions::pure());
        let net_artifact = CompiledArtifact::from_network(&network);
        let grl_artifact = CompiledArtifact::from_grl_network(&network);
        let volleys = volleys3(2);
        let evaluator = BatchEvaluator::with_threads(4);
        let via_net = evaluator.eval(&net_artifact, &volleys).unwrap();
        let via_grl = evaluator.eval(&grl_artifact, &volleys).unwrap();
        assert_eq!(via_net, via_grl);
    }
}
