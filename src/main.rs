//! `spacetime` — a command-line front end to the space-time algebra stack.
//!
//! Subcommands cover the pipeline a user would actually drive by hand:
//! evaluate a function table, synthesize it into a `{min, lt, inc}`
//! network (Theorem 1), simulate it as CMOS race logic with transition
//! accounting and optional VCD waveforms, and run the classic race-logic
//! applications. Run `spacetime help` for usage.

use std::process::ExitCode;

use spacetime::core::{FunctionTable, Time, Volley};
use spacetime::grl::{try_compile_network, try_to_vcd, GrlScratch, GrlSim};
use spacetime::metrics::NullMetrics;
use spacetime::net::synth::{synthesize, SynthesisOptions};
use spacetime::net::{analysis, gate_counts, EventSim, Network};
use spacetime::obs::NullProbe;
use spacetime::trace::{NullTracer, SpanId};

const USAGE: &str = "\
spacetime — the space-time algebra toolbox

USAGE:
  spacetime eval <table-file> <t1> <t2> …       evaluate a function table
  spacetime synth <table-file> [--pure] [--optimize] [--dot] [--save <f>]
                                                synthesize a table (Theorem 1)
  spacetime simulate <table-file> <t1> <t2> … [--vcd <out.vcd>]
                                                run the synthesized network as
                                                CMOS race logic
  spacetime expr <expression> [<t1> <t2> …]     evaluate / inspect an
                                                s-expression over the
                                                primitives (simplifies it,
                                                samples its table)
  spacetime net <netlist-file> <t1> <t2> …      evaluate a saved netlist
                                                (see st-net::text format)
  spacetime sort <t1> <t2> …                    sort a volley with a bitonic
                                                network
  spacetime wta [--tau N] <t1> <t2> …           winner-take-all inhibition
  spacetime edit-distance <a> <b>               race-logic edit distance
  spacetime gen-patterns [--patterns K] [--width W] [--count N] [--seed S]
                                                emit a labelled volley stream
                                                with hidden repeating patterns
  spacetime train <stream-file> [--neurons K] [--epochs E] [--seed S]
                  [--save <column-file>]        unsupervised WTA+STDP training
  spacetime classify <column-file> <t1> <t2> …  run a trained column on one
                                                volley
  spacetime batch <spec-file> <volleys-file> [--engine table|net|grl|column|kernel]
                  [--threads N]                 evaluate a whole volley file
                                                (compile once, fan out over
                                                worker threads; one output
                                                volley per line; the net/grl/
                                                kernel engines accept a table
                                                or an st-net netlist spec)
  spacetime lint <file> [--kind table|net|column] [--json] [--max-window N]
                  [--relational] [--deny CODE] [--allow CODE]
                                                statically check a table,
                                                netlist, or column against
                                                the space-time invariants
                                                (docs/lint.md); --relational
                                                adds the STA3xx zone-domain
                                                tier; --deny/--allow promote
                                                or demote findings by STA code
  spacetime verify <file> [--against <spec.table>] [--kind table|net|column]
                  [--window N] [--json] [--deny CODE] [--allow CODE]
                                                prove bounded equivalence of
                                                every lowering (table ↔ net ↔
                                                GRL ↔ column, § IV/§ V), emit
                                                an interval boundedness
                                                certificate, and report any
                                                counterexample volley as an
                                                STA1xx finding (docs/verify.md)
  spacetime opt <file> [--kind table|net|column] [--passes p1,p2,…]
                  [--window N] [--check] [--json] [--emit <out>]
                                                run the verified optimization
                                                pipeline (docs/opt.md): every
                                                pass is gated by bounded
                                                equivalence and a rejected
                                                rewrite is reported with its
                                                counterexample volley; --check
                                                exits non-zero on any
                                                rejection, --emit writes the
                                                optimized artifact
  spacetime trace <file> [--format raster|jsonl|chrome|stats|prom]
                  [--engine table|net|grl|column] [--volleys <file>]
                  [--threads N] [--out <file>]   run a traced evaluation and
                                                export the event stream: a
                                                spike-raster CSV, a JSONL
                                                event log, a Chrome
                                                trace_event JSON (open in
                                                chrome://tracing or Perfetto),
                                                a run-statistics summary
                                                (docs/observability.md), or a
                                                Prometheus text exposition of
                                                the engine counters
                                                (docs/metrics.md)
  spacetime profile <file> [--format flame|chrome|top|json]
                  [--engine table|net|grl|column|kernel] [--volleys <file>]
                  [--threads N] [--out <file>]   run the whole pipeline —
                                                compile, lint, verified
                                                optimization, kernel plan
                                                build, batch evaluation —
                                                under the hierarchical span
                                                profiler and export the
                                                causal timeline: a collapsed
                                                -stack flamegraph (feed to
                                                inferno / flamegraph.pl), a
                                                Chrome trace_event JSON, a
                                                self-time top table, or raw
                                                span JSONL
                                                (docs/observability.md)
  spacetime inspect <file> [--stats] [--raster-summary] [--why <gate>@<t>]
                  [--volley N] [--witness <prefix>] [--diff <other-file>]
                  [--engine net|grl|column|table] [--volleys <file>]
                  [--threads N] [--trace <run.jsonl>] [--json] [--dot]
                  [--out <file>]                 semantic queries over a
                                                recorded run
                                                (docs/observability.md):
                                                volley-coding statistics and
                                                spike summaries; causal
                                                provenance of one (gate, time)
                                                event (--why, with a
                                                `spacetime batch`-replayable
                                                witness volley via --witness);
                                                first-divergence localization
                                                between two artifacts' runs
                                                (--diff; exits 1 on
                                                divergence); --trace analyses
                                                a recorded spacetime-obs/1
                                                JSONL export instead of
                                                re-running
  spacetime bench [--quick|--full] [--label L] [--threads T1,T2,…]
                  [--out <file>] [--history <f>] time the engine scenario
                                                matrix and emit a
                                                schema-versioned JSON report
                                                with counters and latency
                                                percentiles (docs/metrics.md);
                                                --history also appends one
                                                compact trend row to a JSONL
                                                perf ledger
  spacetime bench --compare <old.json> <new.json> [--threshold R]
                                                diff two bench reports on
                                                median wall-clock; exits
                                                non-zero past the threshold
                                                (default 1.5×)
  spacetime bench --trend <history.jsonl> [--baseline <report.json>]
                                                render the perf-trend ledger
                                                as per-scenario p50 deltas
                                                against a baseline report
                                                (default BENCH_seed.json)
  spacetime bench --check <report.json>         validate a bench report
                                                against the JSON schema
  spacetime help                                this text

Times are decimal ticks or `inf`/`∞` for \"no event\". Table files contain
one `x1 x2 … -> y` row per line (`#` comments allowed); see docs/THEORY.md.

`lint` and `verify` exit 0 when clean, 1 on error-severity findings (after
--deny/--allow overrides), and 2 on operational errors (unreadable file,
bad flag, unverifiable domain). `inspect --diff` follows the same contract:
0 when the runs agree, 1 on a localized divergence, 2 when the comparison
could not run.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // lint and verify own a three-way exit contract — 0 = clean, 1 =
    // error-severity findings, 2 = operational error — so CI gates can
    // tell "the artifact is bad" from "the check could not run".
    match args.first().map(String::as_str) {
        Some("lint") => return gate_exit(cmd_lint(&args[1..])),
        Some("verify") => return gate_exit(cmd_verify(&args[1..])),
        Some("opt") => return gate_exit(cmd_opt(&args[1..])),
        Some("inspect") => return gate_exit(cmd_inspect(&args[1..])),
        _ => {}
    }
    let result = match args.first().map(String::as_str) {
        Some("eval") => cmd_eval(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("expr") => cmd_expr(&args[1..]),
        Some("net") => cmd_net(&args[1..]),
        Some("sort") => cmd_sort(&args[1..]),
        Some("wta") => cmd_wta(&args[1..]),
        Some("edit-distance") => cmd_edit_distance(&args[1..]),
        Some("gen-patterns") => cmd_gen_patterns(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("classify") => cmd_classify(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown subcommand {other:?}; try `spacetime help`"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn parse_times(args: &[String]) -> Result<Vec<Time>, String> {
    args.iter()
        .map(|a| a.parse::<Time>().map_err(|e| e.to_string()))
        .collect()
}

fn load_table(path: &str) -> Result<FunctionTable, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Loads a gate-network spec that is either a function table (run through
/// the Theorem 1 synthesis) or an `st-net` netlist, detected from the
/// text — the accepted spec forms for the batch net/grl/kernel engines.
fn load_netlike(path: &str) -> Result<Network, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match detect_kind(&text) {
        "table" => {
            let table = FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(synthesize(&table, SynthesisOptions::default()))
        }
        "net" => spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}")),
        kind => Err(format!(
            "{path}: a {kind} file cannot drive the net/grl/kernel engines"
        )),
    }
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: spacetime eval <table-file> <t1> <t2> …".into());
    };
    let table = load_table(path)?;
    let inputs = parse_times(rest)?;
    let out = table.eval(&inputs).map_err(|e| e.to_string())?;
    println!("{out}");
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut pure = false;
    let mut opt = false;
    let mut dot = false;
    let mut save: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--pure" => pure = true,
            "--optimize" => opt = true,
            "--dot" => dot = true,
            "--save" => {
                save = Some(iter.next().ok_or("--save needs a file path")?.to_owned());
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path
        .ok_or("usage: spacetime synth <table-file> [--pure] [--optimize] [--dot] [--save <f>]")?;
    let table = load_table(&path)?;
    let options = if pure {
        SynthesisOptions::pure()
    } else {
        SynthesisOptions::default()
    };
    let mut network = synthesize(&table, options);
    if opt {
        let outcome =
            spacetime::opt::optimize_network(&network, &spacetime::opt::OptOptions::default())?;
        eprintln!(
            "optimized: {} → {} gates ({:.0}% removed)",
            outcome.before,
            outcome.after,
            (1.0 - outcome.after as f64 / outcome.before as f64) * 100.0
        );
        if let spacetime::verify::Artifact::Net(optimized) = outcome.artifact {
            network = optimized;
        }
    }
    if let Some(save) = save {
        std::fs::write(&save, spacetime::net::network_to_text(&network))
            .map_err(|e| format!("cannot write {save}: {e}"))?;
        eprintln!("saved netlist to {save}");
    }
    if dot {
        print!("{}", analysis::to_dot(&network));
    } else {
        println!("rows: {}  arity: {}", table.len(), table.arity());
        println!("gates: {}", gate_counts(&network));
        println!(
            "logic depth: {}  critical delay: {}",
            analysis::logic_depth(&network),
            analysis::critical_delay(&network)
        );
    }
    Ok(())
}

fn simulate_network(
    network: &Network,
    inputs: &[Time],
    vcd_path: Option<&str>,
) -> Result<(), String> {
    let netlist = try_compile_network(network).map_err(|e| e.to_string())?;
    let report = GrlSim::new()
        .run(&netlist, inputs)
        .map_err(|e| e.to_string())?;
    let (and, or, lt, ff) = netlist.gate_census();
    println!("outputs: {}", Volley::new(report.outputs.clone()));
    println!("cmos: {and} AND, {or} OR, {lt} latches, {ff} flip-flops");
    println!(
        "transitions: {} eval + {} reset (activity {:.3})",
        report.eval_transitions,
        report.reset_transitions,
        report.activity_factor()
    );
    if let Some(path) = vcd_path {
        let vcd = try_to_vcd(&netlist, &report).map_err(|e| format!("cannot render VCD: {e}"))?;
        std::fs::write(path, &vcd).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path} ({} signals)", netlist.wire_count());
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut times = Vec::new();
    let mut vcd_path = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--vcd" => {
                vcd_path = Some(iter.next().ok_or("--vcd needs a file path")?.to_owned());
            }
            other if path.is_none() => path = Some(other.to_owned()),
            other => times.push(other.to_owned()),
        }
    }
    let path =
        path.ok_or("usage: spacetime simulate <table-file> <t1> <t2> … [--vcd <out.vcd>]")?;
    let table = load_table(&path)?;
    let inputs = parse_times(&times)?;
    let network = synthesize(&table, SynthesisOptions::default());
    simulate_network(&network, &inputs, vcd_path.as_deref())
}

fn cmd_net(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: spacetime net <netlist-file> <t1> <t2> …".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let network = spacetime::net::parse_network(&text).map_err(|e| e.to_string())?;
    if rest.is_empty() {
        println!(
            "inputs: {}  outputs: {}",
            network.input_count(),
            network.output_count()
        );
        println!("gates: {}", gate_counts(&network));
        return Ok(());
    }
    let inputs = parse_times(rest)?;
    let out = network.eval(&inputs).map_err(|e| e.to_string())?;
    println!("{}", Volley::new(out));
    Ok(())
}

fn cmd_expr(args: &[String]) -> Result<(), String> {
    let [text, rest @ ..] = args else {
        return Err("usage: spacetime expr <expression> [<t1> <t2> …]".into());
    };
    let e: spacetime::core::Expr = text.parse().map_err(|e| format!("{e}"))?;
    println!("expression: {e}");
    let reduced = spacetime::core::simplify(&e);
    if reduced != e {
        println!("simplified: {reduced}");
    }
    println!(
        "arity: {}  ops: {}  depth: {}  minimal basis: {}",
        {
            use spacetime::core::SpaceTimeFunction as _;
            e.arity()
        },
        e.op_count(),
        e.depth(),
        e.uses_only_minimal_primitives()
    );
    if rest.is_empty() {
        use spacetime::core::SpaceTimeFunction as _;
        let f = spacetime::core::with_arity(e.clone(), e.arity());
        match FunctionTable::from_fn(&f, 3) {
            Ok(table) => println!("canonical table (window 3):\n{table}"),
            Err(err) => println!("not samplable as a causal table: {err}"),
        }
    } else {
        let inputs = parse_times(rest)?;
        use spacetime::core::SpaceTimeFunction as _;
        let out = e.apply(&inputs).map_err(|e| e.to_string())?;
        println!("value at {}: {out}", Volley::new(inputs));
    }
    Ok(())
}

fn cmd_sort(args: &[String]) -> Result<(), String> {
    let inputs = parse_times(args)?;
    if inputs.is_empty() {
        return Err("usage: spacetime sort <t1> <t2> …".into());
    }
    let network = spacetime::net::sorting::sorting_network(inputs.len());
    let out = network.eval(&inputs).map_err(|e| e.to_string())?;
    println!("{}", Volley::new(out));
    eprintln!(
        "({} comparators, depth {})",
        gate_counts(&network).min,
        analysis::logic_depth(&network)
    );
    Ok(())
}

fn cmd_wta(args: &[String]) -> Result<(), String> {
    let mut tau = 1u64;
    let mut times = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--tau" => {
                tau = iter
                    .next()
                    .ok_or("--tau needs a value")?
                    .parse()
                    .map_err(|e| format!("bad τ: {e}"))?;
            }
            other => times.push(other.to_owned()),
        }
    }
    let inputs = parse_times(&times)?;
    if inputs.is_empty() {
        return Err("usage: spacetime wta [--tau N] <t1> <t2> …".into());
    }
    let network = spacetime::net::wta::wta_network(inputs.len(), tau);
    let out = network.eval(&inputs).map_err(|e| e.to_string())?;
    println!("{}", Volley::new(out));
    Ok(())
}

fn cmd_edit_distance(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: spacetime edit-distance <a> <b>".into());
    };
    let (d, report) = spacetime::grl::edit_distance_race(a.as_bytes(), b.as_bytes());
    let reference = spacetime::grl::edit_distance_reference(a.as_bytes(), b.as_bytes());
    assert_eq!(d, reference, "race logic disagreed with the DP baseline");
    println!("{d}");
    eprintln!(
        "(race logic: answer wire fell at cycle {d}; {} transitions; matches the DP baseline)",
        report.eval_transitions
    );
    Ok(())
}

fn flag_value(iter: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    iter.next()
        .map(ToOwned::to_owned)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn cmd_gen_patterns(args: &[String]) -> Result<(), String> {
    let mut patterns = 3usize;
    let mut width = 16usize;
    let mut count = 200usize;
    let mut seed = 1u64;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--patterns" => {
                patterns = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--width" => {
                width = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--count" => {
                count = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => {
                seed = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let mut ds = spacetime::tnn::data::PatternDataset::new(patterns, width, 7, 1, 0.15, seed);
    let stream = ds.stream(count, 0.85);
    print!("{}", spacetime::tnn::stream_to_text(&stream));
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut neurons = 0usize; // 0 = infer from labels
    let mut epochs = 3usize;
    let mut seed = 0u64;
    let mut save: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--neurons" => {
                neurons = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--epochs" => {
                epochs = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => {
                seed = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--save" => save = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime train <stream-file> [--neurons K] [--epochs E] [--seed S] [--save <f>]",
    )?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let stream = spacetime::tnn::parse_stream(&text).map_err(|e| format!("{path}: {e}"))?;
    let width = stream[0].volley.width();
    let n_classes = stream
        .iter()
        .filter_map(|s| s.label)
        .max()
        .map_or(0, |m| m + 1);
    if neurons == 0 {
        neurons = n_classes.max(2);
    }
    use spacetime::tnn::train::{evaluate_column, fresh_column, train_column, TrainConfig};
    let config = TrainConfig {
        seed,
        ..TrainConfig::default()
    };
    let mut column = fresh_column(neurons, width, 0.25, &config);
    for epoch in 1..=epochs.max(1) {
        let report = train_column(&mut column, &stream, &config);
        eprintln!(
            "epoch {epoch}: {} updates, wins {:?}",
            report.updates, report.wins
        );
    }
    if n_classes > 0 {
        let assignment = evaluate_column(&column, &stream, n_classes);
        eprintln!(
            "training-set accuracy {:.3}  NMI {:.3}  coverage {}/{}",
            assignment.accuracy(),
            assignment.normalized_mutual_information(),
            assignment.coverage(),
            n_classes
        );
    }
    let rendered = spacetime::tnn::column_to_text(&column);
    match save {
        Some(f) => {
            std::fs::write(&f, rendered).map_err(|e| format!("cannot write {f}: {e}"))?;
            eprintln!("saved column to {f}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: spacetime classify <column-file> <t1> <t2> …".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let column = spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?;
    let inputs = parse_times(rest)?;
    if inputs.len() != column.input_width() {
        return Err(format!(
            "column expects {} lines, got {}",
            column.input_width(),
            inputs.len()
        ));
    }
    let volley = Volley::new(inputs);
    let out = column.eval(&volley);
    match column.winner(&volley) {
        Some(w) => println!("{w}"),
        None => println!("-"),
    }
    eprintln!("(outputs {out})");
    Ok(())
}

fn parse_volleys(text: &str, path: &str) -> Result<Vec<Volley>, String> {
    let mut volleys = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let times: Result<Vec<Time>, String> = line
            .split_whitespace()
            .map(|tok| {
                tok.parse::<Time>()
                    .map_err(|e| format!("{path}:{}: {e}", lineno + 1))
            })
            .collect();
        volleys.push(Volley::new(times?));
    }
    Ok(volleys)
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    use spacetime::batch::{BatchEvaluator, CompiledArtifact};

    let mut spec = None;
    let mut volleys_path = None;
    let mut engine = "table".to_owned();
    let mut threads = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--engine" => engine = flag_value(&mut iter, a)?,
            "--threads" => {
                threads = Some(
                    flag_value(&mut iter, a)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            other if spec.is_none() && !other.starts_with('-') => spec = Some(other.to_owned()),
            other if volleys_path.is_none() && !other.starts_with('-') => {
                volleys_path = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage =
        "usage: spacetime batch <spec-file> <volleys-file> [--engine table|net|grl|column|kernel] [--threads N]";
    let spec = spec.ok_or(usage)?;
    let volleys_path = volleys_path.ok_or(usage)?;

    let artifact = match engine.as_str() {
        "table" => CompiledArtifact::from_table(&load_table(&spec)?),
        "net" => CompiledArtifact::from_network(&load_netlike(&spec)?),
        "grl" => CompiledArtifact::try_from_grl_network(&load_netlike(&spec)?)?,
        "kernel" => CompiledArtifact::from_kernel_network(&load_netlike(&spec)?),
        "column" => {
            let text =
                std::fs::read_to_string(&spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
            let column = spacetime::tnn::parse_column(&text).map_err(|e| format!("{spec}: {e}"))?;
            CompiledArtifact::from(column)
        }
        other => {
            return Err(format!(
                "unknown engine {other:?}; expected table|net|grl|column|kernel"
            ))
        }
    };

    let text = std::fs::read_to_string(&volleys_path)
        .map_err(|e| format!("cannot read {volleys_path}: {e}"))?;
    let volleys = parse_volleys(&text, &volleys_path)?;

    let evaluator = match threads {
        Some(n) => BatchEvaluator::with_threads(n),
        None => BatchEvaluator::new(),
    };
    let started = std::time::Instant::now();
    let outputs = evaluator
        .eval(&artifact, &volleys)
        .map_err(|e| format!("{volleys_path}: {e}"))?;
    let elapsed = started.elapsed();

    let mut stdout = String::new();
    for out in &outputs {
        stdout.push_str(&out.to_string());
        stdout.push('\n');
    }
    print!("{stdout}");
    let rate = if elapsed.as_secs_f64() > 0.0 {
        outputs.len() as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    eprintln!(
        "({} volleys through the {engine} engine on {} threads in {:.1} ms; {:.0} volleys/s)",
        outputs.len(),
        evaluator.threads(),
        elapsed.as_secs_f64() * 1e3,
        rate
    );
    Ok(())
}

/// Guesses the representation stored in a lint input file.
///
/// The three text formats are disjoint on their first meaningful line:
/// table rows contain `->`, column files open with one of the column
/// keywords, and everything else is an `st-net` netlist.
fn detect_kind(text: &str) -> &'static str {
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.contains("->") {
            return "table";
        }
        let first = line.split_whitespace().next().unwrap_or("");
        if matches!(first, "inhibition" | "response" | "neuron") {
            return "column";
        }
        return "net";
    }
    "net"
}

/// Maps a lint/verify result to the documented exit contract: `Ok(true)`
/// (clean) → 0, `Ok(false)` (error-severity findings) → 1, `Err`
/// (operational failure) → 2.
fn gate_exit(result: Result<bool, String>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses one `--deny`/`--allow` value: a comma-separated list of
/// `STAnnn` codes, appended to `into`.
fn parse_code_list(value: &str, into: &mut Vec<spacetime::lint::Code>) -> Result<(), String> {
    for token in value.split(',') {
        let token = token.trim();
        let code = spacetime::lint::Code::parse(token)
            .ok_or_else(|| format!("unknown diagnostic code {token:?} (expected STAnnn)"))?;
        into.push(code);
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<bool, String> {
    let mut path = None;
    let mut kind: Option<String> = None;
    let mut json = false;
    let mut deny = Vec::new();
    let mut allow = Vec::new();
    let mut options = spacetime::lint::LintOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--kind" => kind = Some(flag_value(&mut iter, a)?),
            "--json" => json = true,
            "--max-window" => {
                options.max_window = flag_value(&mut iter, a)?
                    .parse()
                    .map_err(|e| format!("bad window: {e}"))?;
            }
            "--relational" => options.relational = true,
            "--deny" => parse_code_list(&flag_value(&mut iter, a)?, &mut deny)?,
            "--allow" => parse_code_list(&flag_value(&mut iter, a)?, &mut allow)?,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime lint <file> [--kind table|net|column] [--json] [--max-window N] \
         [--relational] [--deny CODE] [--allow CODE]",
    )?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = match kind.as_deref() {
        Some(k @ ("table" | "net" | "column")) => k,
        Some(other) => return Err(format!("unknown kind {other:?}; expected table|net|column")),
        None => detect_kind(&text),
    };
    let mut report = match kind {
        "table" => {
            let table = FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            spacetime::lint::lint_table(&table, &options)
        }
        "net" => {
            let network =
                spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?;
            spacetime::net::lint::lint_network_with(&network, &options)
        }
        _ => {
            let column = spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?;
            spacetime::tnn::lint::lint_column_with(&column, &options)
        }
    };
    report.apply_overrides(&deny, &allow);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    eprintln!("{path} ({kind}): {}", report.summary());
    Ok(report.is_clean())
}

fn cmd_verify(args: &[String]) -> Result<bool, String> {
    use spacetime::verify::{verify_artifact, Artifact, VerifyOptions};

    let mut path = None;
    let mut against: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut json = false;
    let mut deny = Vec::new();
    let mut allow = Vec::new();
    let mut options = VerifyOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--against" => against = Some(flag_value(&mut iter, a)?),
            "--kind" => kind = Some(flag_value(&mut iter, a)?),
            "--json" => json = true,
            "--window" => {
                options.window = Some(
                    flag_value(&mut iter, a)?
                        .parse()
                        .map_err(|e| format!("bad window: {e}"))?,
                );
            }
            "--deny" => parse_code_list(&flag_value(&mut iter, a)?, &mut deny)?,
            "--allow" => parse_code_list(&flag_value(&mut iter, a)?, &mut allow)?,
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime verify <file> [--against <spec.table>] [--kind table|net|column] \
         [--window N] [--json] [--deny CODE] [--allow CODE]",
    )?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = match kind.as_deref() {
        Some(k @ ("table" | "net" | "column")) => k,
        Some(other) => return Err(format!("unknown kind {other:?}; expected table|net|column")),
        None => detect_kind(&text),
    };
    let artifact = match kind {
        "table" => {
            Artifact::Table(FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        "net" => {
            Artifact::Net(spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        _ => Artifact::Column(
            spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?,
        ),
    };
    let spec = against.as_deref().map(load_table).transpose()?;
    let mut outcome = verify_artifact(&artifact, spec.as_ref(), &options)?;
    outcome.report.apply_overrides(&deny, &allow);
    if json {
        print!("{}", outcome.to_json());
    } else {
        print!("{}", outcome.render());
    }
    eprintln!(
        "{path} ({kind}): {} proof(s), {} counterexample(s); {}",
        outcome.proofs.len(),
        outcome.counterexamples.len(),
        outcome.report.summary()
    );
    Ok(outcome.report.is_clean())
}

fn cmd_opt(args: &[String]) -> Result<bool, String> {
    use spacetime::opt::{optimize_artifact, OptOptions, Pass};
    use spacetime::verify::Artifact;

    let mut path = None;
    let mut kind: Option<String> = None;
    let mut json = false;
    let mut check = false;
    let mut emit: Option<String> = None;
    let mut options = OptOptions::default();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--kind" => kind = Some(flag_value(&mut iter, a)?),
            "--json" => json = true,
            "--check" => check = true,
            "--emit" => emit = Some(flag_value(&mut iter, a)?),
            "--window" => {
                options.window = Some(
                    flag_value(&mut iter, a)?
                        .parse()
                        .map_err(|e| format!("bad window: {e}"))?,
                );
            }
            "--passes" => {
                let mut passes = Vec::new();
                for token in flag_value(&mut iter, a)?.split(',') {
                    let token = token.trim();
                    passes.push(Pass::parse(token).ok_or_else(|| {
                        format!(
                            "unknown pass {token:?}; expected one of {}",
                            spacetime::opt::ALL_PASSES
                                .iter()
                                .map(|p| p.name())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })?);
                }
                options.passes = Some(passes);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or(
        "usage: spacetime opt <file> [--kind table|net|column] [--passes p1,p2,…] \
         [--window N] [--check] [--json] [--emit <out>]",
    )?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = match kind.as_deref() {
        Some(k @ ("table" | "net" | "column")) => k,
        Some(other) => return Err(format!("unknown kind {other:?}; expected table|net|column")),
        None => detect_kind(&text),
    };
    let artifact = match kind {
        "table" => {
            Artifact::Table(FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        "net" => {
            Artifact::Net(spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        _ => Artifact::Column(
            spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?,
        ),
    };
    let outcome = optimize_artifact(&artifact, &options)?;
    if json {
        print!("{}", outcome.report.to_json());
    } else {
        print!("{}", outcome.render());
    }
    if let Some(f) = emit {
        let rendered = match &outcome.artifact {
            Artifact::Table(t) => t.to_text(),
            Artifact::Net(n) => spacetime::net::network_to_text(n),
            Artifact::Column(_) => unreachable!("opt never returns a column"),
        };
        std::fs::write(&f, rendered).map_err(|e| format!("cannot write {f}: {e}"))?;
        eprintln!("wrote the optimized artifact to {f}");
    }
    eprintln!(
        "{path} ({kind}): {} -> {} over window {}; {} rejection(s)",
        outcome.before,
        outcome.after,
        outcome.window,
        outcome.rejected()
    );
    // Without --check the run reports; with it, any rejection (or other
    // error-severity finding) fails the gate.
    Ok(!check || outcome.is_clean())
}

/// The evaluable form the trace subcommand drives its per-volley spike
/// pass through (the batch timing pass uses a [`CompiledArtifact`]
/// alongside it).
///
/// [`CompiledArtifact`]: spacetime::batch::CompiledArtifact
enum TraceForm {
    /// An event-driven gate network ([`EventSim::compile`]).
    Net(spacetime::net::CompiledNetwork),
    /// A race-logic netlist, cycle-accurately simulated.
    Grl(spacetime::grl::GrlNetlist),
    /// An SRM0 column with lateral inhibition.
    Column(spacetime::tnn::Column),
}

/// The default input sweep for an untraced-volley `spacetime trace` run:
/// exhaustive over window 3 for narrow inputs, otherwise an all-zeros
/// volley plus one single-spike volley per line — deterministic either
/// way, so repeated traces are comparable.
fn default_sweep(width: usize) -> Vec<Volley> {
    if width <= 3 {
        spacetime::core::enumerate_inputs(width, 3)
            .map(Volley::new)
            .collect()
    } else {
        let mut volleys = vec![Volley::new(vec![Time::ZERO; width])];
        for i in 0..width {
            let mut times = vec![Time::INFINITY; width];
            times[i] = Time::ZERO;
            volleys.push(Volley::new(times));
        }
        volleys
    }
}

/// Runs a volley batch through a [`TraceForm`] sequentially, marking
/// each volley and collecting the probed model-time events.
fn record_probed(
    form: &TraceForm,
    volleys: &[Volley],
    recorder: &mut spacetime::obs::Recorder,
) -> Result<(), String> {
    for (index, volley) in volleys.iter().enumerate() {
        recorder.begin_volley(index);
        match form {
            TraceForm::Net(compiled) => {
                compiled
                    .run_instrumented(volley.times(), recorder, &mut NullMetrics)
                    .map_err(|e| format!("volley {index}: {e}"))?;
            }
            TraceForm::Grl(netlist) => {
                GrlSim::new()
                    .run_instrumented(
                        netlist,
                        volley.times(),
                        &mut GrlScratch::default(),
                        recorder,
                        &mut NullMetrics,
                    )
                    .map_err(|e| format!("volley {index}: {e}"))?;
            }
            TraceForm::Column(column) => {
                if volley.width() != column.input_width() {
                    return Err(format!(
                        "volley {index}: column expects width {}, got {}",
                        column.input_width(),
                        volley.width()
                    ));
                }
                column.eval_instrumented(volley, recorder, &mut NullMetrics);
            }
        }
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    use spacetime::batch::{BatchEvaluator, CompiledArtifact};
    use spacetime::obs::{chrome_trace, events_jsonl, spike_raster_csv, Recorder, RunStats};

    let mut path = None;
    let mut format = "stats".to_owned();
    let mut engine: Option<String> = None;
    let mut volleys_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--format" => format = flag_value(&mut iter, a)?,
            "--engine" => engine = Some(flag_value(&mut iter, a)?),
            "--volleys" => volleys_path = Some(flag_value(&mut iter, a)?),
            "--threads" => {
                threads = Some(
                    flag_value(&mut iter, a)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--out" => out = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage = "usage: spacetime trace <file> [--format raster|jsonl|chrome|stats|prom] \
                 [--engine table|net|grl|column] [--volleys <file>] [--threads N] [--out <file>]";
    let path = path.ok_or(usage)?;
    if !matches!(
        format.as_str(),
        "raster" | "jsonl" | "chrome" | "stats" | "prom"
    ) {
        return Err(format!(
            "unknown format {format:?}; expected raster|jsonl|chrome|stats|prom"
        ));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = detect_kind(&text);
    let engine = engine.unwrap_or_else(|| {
        match kind {
            "table" => "table",
            "column" => "column",
            _ => "net",
        }
        .to_owned()
    });

    // Build the spike-pass form and the batch-pass artifact. The table
    // engine evaluates through the compiled table but takes its gate
    // events from the Theorem 1 synthesis of the same table.
    let (form, artifact) = match (kind, engine.as_str()) {
        ("table", "table" | "net" | "grl") => {
            let table = FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let network = synthesize(&table, SynthesisOptions::default());
            match engine.as_str() {
                "table" => (
                    TraceForm::Net(EventSim::new().compile(&network)),
                    CompiledArtifact::from_table(&table),
                ),
                "net" => (
                    TraceForm::Net(EventSim::new().compile(&network)),
                    CompiledArtifact::from_network(&network),
                ),
                _ => {
                    let netlist = try_compile_network(&network).map_err(|e| e.to_string())?;
                    (
                        TraceForm::Grl(netlist.clone()),
                        CompiledArtifact::from(netlist),
                    )
                }
            }
        }
        ("net", "net") => {
            let network =
                spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?;
            let artifact = CompiledArtifact::from_network(&network);
            (TraceForm::Net(EventSim::new().compile(&network)), artifact)
        }
        ("net", "grl") => {
            let network =
                spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?;
            let netlist = try_compile_network(&network).map_err(|e| e.to_string())?;
            (
                TraceForm::Grl(netlist.clone()),
                CompiledArtifact::from(netlist),
            )
        }
        ("column", "column") => {
            let column = spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?;
            (
                TraceForm::Column(column.clone()),
                CompiledArtifact::from(column),
            )
        }
        (kind, engine) => {
            return Err(format!(
                "the {engine} engine cannot trace a {kind} file (try a different --engine)"
            ))
        }
    };

    let volleys = match &volleys_path {
        Some(vp) => {
            let vtext =
                std::fs::read_to_string(vp).map_err(|e| format!("cannot read {vp}: {e}"))?;
            parse_volleys(&vtext, vp)?
        }
        None => default_sweep(artifact.input_width()),
    };

    // The prom format skips the event passes entirely: it runs the batch
    // engine with a metrics sink attached and renders the counter
    // snapshot in the Prometheus text exposition format.
    if format == "prom" {
        use spacetime::metrics::{MetricsRegistry, MetricsSnapshot};
        let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);
        let mut registry = MetricsRegistry::new();
        evaluator
            .eval_instrumented(
                &artifact,
                &volleys,
                &mut NullProbe,
                &mut registry,
                &mut NullTracer,
                SpanId::NONE,
            )
            .map_err(|e| format!("{path}: {e}"))?;
        let families = registry.counters().count() + registry.histograms().count();
        let rendered = MetricsSnapshot::from_registry(&registry).to_prom_text();
        match out {
            Some(f) => {
                std::fs::write(&f, &rendered).map_err(|e| format!("cannot write {f}: {e}"))?;
                eprintln!(
                    "wrote {f} ({families} metric families from {} volleys through the \
                     {engine} engine)",
                    volleys.len()
                );
            }
            None => print!("{rendered}"),
        }
        return Ok(());
    }

    // Pass 1 — model-time events: one marked, probed sequential run per
    // volley (gate firings / wire falls / potentials / WTA decisions).
    let mut recorder = Recorder::new();
    record_probed(&form, &volleys, &mut recorder)?;

    // Pass 2 — wall-clock timing: the batch engine appends per-volley,
    // per-chunk, and stage timings to the same stream.
    let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);
    evaluator
        .eval_instrumented(
            &artifact,
            &volleys,
            &mut recorder,
            &mut NullMetrics,
            &mut NullTracer,
            SpanId::NONE,
        )
        .map_err(|e| format!("{path}: {e}"))?;

    let events = recorder.events();
    let rendered = match format.as_str() {
        "raster" => spike_raster_csv(events),
        "jsonl" => events_jsonl(events),
        "chrome" => chrome_trace(events),
        _ => RunStats::from_events(events).to_string(),
    };
    match out {
        Some(f) => {
            std::fs::write(&f, &rendered).map_err(|e| format!("cannot write {f}: {e}"))?;
            eprintln!(
                "wrote {f} ({} events from {} volleys through the {engine} engine)",
                events.len(),
                volleys.len()
            );
        }
        None => {
            print!("{rendered}");
            eprintln!(
                "({} events from {} volleys through the {engine} engine)",
                events.len(),
                volleys.len()
            );
        }
    }
    Ok(())
}

/// Parses a `--why` query of the form `<gate>@<time>` — `g5@3`,
/// `gate12@inf`, or a bare index like `7@0`.
fn parse_why(spec: &str) -> Result<(usize, Time), String> {
    let Some((gate, at)) = spec.rsplit_once('@') else {
        return Err(format!(
            "bad --why query {spec:?}; expected <gate>@<time> like g5@3 or g5@inf"
        ));
    };
    let digits = gate.trim_start_matches("gate").trim_start_matches('g');
    let gate = digits
        .parse::<usize>()
        .map_err(|_| format!("bad gate {gate:?} in --why query (use g<N>)"))?;
    let at = at
        .parse::<Time>()
        .map_err(|e| format!("bad time {at:?} in --why query: {e}"))?;
    Ok((gate, at))
}

/// Loads an inspect operand as a gate network: tables go through the
/// Theorem 1 synthesis, columns through their behavioral lowering,
/// netlists parse as-is. Also returns the raw text and detected kind so
/// engine-specific forms (the column simulator) can reuse them.
fn inspect_load(path: &str) -> Result<(String, &'static str, Network), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = detect_kind(&text);
    let network = match kind {
        "table" => synthesize(
            &FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?,
            SynthesisOptions::default(),
        ),
        "column" => spacetime::tnn::parse_column(&text)
            .map_err(|e| format!("{path}: {e}"))?
            .to_network(),
        _ => spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?,
    };
    Ok((text, kind, network))
}

/// Records a probed event-simulation run of `network` over `volleys`
/// into an indexed spike database.
fn record_net_run(
    network: &Network,
    volleys: &[Volley],
) -> Result<spacetime::insight::SpikeDb, String> {
    let mut recorder = spacetime::obs::Recorder::new();
    let form = TraceForm::Net(EventSim::new().compile(network));
    record_probed(&form, volleys, &mut recorder)?;
    Ok(spacetime::insight::SpikeDb::from_events_with_dropped(
        recorder.events(),
        recorder.dropped(),
    ))
}

/// Writes a `--witness` replay pair: `<prefix>.net` (the inspected
/// network with the queried gate exposed as an output) and
/// `<prefix>.volleys` (the witness volley). Returns the output column
/// the queried gate lands on under `spacetime batch`.
fn write_witness(
    prefix: &str,
    network: &Network,
    prov: &spacetime::insight::Provenance,
) -> Result<usize, String> {
    let token = format!("g{}", prov.gate);
    let mut column = None;
    let mut lines: Vec<String> = spacetime::net::network_to_text(network)
        .lines()
        .map(str::to_owned)
        .collect();
    for line in &mut lines {
        let Some(rest) = line.strip_prefix("outputs") else {
            continue;
        };
        let outs: Vec<String> = rest.split_whitespace().map(str::to_owned).collect();
        column = Some(match outs.iter().position(|o| *o == token) {
            Some(k) => k,
            None => {
                line.push(' ');
                line.push_str(&token);
                outs.len()
            }
        });
    }
    let column = column.unwrap_or_else(|| {
        lines.push(format!("outputs {token}"));
        0
    });
    let net_path = format!("{prefix}.net");
    std::fs::write(&net_path, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {net_path}: {e}"))?;
    let volleys_path = format!("{prefix}.volleys");
    std::fs::write(&volleys_path, prov.witness_line() + "\n")
        .map_err(|e| format!("cannot write {volleys_path}: {e}"))?;
    Ok(column)
}

fn cmd_inspect(args: &[String]) -> Result<bool, String> {
    use spacetime::batch::{BatchEvaluator, CompiledArtifact};
    use spacetime::insight::{
        diff_gate_runs, diff_output_runs, eval_graph, parse_trace, why, InsightStats, SpikeDb, Unit,
    };
    use spacetime::lint::LintOp;
    use spacetime::net::lint::to_lint_graph;
    use std::fmt::Write as _;

    let mut path: Option<String> = None;
    let mut stats = false;
    let mut raster = false;
    let mut why_query: Option<String> = None;
    let mut diff_path: Option<String> = None;
    let mut volley_index: Option<usize> = None;
    let mut witness: Option<String> = None;
    let mut engine: Option<String> = None;
    let mut volleys_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut json = false;
    let mut dot = false;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--stats" => stats = true,
            "--raster-summary" => raster = true,
            "--why" => why_query = Some(flag_value(&mut iter, a)?),
            "--diff" => diff_path = Some(flag_value(&mut iter, a)?),
            "--volley" => {
                volley_index = Some(
                    flag_value(&mut iter, a)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad volley index: {e}"))?,
                );
            }
            "--witness" => witness = Some(flag_value(&mut iter, a)?),
            "--engine" => engine = Some(flag_value(&mut iter, a)?),
            "--volleys" => volleys_path = Some(flag_value(&mut iter, a)?),
            "--trace" => trace_path = Some(flag_value(&mut iter, a)?),
            "--threads" => {
                threads = Some(
                    flag_value(&mut iter, a)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--json" => json = true,
            "--dot" => dot = true,
            "--out" => out = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage = "usage: spacetime inspect <file> [--stats|--raster-summary|--why <gate>@<t>|\
                 --diff <other-file>] [--volley N] [--witness <prefix>] \
                 [--engine table|net|grl|column] [--volleys <file>] [--trace <run.jsonl>] \
                 [--threads N] [--json] [--dot] [--out <file>]";
    let path = path.ok_or(usage)?;
    let (text, kind, network) = inspect_load(&path)?;

    let emit = |rendered: String| -> Result<(), String> {
        match &out {
            Some(f) => {
                std::fs::write(f, &rendered).map_err(|e| format!("cannot write {f}: {e}"))?;
                eprintln!("wrote {f}");
            }
            None => print!("{rendered}"),
        }
        Ok(())
    };

    let volleys = match &volleys_path {
        Some(vp) => {
            let vtext =
                std::fs::read_to_string(vp).map_err(|e| format!("cannot read {vp}: {e}"))?;
            parse_volleys(&vtext, vp)?
        }
        None => default_sweep(network.input_count()),
    };

    let load_trace_db = |tp: &String| -> Result<SpikeDb, String> {
        let ttext = std::fs::read_to_string(tp).map_err(|e| format!("cannot read {tp}: {e}"))?;
        Ok(parse_trace(&ttext)
            .map_err(|e| format!("{tp}: {e}"))?
            .to_db())
    };

    // --diff: first-divergence localization between the two files' runs.
    if let Some(other) = &diff_path {
        let (_, _, network_b) = inspect_load(other)?;
        if network.input_count() != network_b.input_count() {
            return Err(format!(
                "{path} has {} input line(s), {other} has {} — the runs cannot be aligned",
                network.input_count(),
                network_b.input_count()
            ));
        }
        let (divergence_text, divergence_json);
        if network.gate_count() == network_b.gate_count() {
            // Same shape ⇒ aligned gate indices: localize at gate level,
            // with the root cause's agreed source times as context.
            let db_a = record_net_run(&network, &volleys)?;
            let db_b = record_net_run(&network_b, &volleys)?;
            let graph = to_lint_graph(&network);
            match diff_gate_runs(&graph, &db_a, &db_b).map_err(|e| e.to_string())? {
                None => {
                    emit(format!(
                        "runs agree: {} volley(s), {} gate(s), no divergence\n",
                        volleys.len(),
                        graph.len()
                    ))?;
                    return Ok(true);
                }
                Some(d) => (divergence_text, divergence_json) = (d.render(), d.to_json()),
            }
        } else {
            // Different lowerings ⇒ gate indices are incomparable:
            // project to the observable output lines.
            let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);
            let run = |network: &Network, label: &str| -> Result<Vec<Vec<Time>>, String> {
                let artifact = CompiledArtifact::from_network(network);
                Ok(evaluator
                    .eval(&artifact, &volleys)
                    .map_err(|e| format!("{label}: {e}"))?
                    .into_iter()
                    .map(|v| v.times().to_vec())
                    .collect())
            };
            let outs_a = run(&network, &path)?;
            let outs_b = run(&network_b, other)?;
            match diff_output_runs(&outs_a, &outs_b).map_err(|e| e.to_string())? {
                None => {
                    emit(format!(
                        "runs agree: {} volley(s), {} output line(s), no divergence\n",
                        volleys.len(),
                        outs_a.first().map_or(0, Vec::len)
                    ))?;
                    return Ok(true);
                }
                Some(d) => (divergence_text, divergence_json) = (d.render(), d.to_json()),
            }
        }
        emit(if json {
            divergence_json + "\n"
        } else {
            divergence_text
        })?;
        return Ok(false);
    }

    // --why: the backward cone of influence of one (gate, time) event.
    // Always answered over the net lowering, whose gate indices the lint
    // graph shares.
    if let Some(query) = &why_query {
        let (gate, at) = parse_why(query)?;
        let graph = to_lint_graph(&network);
        if gate >= graph.len() {
            return Err(format!(
                "gate g{gate} is out of range: {path} lowers to {} gate(s)",
                graph.len()
            ));
        }
        let db = match &trace_path {
            Some(tp) => load_trace_db(tp)?,
            None => record_net_run(&network, &volleys)?,
        };
        if db.is_truncated() {
            return Err(format!(
                "the recording dropped {} event(s); provenance over a truncated window would \
                 fabricate silences (re-record with a larger capacity)",
                db.dropped()
            ));
        }
        let vt = match volley_index {
            Some(n) => db.volley(n).ok_or_else(|| {
                format!(
                    "volley {n} is not in the recording ({} volley(s))",
                    db.volleys().len()
                )
            })?,
            None => db
                .volleys()
                .iter()
                .find(|v| v.time_of(Unit::Gate(gate)) == at)
                .ok_or_else(|| {
                    let mut seen: Vec<String> = db
                        .volleys()
                        .iter()
                        .map(|v| v.time_of(Unit::Gate(gate)).to_string())
                        .collect();
                    seen.sort();
                    seen.dedup();
                    format!(
                        "no recorded volley has g{gate} at {at}; observed times: {}",
                        seen.join(", ")
                    )
                })?,
        };
        let waveform = vt.gate_waveform(graph.len());
        if waveform[gate] != at {
            return Err(format!(
                "in volley {}, g{gate} is at {} (queried {at}); pick another --volley",
                vt.index, waveform[gate]
            ));
        }
        if trace_path.is_some() {
            // A loaded trace may come from anywhere — cross-check it
            // against the artifact before explaining it.
            let mut inputs = vec![Time::INFINITY; graph.input_count()];
            for (i, node) in graph.nodes().iter().enumerate() {
                if let LintOp::Input(n) = &node.op {
                    inputs[*n] = waveform[i];
                }
            }
            let expect = eval_graph(&graph, &inputs).map_err(|e| e.to_string())?;
            if expect != waveform {
                return Err(format!(
                    "the recorded trace does not match {path} (volley {}): it was recorded \
                     from a different artifact or engine",
                    vt.index
                ));
            }
        }
        let prov = why(&graph, &waveform, vt.index, gate, at).map_err(|e| e.to_string())?;
        let rendered = if dot {
            prov.to_dot()
        } else if json {
            prov.to_json() + "\n"
        } else {
            prov.render()
        };
        emit(rendered)?;
        if let Some(prefix) = &witness {
            let column = write_witness(prefix, &network, &prov)?;
            eprintln!(
                "replay: spacetime batch {prefix}.net {prefix}.volleys --engine net   \
                 # expect output column {column} = {at}"
            );
        }
        return Ok(true);
    }

    // Default: volley-coding analytics (--stats) and/or a compact
    // per-volley spike summary (--raster-summary).
    let want_stats = stats || !raster;
    let db = match &trace_path {
        Some(tp) => load_trace_db(tp)?,
        None => {
            let engine = engine
                .unwrap_or_else(|| if kind == "column" { "column" } else { "net" }.to_owned());
            let form = match engine.as_str() {
                "net" | "table" => TraceForm::Net(EventSim::new().compile(&network)),
                "grl" => TraceForm::Grl(try_compile_network(&network).map_err(|e| e.to_string())?),
                "column" => {
                    if kind != "column" {
                        return Err(format!("the column engine cannot inspect a {kind} file"));
                    }
                    TraceForm::Column(
                        spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?,
                    )
                }
                other => {
                    return Err(format!(
                        "unknown engine {other:?}; expected table|net|grl|column"
                    ))
                }
            };
            let mut recorder = spacetime::obs::Recorder::new();
            record_probed(&form, &volleys, &mut recorder)?;
            SpikeDb::from_events_with_dropped(recorder.events(), recorder.dropped())
        }
    };
    let mut rendered = String::new();
    if want_stats {
        let s = InsightStats::from_db(&db);
        if json {
            rendered.push_str(&s.to_json());
            rendered.push('\n');
        } else {
            rendered.push_str(&s.render());
        }
    }
    if raster {
        for vt in db.volleys() {
            let spikes: Vec<String> = vt
                .spikes
                .iter()
                .map(|&(u, at)| format!("{u}@{at}"))
                .collect();
            let line = if spikes.is_empty() {
                "-".to_owned()
            } else {
                spikes.join(" ")
            };
            let _ = writeln!(rendered, "volley {}: {line}", vt.index);
        }
    }
    emit(rendered)?;
    Ok(true)
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    use spacetime::batch::{BatchEvaluator, CompiledArtifact};
    use spacetime::kernel::Plan;
    use spacetime::trace::{
        chrome_spans, collapsed_stacks, spans_jsonl, top_table, SpanId, TraceBuffer, Tracer,
    };

    let mut path = None;
    let mut format = "flame".to_owned();
    let mut engine = "kernel".to_owned();
    let mut volleys_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--format" => format = flag_value(&mut iter, a)?,
            "--engine" => engine = flag_value(&mut iter, a)?,
            "--volleys" => volleys_path = Some(flag_value(&mut iter, a)?),
            "--threads" => {
                threads = Some(
                    flag_value(&mut iter, a)?
                        .parse::<usize>()
                        .map_err(|e| format!("bad thread count: {e}"))?,
                );
            }
            "--out" => out = Some(flag_value(&mut iter, a)?),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let usage = "usage: spacetime profile <file> [--format flame|chrome|top|json] \
                 [--engine table|net|grl|column|kernel] [--volleys <file>] [--threads N] \
                 [--out <file>]";
    let path = path.ok_or(usage)?;
    if !matches!(format.as_str(), "flame" | "chrome" | "top" | "json") {
        return Err(format!(
            "unknown format {format:?}; expected flame|chrome|top|json"
        ));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = detect_kind(&text);
    let mut tracer = TraceBuffer::new();

    // Stage 1 — compile: parse the artifact and lower it to a gate
    // network, the representation the rest of the pipeline profiles.
    let compile_span = tracer.begin("compile", SpanId::NONE);
    let (table, column, network) = match kind {
        "table" => {
            let table = FunctionTable::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            let network = synthesize(&table, SynthesisOptions::default());
            (Some(table), None, network)
        }
        "column" => {
            let column = spacetime::tnn::parse_column(&text).map_err(|e| format!("{path}: {e}"))?;
            let network = column.to_network();
            (None, Some(column), network)
        }
        _ => {
            let network =
                spacetime::net::parse_network(&text).map_err(|e| format!("{path}: {e}"))?;
            (None, None, network)
        }
    };
    tracer.end(compile_span);

    // Stage 2 — lint: the STA diagnostic passes over the lowered graph.
    let lint_span = tracer.begin("lint", SpanId::NONE);
    let lint_report = spacetime::lint::lint_graph_traced(
        &spacetime::net::lint::to_lint_graph(&network),
        &spacetime::lint::LintOptions::default(),
        &mut tracer,
        lint_span,
    );
    tracer.end(lint_span);

    // Stage 3 — verified optimization: every pass span nests its
    // bounded-equivalence proof obligation (`verify.check_equiv` over
    // per-extent `verify.window` sub-spans).
    let opt_span = tracer.begin("opt", SpanId::NONE);
    let outcome = spacetime::opt::optimize_network_traced(
        &network,
        &spacetime::opt::OptOptions::default(),
        &mut tracer,
        opt_span,
    )?;
    tracer.end(opt_span);
    let optimized = match &outcome.artifact {
        spacetime::verify::Artifact::Net(n) => n.clone(),
        _ => network.clone(),
    };

    // Stage 4 — evaluation artifact. The default kernel engine records a
    // `plan.build` span for the SWAR lowering; the other engines reuse
    // the batch evaluator's compiled forms directly.
    let artifact = match engine.as_str() {
        "kernel" => CompiledArtifact::from(Plan::from_network_traced(
            &optimized,
            &mut tracer,
            SpanId::NONE,
        )),
        "net" => CompiledArtifact::from_network(&optimized),
        "grl" => CompiledArtifact::from_grl_network(&optimized),
        "table" => {
            let table = table.ok_or_else(|| {
                format!("the table engine cannot profile a {kind} file (try --engine kernel)")
            })?;
            CompiledArtifact::from_table(&table)
        }
        "column" => {
            let column = column.ok_or_else(|| {
                format!("the column engine cannot profile a {kind} file (try --engine kernel)")
            })?;
            CompiledArtifact::from(column)
        }
        other => {
            return Err(format!(
                "unknown engine {other:?}; expected table|net|grl|column|kernel"
            ))
        }
    };

    let volleys = match &volleys_path {
        Some(vp) => {
            let vtext =
                std::fs::read_to_string(vp).map_err(|e| format!("cannot read {vp}: {e}"))?;
            parse_volleys(&vtext, vp)?
        }
        None => default_sweep(artifact.input_width()),
    };

    // Stage 5 — batch evaluation: worker chunk spans (and, on the kernel
    // engine, per-packet spans) nest under this stage span via explicit
    // parent ids carried across the thread scope.
    let evaluator = threads.map_or_else(BatchEvaluator::new, BatchEvaluator::with_threads);
    let eval_span = tracer.begin("batch.eval", SpanId::NONE);
    evaluator
        .eval_instrumented(
            &artifact,
            &volleys,
            &mut NullProbe,
            &mut NullMetrics,
            &mut tracer,
            eval_span,
        )
        .map_err(|e| format!("{path}: {e}"))?;
    tracer.end(eval_span);

    let records = tracer.into_records();
    let rendered = match format.as_str() {
        "flame" => collapsed_stacks(&records),
        "chrome" => chrome_spans(&records),
        "top" => top_table(&records),
        _ => spans_jsonl(&records),
    };
    let summary = format!(
        "{} spans from {} volleys through the {engine} engine; lint {}, opt {} -> {}",
        records.len(),
        volleys.len(),
        lint_report.summary(),
        outcome.before,
        outcome.after
    );
    match out {
        Some(f) => {
            std::fs::write(&f, &rendered).map_err(|e| format!("cannot write {f}: {e}"))?;
            eprintln!("wrote {f} ({summary})");
        }
        None => {
            print!("{rendered}");
            eprintln!("({summary})");
        }
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    use spacetime::bench::{full_matrix, quick_matrix, run_matrix};
    use spacetime::metrics::{compare, parse_history, render_trend, BenchReport, TrendRow};

    let mut tier = "quick";
    let mut label: Option<String> = None;
    let mut out: Option<String> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut compare_with: Option<(String, String)> = None;
    let mut threshold = 1.5f64;
    let mut check: Option<String> = None;
    let mut history: Option<String> = None;
    let mut trend: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--quick" => tier = "quick",
            "--full" => tier = "full",
            "--label" => label = Some(flag_value(&mut iter, a)?),
            "--out" => out = Some(flag_value(&mut iter, a)?),
            "--history" => history = Some(flag_value(&mut iter, a)?),
            "--trend" => trend = Some(flag_value(&mut iter, a)?),
            "--baseline" => baseline = Some(flag_value(&mut iter, a)?),
            "--threads" => {
                let list = flag_value(&mut iter, a)?
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| format!("bad thread count {t:?}"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                if list.is_empty() {
                    return Err("--threads needs at least one count".into());
                }
                threads = Some(list);
            }
            "--compare" => {
                let old = flag_value(&mut iter, a)?;
                let new = iter
                    .next()
                    .ok_or("--compare needs two report files: <old.json> <new.json>")?
                    .clone();
                compare_with = Some((old, new));
            }
            "--threshold" => {
                threshold = flag_value(&mut iter, a)?
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 1.0)
                    .ok_or("--threshold must be a finite ratio >= 1.0")?;
            }
            "--check" => check = Some(flag_value(&mut iter, a)?),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }

    let load = |path: &str| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };

    if let Some(path) = check {
        let report = load(&path)?;
        println!(
            "{path}: valid {} report ({} scenarios, label {:?}, rev {})",
            report.schema,
            report.scenarios.len(),
            report.label,
            report.git_rev
        );
        return Ok(());
    }

    if let Some(history_path) = trend {
        let baseline_path = baseline.as_deref().unwrap_or("BENCH_seed.json");
        let base = load(baseline_path)?;
        let text = std::fs::read_to_string(&history_path)
            .map_err(|e| format!("cannot read {history_path}: {e}"))?;
        let rows = parse_history(&text).map_err(|e| format!("{history_path}: {e}"))?;
        print!("{}", render_trend(&base, &rows));
        return Ok(());
    }

    if let Some((old_path, new_path)) = compare_with {
        let old = load(&old_path)?;
        let new = load(&new_path)?;
        let outcome = compare(&old, &new, threshold);
        print!("{}", outcome.render_table());
        // Coverage drift warns but never gates: a scenario present on
        // only one side has no ratio to threshold.
        for name in &outcome.missing {
            eprintln!(
                "warning: scenario {name} is in the baseline {old_path} but not in \
                 {new_path}; it was not compared"
            );
        }
        for name in &outcome.added {
            eprintln!(
                "warning: scenario {name} is new in {new_path} (no baseline row in \
                 {old_path}); it was not compared"
            );
        }
        if outcome.regressed {
            return Err(format!(
                "performance regression: at least one scenario exceeded {threshold}x \
                 the baseline median"
            ));
        }
        return Ok(());
    }

    let mut specs = if tier == "full" {
        full_matrix()
    } else {
        quick_matrix()
    };
    if let Some(list) = threads {
        let sized: Vec<(&'static str, usize)> = {
            let mut seen = Vec::new();
            for s in &specs {
                if !seen.contains(&(s.engine, s.size)) {
                    seen.push((s.engine, s.size));
                }
            }
            seen
        };
        let template = specs[0].clone();
        specs = sized
            .into_iter()
            .flat_map(|(engine, size)| {
                let template = template.clone();
                list.iter().map(move |&t| spacetime::bench::ScenarioSpec {
                    engine,
                    size,
                    threads: t,
                    ..template.clone()
                })
            })
            .collect();
    }
    let label = label.unwrap_or_else(|| tier.to_owned());
    let report = run_matrix(&specs, &label)?;
    let json = report.to_json();
    match out {
        Some(f) => {
            std::fs::write(&f, &json).map_err(|e| format!("cannot write {f}: {e}"))?;
            eprintln!(
                "wrote {f} ({} scenarios, label {label:?}, rev {})",
                report.scenarios.len(),
                report.git_rev
            );
        }
        None => print!("{json}"),
    }
    if let Some(f) = history {
        // Append-only ledger: one compact trend row per bench run, so
        // medians can be read over time (`spacetime bench --trend`).
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&f)
            .map_err(|e| format!("cannot open {f}: {e}"))?;
        let row = TrendRow::from_report(&report);
        writeln!(file, "{}", row.to_json_line()).map_err(|e| format!("cannot write {f}: {e}"))?;
        eprintln!(
            "appended a trend row ({} scenarios, label {label:?}) to {f}",
            row.p50s.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_times_accepts_inf() {
        let ts = parse_times(&["3".into(), "inf".into(), "∞".into()]).unwrap();
        assert_eq!(ts, vec![Time::finite(3), Time::INFINITY, Time::INFINITY]);
        assert!(parse_times(&["x".into()]).is_err());
    }

    #[test]
    fn parse_volleys_handles_comments_and_inf() {
        let text = "# header\n0 1 2\n\n3 inf ∞  # trailing comment\n";
        let volleys = parse_volleys(text, "test").unwrap();
        assert_eq!(volleys.len(), 2);
        assert_eq!(
            volleys[0].times(),
            &[Time::ZERO, Time::finite(1), Time::finite(2)]
        );
        assert_eq!(
            volleys[1].times(),
            &[Time::finite(3), Time::INFINITY, Time::INFINITY]
        );
        let err = parse_volleys("0 oops\n", "vf").unwrap_err();
        assert!(err.starts_with("vf:1:"), "{err}");
    }

    #[test]
    fn detect_kind_separates_the_three_formats() {
        assert_eq!(detect_kind("# comment\n0 1 -> 2\n"), "table");
        assert_eq!(detect_kind("inhibition wta 1\nneuron 3 ...\n"), "column");
        assert_eq!(detect_kind("response ups 0 downs 5\n"), "column");
        assert_eq!(detect_kind("g0 = input\noutputs g0\n"), "net");
        assert_eq!(detect_kind("\n# only comments\n"), "net");
    }

    #[test]
    fn simulate_roundtrip_smoke() {
        let table = FunctionTable::parse("0 1 -> 2\n1 0 -> 3\n").unwrap();
        let network = synthesize(&table, SynthesisOptions::default());
        simulate_network(&network, &[Time::ZERO, Time::finite(1)], None).unwrap();
    }
}
