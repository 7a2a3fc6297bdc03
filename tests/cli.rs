//! End-to-end tests of the `spacetime` CLI binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spacetime"))
}

/// A throwaway file under the target temp dir, deleted on drop.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn with_content(tag: &str, content: &str) -> TempFile {
        let path = std::env::temp_dir().join(format!(
            "spacetime-cli-{}-{}-{tag}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
        ));
        std::fs::write(&path, content).expect("write temp file");
        TempFile(path)
    }

    fn to_str(&self) -> &str {
        self.0.to_str().expect("utf-8 path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn fig7_file() -> TempFile {
    TempFile::with_content(
        "fig7.table",
        "# fig7\n0 1 2 -> 3\n1 0 inf -> 2\n2 2 0 -> 2\n",
    )
}

#[test]
fn eval_reproduces_the_papers_worked_example() {
    let table = fig7_file();
    let out = bin()
        .args(["eval", table.to_str(), "3", "4", "5"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "6");
}

#[test]
fn synth_reports_gate_statistics() {
    let table = fig7_file();
    let out = bin()
        .args(["synth", table.to_str(), "--pure"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rows: 3"));
    assert!(
        stdout.contains("max=0"),
        "pure basis must have no max gates: {stdout}"
    );
}

#[test]
fn synth_dot_is_graphviz() {
    let table = fig7_file();
    let out = bin()
        .args(["synth", table.to_str(), "--dot"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"));
}

#[test]
fn simulate_writes_vcd() {
    let table = fig7_file();
    let vcd = TempFile::with_content("run.vcd", "");
    let out = bin()
        .args([
            "simulate",
            table.to_str(),
            "0",
            "1",
            "2",
            "--vcd",
            vcd.to_str(),
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("outputs: [3]"), "{stdout}");
    let dumped = std::fs::read_to_string(&vcd.0).unwrap();
    assert!(dumped.starts_with("$date"));
}

#[test]
fn sort_and_wta_and_edit_distance() {
    let out = bin().args(["sort", "5", "2", "inf", "3"]).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[2, 3, 5, ∞]");

    let out = bin()
        .args(["wta", "--tau", "2", "2", "3", "9", "2"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[2, 3, ∞, 2]");

    let out = bin()
        .args(["edit-distance", "kitten", "sitting"])
        .output()
        .unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

#[test]
fn expr_evaluates_simplifies_and_samples() {
    let out = bin()
        .args(["expr", "(lt (min (+1 x0) x1) x2)", "0", "3", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("value at [0, 3, 2]: 1"), "{stdout}");

    let out = bin()
        .args(["expr", "(min x0 (max x0 x1))"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simplified: x0"), "{stdout}");
    assert!(stdout.contains("canonical table"), "{stdout}");

    let out = bin().args(["expr", "(frob x0)"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn synth_save_and_net_round_trip() {
    let table = fig7_file();
    let saved = TempFile::with_content("saved.net", "");
    let out = bin()
        .args(["synth", table.to_str(), "--pure", "--save", saved.to_str()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    // The saved netlist evaluates the paper's worked example.
    let out = bin()
        .args(["net", saved.to_str(), "3", "4", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "[6]");
    // And summarizes without inputs.
    let out = bin().args(["net", saved.to_str()]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("inputs: 3"));
}

#[test]
fn generate_train_classify_workflow() {
    // gen-patterns → train → classify, end to end through files.
    let out = bin()
        .args([
            "gen-patterns",
            "--patterns",
            "2",
            "--width",
            "10",
            "--count",
            "150",
            "--seed",
            "4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stream_text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stream_text.lines().count() >= 100);
    let stream = TempFile::with_content("stream.txt", &stream_text);
    let column = TempFile::with_content("col.txt", "");

    let out = bin()
        .args([
            "train",
            stream.to_str(),
            "--save",
            column.to_str(),
            "--seed",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(log.contains("accuracy"), "{log}");

    // Classify the first labelled sample; some neuron must fire.
    let sample = stream_text
        .lines()
        .find(|l| l.starts_with('0'))
        .unwrap()
        .split_once('|')
        .unwrap()
        .1
        .split_whitespace()
        .map(ToOwned::to_owned)
        .collect::<Vec<_>>();
    let mut args = vec!["classify".to_owned(), column.to_str().to_owned()];
    args.extend(sample);
    let out = bin().args(&args).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let decision = String::from_utf8_lossy(&out.stdout).trim().to_string();
    assert!(decision.parse::<usize>().is_ok(), "decision {decision:?}");
}

#[test]
fn lint_clean_table_exits_zero_with_summary_on_stderr() {
    let table = fig7_file();
    let out = bin().args(["lint", table.to_str()]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    // No findings → nothing on stdout; the summary goes to stderr.
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(table): 0 error(s)"), "{stderr}");
}

#[test]
fn lint_flags_errors_on_stdout_and_exits_nonzero() {
    // A finite constant feeding a min sits on a timing path: STA004.
    let net = TempFile::with_content(
        "bad.net",
        "g0 = input\ng1 = const 5\ng2 = min g0 g1\noutputs g2\n",
    );
    let out = bin().args(["lint", net.to_str()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[STA004]"), "{stdout}");
    assert!(stdout.contains("hint:"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 error(s)"), "{stderr}");
}

#[test]
fn lint_json_round_trips_through_the_report_parser() {
    let net = TempFile::with_content(
        "bad2.net",
        "g0 = input\ng1 = const 3\ng2 = min g0 g1\noutputs g2\n",
    );
    let out = bin()
        .args(["lint", net.to_str(), "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = spacetime::lint::Report::from_json(&stdout).expect("valid JSON");
    assert_eq!(report.error_count(), 1);
    assert_eq!(
        report.diagnostics()[0].code,
        spacetime::lint::Code::Causality
    );
    // The re-rendered JSON is byte-identical to what the CLI printed.
    assert_eq!(report.to_json(), stdout);
}

#[test]
fn lint_kind_override_beats_autodetection() {
    let table = fig7_file();
    // Forcing the wrong kind makes the parser reject the file.
    let out = bin()
        .args(["lint", table.to_str(), "--kind", "net"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = bin()
        .args(["lint", table.to_str(), "--kind", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown kind"));
}

#[test]
fn lint_max_window_flag_silences_sta010() {
    let table = TempFile::with_content("wide.table", "0 -> 20\n");
    let out = bin().args(["lint", table.to_str()]).output().unwrap();
    assert!(out.status.success(), "warnings are not errors: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("warning[STA010]"), "{stdout}");

    let out = bin()
        .args(["lint", table.to_str(), "--max-window", "32"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = bin().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = bin()
        .args(["eval", "/nonexistent.table", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = bin().args(["sort", "banana"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = bin().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

fn fig6_net_file() -> TempFile {
    TempFile::with_content(
        "fig6.net",
        "g0 = input\ng1 = input\ng2 = input\ng3 = inc 1 g0\ng4 = min g3 g1\ng5 = lt g4 g2\noutputs g5\n",
    )
}

#[test]
fn trace_exports_all_four_formats() {
    let net = fig6_net_file();

    // stats: non-empty RunStats with volleys and a latency line.
    let out = bin()
        .args(["trace", net.to_str(), "--format", "stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RunStats:"), "{stdout}");
    assert!(stdout.contains("volleys"), "{stdout}");
    assert!(stdout.contains("latency"), "{stdout}");

    // raster: CSV header plus at least one net spike row.
    let out = bin()
        .args(["trace", net.to_str(), "--format", "raster"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("volley,time,source,unit"));
    assert!(lines.any(|l| l.contains(",net,gate")), "{stdout}");

    // jsonl: a schema header line, then one JSON object per event.
    let out = bin()
        .args(["trace", net.to_str(), "--format", "jsonl"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("header line");
    assert!(
        header.starts_with("{\"schema\":\"spacetime-obs/1\""),
        "not a versioned trace header: {header}"
    );
    for line in lines {
        assert!(
            line.starts_with("{\"kind\":\"") && line.ends_with('}'),
            "not a JSONL event: {line}"
        );
    }

    // chrome: the trace_event envelope, written via --out.
    let chrome = TempFile::with_content("trace.json", "");
    let out = bin()
        .args([
            "trace",
            net.to_str(),
            "--format",
            "chrome",
            "--threads",
            "2",
            "--out",
            chrome.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read_to_string(chrome.to_str()).unwrap();
    assert!(written.starts_with("{\"traceEvents\":["), "{written}");
    assert!(written.contains("\"ph\":\"X\""), "{written}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("wrote"));
}

#[test]
fn trace_engine_and_volley_overrides() {
    let table = fig7_file();
    let volleys = TempFile::with_content("volleys.txt", "3 4 5\n0 0 0\ninf inf inf\n");

    // A table traced through the GRL engine over explicit volleys.
    let out = bin()
        .args([
            "trace",
            table.to_str(),
            "--engine",
            "grl",
            "--format",
            "stats",
            "--volleys",
            volleys.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("over 3 volleys"), "{stdout}");

    // Impossible engine/file pairings and bad formats are flat errors.
    let out = bin()
        .args(["trace", table.to_str(), "--engine", "column"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = bin()
        .args(["trace", table.to_str(), "--format", "yaml"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn trace_prom_format_exports_counter_families() {
    let table = fig7_file();
    let out = bin()
        .args(["trace", table.to_str(), "--format", "prom"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("# TYPE spacetime_table_lookups counter"),
        "{stdout}"
    );
    assert!(
        stdout.contains("spacetime_batch_volley_nanos_bucket{le=\"+Inf\"}"),
        "{stdout}"
    );
}

#[test]
fn bench_quick_emits_a_valid_schema_versioned_report() {
    let report_file = TempFile::with_content("bench.json", "");
    let out = bin()
        .env("SPACETIME_BENCH_ITERS", "1")
        .args([
            "bench",
            "--quick",
            "--label",
            "cli-test",
            "--out",
            report_file.to_str(),
        ])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(report_file.to_str()).unwrap();
    assert!(text.contains("\"schema\": \"spacetime-bench/1\""), "{text}");
    // All four engines at two thread counts each.
    for name in [
        "table/3/t1",
        "table/3/t2",
        "net/8/t1",
        "net/8/t2",
        "grl/4/t1",
        "grl/4/t2",
        "tnn/8/t1",
        "tnn/8/t2",
    ] {
        assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }

    // The emitted report validates under --check.
    let out = bin()
        .args(["bench", "--check", report_file.to_str()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("valid spacetime-bench/1 report"),
        "{stdout}"
    );
}

#[test]
fn bench_compare_passes_self_and_fails_injected_slowdown() {
    let report_file = TempFile::with_content("base.json", "");
    let out = bin()
        .env("SPACETIME_BENCH_ITERS", "1")
        .args(["bench", "--quick", "--out", report_file.to_str()])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{out:?}");
    let base = std::fs::read_to_string(report_file.to_str()).unwrap();

    // Self-comparison is always within threshold.
    let out = bin()
        .args([
            "bench",
            "--compare",
            report_file.to_str(),
            report_file.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "{stdout}");

    // Inject a 10x slowdown into every scenario's p50 and watch the gate
    // trip: non-zero exit, REGRESSED rows in the table.
    let mut slow = spacetime::metrics::BenchReport::from_json(&base).unwrap();
    for s in &mut slow.scenarios {
        s.wall_nanos.p50 = s.wall_nanos.p50.saturating_mul(10).max(10);
    }
    let slow_file = TempFile::with_content("slow.json", &slow.to_json());
    let out = bin()
        .args([
            "bench",
            "--compare",
            report_file.to_str(),
            slow_file.to_str(),
            "--threshold",
            "2.0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("performance regression"), "{stderr}");
}

#[test]
fn opt_check_shrinks_a_redundant_network_and_reports_sta2xx() {
    let net = TempFile::with_content(
        "redundant.net",
        "g0 = input\ng1 = input\ng2 = min g0 g1\ng3 = min g1 g0\n\
         g4 = inc 1 g2\ng5 = inc 2 g4\ng6 = max g3 g3\noutputs g5 g6\n",
    );
    let out = bin()
        .args(["opt", net.to_str(), "--check"])
        .output()
        .expect("run opt");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("STA202"), "{stdout}");
    assert!(stdout.contains("STA203"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 rejection(s)"), "{stderr}");

    // --json emits the machine report; a rejected-pass-free run has no
    // errors and the run is accepted end to end.
    let out = bin()
        .args(["opt", net.to_str(), "--json"])
        .output()
        .expect("run opt --json");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"errors\": 0"), "{stdout}");
    assert!(stdout.contains("STA202"), "{stdout}");

    // An unknown pass name is a usage error, not a silent no-op.
    let out = bin()
        .args(["opt", net.to_str(), "--passes", "nonsense"])
        .output()
        .expect("run opt bad pass");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown pass"), "{stderr}");
}

#[test]
fn bench_compare_warns_but_passes_on_missing_and_added_scenarios() {
    let report_file = TempFile::with_content("rows-base.json", "");
    let out = bin()
        .env("SPACETIME_BENCH_ITERS", "1")
        .args(["bench", "--quick", "--out", report_file.to_str()])
        .output()
        .expect("run bench");
    assert!(out.status.success(), "{out:?}");
    let base = std::fs::read_to_string(report_file.to_str()).unwrap();

    // Rename one scenario in the new report: its old name is now missing
    // from the comparison and its new name has no baseline row. Neither
    // may gate — uncomparable rows warn and are skipped.
    let mut renamed = spacetime::metrics::BenchReport::from_json(&base).unwrap();
    let old_name = renamed.scenarios[0].name.clone();
    renamed.scenarios[0].name = format!("{old_name}-renamed");
    let renamed_file = TempFile::with_content("rows-renamed.json", &renamed.to_json());
    let out = bin()
        .args([
            "bench",
            "--compare",
            report_file.to_str(),
            renamed_file.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("warning: scenario {old_name} is in the baseline"))
            && stderr.contains("it was not compared"),
        "{stderr}"
    );
    assert!(
        stderr.contains(&format!("warning: scenario {old_name}-renamed is new in"))
            && stderr.contains("no baseline row"),
        "{stderr}"
    );
}

#[test]
fn bench_rejects_bad_flags_and_reports() {
    let out = bin()
        .args(["bench", "--threshold", "0.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let bad = TempFile::with_content("bad.json", "{\"schema\": \"other/9\"}");
    let out = bin()
        .args(["bench", "--check", bad.to_str()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn verify_clean_table_exits_zero_with_proofs() {
    let table = fig7_file();
    let out = bin().args(["verify", table.to_str()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("certificate (table)"), "{stdout}");
    assert!(stdout.contains("proved: table ≡ net"), "{stdout}");
    assert!(stdout.contains("proved: net ≡ grl"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 proof(s), 0 counterexample(s)"),
        "{stderr}"
    );
}

#[test]
fn verify_against_wrong_spec_exits_one_with_replayable_counterexample() {
    let table = fig7_file();
    let spec = TempFile::with_content("spec.table", "0 1 2 -> 4\n1 0 inf -> 2\n2 2 0 -> 2\n");
    let out = bin()
        .args(["verify", table.to_str(), "--against", spec.to_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[STA101]"), "{stdout}");
    assert!(stdout.contains("on input [0 1 2]"), "{stdout}");
    assert!(stdout.contains("spacetime batch"), "{stdout}");

    // The counterexample volley replays through `spacetime batch` and
    // reproduces the disagreement: the artifact says 3, the spec says 4.
    let volley = TempFile::with_content("cex.volleys", "0 1 2\n");
    let replay = |spec_file: &str| {
        let out = bin()
            .args(["batch", spec_file, volley.to_str()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    assert_eq!(replay(table.to_str()), "[3]");
    assert_eq!(replay(spec.to_str()), "[4]");
}

#[test]
fn verify_json_emits_certificate_and_report() {
    let net = fig6_net_file();
    let out = bin()
        .args(["verify", net.to_str(), "--json", "--window", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"version\": 1"), "{stdout}");
    assert!(stdout.contains("\"certificate\": {"), "{stdout}");
    assert!(stdout.contains("\"worst_case_delay\": 4"), "{stdout}");
    assert!(stdout.contains("\"proofs\": ["), "{stdout}");
    assert!(stdout.contains("\"report\": {"), "{stdout}");
}

#[test]
fn verify_small_window_warns_sta103_and_deny_promotes_it() {
    let table = fig7_file();
    let out = bin()
        .args(["verify", table.to_str(), "--window", "1"])
        .output()
        .unwrap();
    // A warning alone stays exit 0.
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("warning[STA103]"),
        "{out:?}"
    );

    // --deny STA103 promotes the warning to an error: exit 1.
    let out = bin()
        .args([
            "verify",
            table.to_str(),
            "--window",
            "1",
            "--deny",
            "STA103",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("error[STA103]"),
        "{out:?}"
    );
}

#[test]
fn lint_deny_and_allow_override_severities_with_stable_exits() {
    // STA010 is a warning by default: exit 0. --deny STA010 → exit 1.
    let wide = TempFile::with_content("deny.table", "0 -> 20\n");
    let out = bin().args(["lint", wide.to_str()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = bin()
        .args(["lint", wide.to_str(), "--deny", "STA010"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // STA004 is an error by default: exit 1. --allow STA004 → exit 0.
    let bad = TempFile::with_content(
        "allow.net",
        "g0 = input\ng1 = const 5\ng2 = min g0 g1\noutputs g2\n",
    );
    let out = bin().args(["lint", bad.to_str()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let out = bin()
        .args(["lint", bad.to_str(), "--allow", "STA004"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("info[STA004]"),
        "{out:?}"
    );
}

#[test]
fn lint_and_verify_exit_two_on_operational_errors() {
    let out = bin().args(["lint", "/nonexistent.table"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bin()
        .args(["verify", "/nonexistent.table"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let table = fig7_file();
    let out = bin()
        .args(["lint", table.to_str(), "--deny", "NOTACODE"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown diagnostic code"),
        "{out:?}"
    );
}

#[test]
fn profile_exports_all_four_formats_with_full_pipeline_spans() {
    let table = fig7_file();

    // flame: collapsed stacks covering every pipeline stage, with the
    // verified-optimization proof sub-spans nested under their passes.
    let out = bin()
        .args(["profile", table.to_str(), "--format", "flame"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let flame = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "compile ",
        "lint;lint.pass.",
        "opt;opt.pass.",
        "verify.check_equiv;verify.window",
        "plan.build ",
        "batch.eval;batch.chunk;kernel.packet",
    ] {
        assert!(flame.contains(needle), "missing {needle:?} in:\n{flame}");
    }

    // chrome: a trace_event document with named threads.
    let out = bin()
        .args([
            "profile",
            table.to_str(),
            "--format",
            "chrome",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let chrome = String::from_utf8_lossy(&out.stdout);
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"B\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"E\""), "{chrome}");
    assert!(chrome.contains("spacetime profile"), "{chrome}");

    // top: the self-time table, spans sorted by self time.
    let out = bin()
        .args(["profile", table.to_str(), "--format", "top"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let top = String::from_utf8_lossy(&out.stdout);
    assert!(top.starts_with("SPAN"), "{top}");
    assert!(top.contains("SELF%"), "{top}");
    assert!(top.contains("verify.window"), "{top}");

    // json: one span record per line, --out writes to a file instead.
    let json_file = TempFile::with_content("profile.jsonl", "");
    let out = bin()
        .args([
            "profile",
            table.to_str(),
            "--format",
            "json",
            "--out",
            json_file.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let jsonl = std::fs::read_to_string(json_file.to_str()).unwrap();
    let first = jsonl.lines().next().unwrap();
    assert!(first.starts_with("{\"id\":"), "{first}");
    assert!(jsonl.contains("\"name\":\"compile\""), "{jsonl}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("spans"),
        "{out:?}"
    );
}

#[test]
fn profile_rejects_bad_flags() {
    let table = fig7_file();
    let out = bin()
        .args(["profile", table.to_str(), "--format", "svg"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown format"),
        "{out:?}"
    );
    let out = bin()
        .args(["profile", table.to_str(), "--engine", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown engine"),
        "{out:?}"
    );
}

#[test]
fn bench_history_appends_and_trend_renders_deltas() {
    let report_file = TempFile::with_content("trend-report.json", "");
    let history_file = TempFile::with_content("trend-history.jsonl", "");

    // Two runs append two schema-versioned rows to the ledger.
    for label in ["run-a", "run-b"] {
        let out = bin()
            .env("SPACETIME_BENCH_ITERS", "1")
            .args([
                "bench",
                "--quick",
                "--label",
                label,
                "--out",
                report_file.to_str(),
                "--history",
                history_file.to_str(),
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("appended a trend row"),
            "{out:?}"
        );
    }
    let ledger = std::fs::read_to_string(history_file.to_str()).unwrap();
    assert_eq!(ledger.lines().count(), 2, "{ledger}");
    assert!(
        ledger
            .lines()
            .all(|l| l.contains("\"schema\":\"spacetime-trend/1\"")),
        "{ledger}"
    );

    // The trend view diffs every row against the baseline report.
    let out = bin()
        .args([
            "bench",
            "--trend",
            history_file.to_str(),
            "--baseline",
            report_file.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("trend vs baseline"), "{table}");
    assert!(table.contains("run-a"), "{table}");
    assert!(table.contains("run-b"), "{table}");
    assert!(table.contains('x'), "{table}");

    // A malformed ledger line is reported with its line number.
    let bad = TempFile::with_content("trend-bad.jsonl", "not json\n");
    let out = bin()
        .args([
            "bench",
            "--trend",
            bad.to_str(),
            "--baseline",
            report_file.to_str(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 1"),
        "{out:?}"
    );
}

#[test]
fn inspect_stats_and_raster_summary() {
    let net = fig6_net_file();

    let out = bin().args(["inspect", net.to_str()]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("volleys:"), "{stdout}");
    assert!(stdout.contains("gate5"), "{stdout}");
    assert!(stdout.contains("volley extent"), "{stdout}");

    let out = bin()
        .args(["inspect", net.to_str(), "--stats", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"volleys\":"), "{stdout}");
    assert!(stdout.contains("\"histogram\":{"), "{stdout}");

    let out = bin()
        .args(["inspect", net.to_str(), "--raster-summary"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("volley 0:"), "{stdout}");
    assert!(stdout.contains("gate0@"), "{stdout}");
}

#[test]
fn inspect_why_emits_provenance_and_a_batch_replayable_witness() {
    let net = fig6_net_file();
    let prefix = std::env::temp_dir().join(format!("spacetime-cli-witness-{}", std::process::id()));
    let prefix = prefix.to_str().expect("utf-8 path").to_owned();

    // Query a firing: lt fires at 1 when min(inc1(x0), x1) = 1 beats x2.
    let out = bin()
        .args([
            "inspect",
            net.to_str(),
            "--why",
            "g5@1",
            "--witness",
            &prefix,
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gate 5 fired at 1"), "{stdout}");
    assert!(stdout.contains("(inhibitor)"), "{stdout}");
    assert!(stdout.contains("witness volley"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("spacetime batch"),
        "{out:?}"
    );

    // The acceptance criterion: the written witness pair replays through
    // `spacetime batch` to reproduce the exact queried spike.
    let out = bin()
        .args([
            "batch",
            &format!("{prefix}.net"),
            &format!("{prefix}.volleys"),
            "--engine",
            "net",
        ])
        .output()
        .unwrap();
    let _ = std::fs::remove_file(format!("{prefix}.net"));
    let _ = std::fs::remove_file(format!("{prefix}.volleys"));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // fig6's output *is* g5, so the replay's existing column 0 carries
    // the queried spike.
    assert_eq!(stdout.lines().next(), Some("[1]"), "{stdout}");

    // Silence is queryable too: with all-zero inputs the inhibitor wins.
    let out = bin()
        .args(["inspect", net.to_str(), "--why", "g5@inf"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stayed silent"), "{stdout}");

    // JSON and dot renderings.
    let out = bin()
        .args(["inspect", net.to_str(), "--why", "g5@1", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("{\"volley\":"), "{stdout}");
    assert!(stdout.contains("\"witness\":["), "{stdout}");

    let out = bin()
        .args(["inspect", net.to_str(), "--why", "g5@1", "--dot"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph provenance"), "{stdout}");
    assert!(stdout.contains("doublecircle"), "{stdout}");

    // A time the gate never takes is an operational error (exit 2).
    let out = bin()
        .args(["inspect", net.to_str(), "--why", "g5@99"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("observed times"),
        "{out:?}"
    );
}

#[test]
fn inspect_diff_follows_the_gate_exit_contract() {
    let net = fig6_net_file();

    // Self-diff: agreement, exit 0.
    let out = bin()
        .args(["inspect", net.to_str(), "--diff", net.to_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("runs agree"),
        "{out:?}"
    );

    // A min→max mutant: localized gate-level divergence, exit 1.
    let mutant = TempFile::with_content(
        "fig6-mut.net",
        "g0 = input\ng1 = input\ng2 = input\ng3 = inc 1 g0\ng4 = max g3 g1\ng5 = lt g4 g2\noutputs g5\n",
    );
    let out = bin()
        .args(["inspect", net.to_str(), "--diff", mutant.to_str(), "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"gate\":4"), "{stdout}");
    assert!(stdout.contains("\"op\":\"min\""), "{stdout}");

    // Incomparable widths: operational error, exit 2.
    let narrow = TempFile::with_content("narrow.net", "g0 = input\noutputs g0\n");
    let out = bin()
        .args(["inspect", net.to_str(), "--diff", narrow.to_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn inspect_trace_mode_validates_the_export_schema() {
    let net = fig6_net_file();

    // A recorded run round-trips: trace → JSONL → inspect --trace.
    let jsonl = TempFile::with_content("run.jsonl", "");
    let out = bin()
        .args([
            "trace",
            net.to_str(),
            "--format",
            "jsonl",
            "--out",
            jsonl.to_str(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = bin()
        .args(["inspect", net.to_str(), "--trace", jsonl.to_str()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("gate5"),
        "{out:?}"
    );
    let out = bin()
        .args([
            "inspect",
            net.to_str(),
            "--trace",
            jsonl.to_str(),
            "--why",
            "g5@1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("gate 5 fired at 1"),
        "{out:?}"
    );

    // A foreign or missing schema header is refused with a clear error.
    let bad = TempFile::with_content(
        "bad.jsonl",
        "{\"schema\":\"someone-elses/9\",\"events\":0,\"dropped\":0}\n",
    );
    let out = bin()
        .args(["inspect", net.to_str(), "--trace", bad.to_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("spacetime-obs/1"),
        "{out:?}"
    );
}

#[test]
fn bench_check_rejects_a_deeply_nested_report() {
    let deep = TempFile::with_content("deep.json", &"[".repeat(50_000));
    let out = bin()
        .args(["bench", "--check", deep.to_str()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("nesting deeper than 128"),
        "{out:?}"
    );
}

#[test]
fn inspect_trace_rejects_hostile_lines_with_a_line_numbered_error() {
    let net = fig6_net_file();
    let header = "{\"schema\":\"spacetime-obs/1\",\"events\":1,\"dropped\":0}\n";
    let cases = [
        (
            "at",
            "{\"kind\":\"gate_fired\",\"gate\":0,\"op\":\"input\",\"at\":18446744073709551615}"
                .to_owned(),
            "field \"at\" is neither ticks nor null",
        ),
        (
            "deep",
            format!("{{\"kind\":\"volley_start\",\"index\":{}", "[".repeat(50_000)),
            "nesting deeper than 128",
        ),
        (
            "garbage",
            "garbage{\"kind\":\"volley_start\",\"index\":0}".to_owned(),
            "unexpected character 'g'",
        ),
        (
            "repeated",
            "{\"kind\":\"volley_start\",\"index\":0,\"index\":1}".to_owned(),
            "repeated key \"index\"",
        ),
        (
            "before",
            "{\"kind\":\"weight_delta\",\"neuron\":0,\"synapse\":0,\"before\":4294967297,\"after\":0}"
                .to_owned(),
            "out-of-range field \"before\"",
        ),
    ];
    for (tag, line, expected) in cases {
        let trace = TempFile::with_content(&format!("{tag}.jsonl"), &format!("{header}{line}\n"));
        let out = bin()
            .args(["inspect", net.to_str(), "--trace", trace.to_str()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{tag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("trace line 2: ") && stderr.contains(expected),
            "{tag}: {stderr}"
        );
    }
}

/// Absolute path of a committed example artifact.
fn example(name: &str) -> String {
    format!("{}/examples/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn verify_at_the_largest_window_exits_two_with_domain_too_large() {
    // `window + 2` overflows here; the ceiling check must still refuse.
    let out = bin()
        .args([
            "verify",
            &example("fig6.net"),
            "--window",
            "18446744073709551615",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("domain too large"),
        "{out:?}"
    );
}

#[test]
fn opt_samples_a_wide_network_at_the_second_largest_window() {
    // Width 22 needs 2^22 > 4M volleys even at window 0, so each proof
    // falls back to the seeded sample, whose `window + 2` overflows here.
    let mut text: String = (0..22).map(|i| format!("g{i} = input\n")).collect();
    text.push_str("g22 = const inf\ng23 = min");
    for i in 0..=22 {
        text.push_str(&format!(" g{i}"));
    }
    text.push_str("\noutputs g23\n");
    let net = TempFile::with_content("wide22.net", &text);
    let out = bin()
        .args(["opt", net.to_str(), "--window", "18446744073709551614"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("accepted (sampled, 4096 volleys)"),
        "{out:?}"
    );
}

#[test]
fn lint_relational_tier_is_opt_in_per_witness() {
    // Each committed STA3xx witness is clean under the default tier and
    // earns exactly its documented finding under --relational — and the
    // relational findings cap at warning severity, so the exit stays 0.
    for (file, code) in [
        ("race2.grl", "STA303"),
        ("wta0.net", "STA302"),
        ("skew2.net", "STA304"),
        ("relfold.net", "STA301"),
    ] {
        let path = example(file);
        let out = bin().args(["lint", &path]).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{file}: {out:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("STA3"),
            "{file} must need --relational to earn STA3xx findings: {out:?}"
        );

        let out = bin()
            .args(["lint", &path, "--relational"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{file}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(code),
            "{file} must earn {code} under --relational: {out:?}"
        );
    }
}

#[test]
fn lint_relational_json_matches_the_committed_goldens() {
    for (file, golden) in [
        ("race2.grl", include_str!("golden/race2_relational.json")),
        ("wta0.net", include_str!("golden/wta0_relational.json")),
        ("skew2.net", include_str!("golden/skew2_relational.json")),
        (
            "relfold.net",
            include_str!("golden/relfold_relational.json"),
        ),
    ] {
        let out = bin()
            .args(["lint", &example(file), "--relational", "--json"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{file}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, golden, "{file} drifted from its golden report");
        let report = spacetime::lint::Report::from_json(&stdout).expect("valid report JSON");
        assert_eq!(report.to_json(), stdout, "{file} must round-trip");
    }
}

#[test]
fn lint_relational_deny_and_allow_gate_each_sta3xx_code() {
    // Every STA3xx code is individually promotable to a hard gate
    // (--deny → exit 1) and demotable to advice (--allow → exit 0).
    for (file, code) in [
        ("race2.grl", "STA301"),
        ("wta0.net", "STA302"),
        ("race2.grl", "STA303"),
        ("skew2.net", "STA304"),
    ] {
        let path = example(file);
        let out = bin()
            .args(["lint", &path, "--relational", "--deny", code])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "--deny {code} on {file}: {out:?}"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(&format!("error[{code}]")),
            "{out:?}"
        );

        let out = bin()
            .args(["lint", &path, "--relational", "--allow", code])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "--allow {code} on {file}: {out:?}"
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(&format!("info[{code}]")),
            "{out:?}"
        );
    }
}

/// Every shipped example through one `spacetime opt` mode, as one
/// document: a `== <file>` header per example (in file-name order), the
/// exit code on the next line, then the bytes the run produced — its
/// stdout, or with `emit` the artifact it wrote.
fn opt_document(extra: &[&str], emit: bool) -> String {
    let dir = format!("{}/examples/data", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut doc = String::new();
    for name in names {
        // Starts empty, so a run that writes nothing reads as an empty
        // artifact.
        let out_file = TempFile::with_content(&format!("{name}.opt"), "");
        let path = example(&name);
        let mut args = vec!["opt", path.as_str()];
        args.extend_from_slice(extra);
        if emit {
            args.extend_from_slice(&["--emit", out_file.to_str()]);
        }
        let out = bin().args(&args).output().unwrap();
        let code = out.status.code().unwrap();
        doc.push_str(&format!("== {name}\nexit {code}\n"));
        if emit {
            doc.push_str(&std::fs::read_to_string(&out_file.0).unwrap());
        } else {
            doc.push_str(&String::from_utf8_lossy(&out.stdout));
        }
    }
    doc
}

/// `spacetime opt`'s text, `--json` and `--emit` outputs and exit codes
/// on every shipped example, byte for byte. Regenerate a golden after a
/// deliberate change with, for the text form,
///
/// ```sh
/// for f in examples/data/*; do
///   ./target/release/spacetime opt "$f" > out.txt 2>/dev/null
///   printf '== %s\nexit %s\n' "${f##*/}" "$?"; cat out.txt
/// done > tests/golden/opt_text.txt
/// ```
///
/// adding `--json` for `opt_json.txt`. For `opt_emit.txt`, empty
/// `art.txt`, run `opt "$f" --check --emit art.txt > /dev/null`, and
/// `cat art.txt` in place of `out.txt`.
#[test]
fn opt_outputs_match_the_committed_goldens() {
    for (extra, emit, golden) in [
        (&[][..], false, include_str!("golden/opt_text.txt")),
        (&["--json"][..], false, include_str!("golden/opt_json.txt")),
        (&["--check"][..], true, include_str!("golden/opt_emit.txt")),
    ] {
        let doc = opt_document(extra, emit);
        assert_eq!(
            doc, golden,
            "spacetime opt {extra:?} drifted from its golden"
        );
    }
}
