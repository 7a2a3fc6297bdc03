//! Self-tests of the benchmark: seeded inputs repeat, exact counts repeat
//! across runs and worker counts, and the output oracle catches a plan
//! that computes the wrong function.

use pipebench::corpus::{compile_corpus, volley_pool, Front, Rng, Spec};
use pipebench::oracle::{Reference, SpotCheck};
use pipebench::speed::Scaled;
use pipebench::workload::{measure_compile, run, run_traced, Report, Settings, Workload};
use spacetime::batch::BatchEvaluator;
use spacetime::core::{lane, Volley};
use spacetime::net::parse_network;
use spacetime::verify::mutate::net_mutants;

fn settings(workload: Workload, seed: u64, threads: Option<usize>) -> Settings {
    Settings {
        workload,
        seed,
        seconds: 0.0,
        threads,
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metric(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn same_seed_same_inputs_and_another_seed_changes_them() {
    assert_eq!(compile_corpus(11), compile_corpus(11));
    assert_eq!(
        volley_pool(11, 5, 4096, 0.01),
        volley_pool(11, 5, 4096, 0.01)
    );
    assert_ne!(compile_corpus(11), compile_corpus(12));
    assert_ne!(
        volley_pool(11, 5, 4096, 0.01),
        volley_pool(12, 5, 4096, 0.01)
    );
}

#[test]
fn pool_has_the_documented_shape() {
    let pool = volley_pool(3, 5, 65_536, 0.01);
    let lines = (pool.len() * 5) as f64;
    let silent = pool
        .iter()
        .flat_map(Volley::times)
        .filter(|t| !t.is_finite())
        .count() as f64;
    let beyond = pool
        .iter()
        .filter(|v| {
            v.times()
                .iter()
                .any(|t| t.value().is_some_and(|x| x > u64::from(lane::MAX_FINITE)))
        })
        .count() as f64;
    assert!(
        (0.4..0.6).contains(&(silent / lines)),
        "silent share {}",
        silent / lines
    );
    assert!((0.008..0.012).contains(&(beyond / pool.len() as f64)));
}

/// A spec whose compiled plan computes another function than its own
/// reference — a `net_mutants` mutant checked against the original's
/// spot check — must show up in `failed_ratio`; the original must not.
#[test]
fn mutant_plan_drives_failed_ratio_above_zero() {
    let original = compile_corpus(5)
        .into_iter()
        .find(|spec| spec.name == "examples/fig6.net")
        .expect("fig6 is in the corpus");
    let reference = Reference::parse(&original).expect("fig6 parses");
    let check = SpotCheck::new(&reference, &mut Rng::new(5, 3)).expect("reference evaluates");
    let mutant = net_mutants(&original.text)
        .into_iter()
        .find(|m| {
            let network = parse_network(&m.text).expect("mutants parse");
            check
                .in_lane
                .iter()
                .zip(&check.in_lane_expected)
                .any(|(volley, expected)| {
                    network.eval(volley.times()).ok().as_deref() != Some(expected.times())
                })
        })
        .expect("some mutant differs on the sample");
    let mutant = Spec {
        name: format!("mutant ({})", mutant.label),
        front: Front::Net,
        text: mutant.text,
    };

    let s = settings(Workload::Compile, 5, Some(1));
    let evaluator = BatchEvaluator::with_threads(1);
    let checks = [check];
    let report = measure_compile(&s, &evaluator, &[mutant], &checks, &Scaled::default());
    assert!(
        report.failed_ratio() > 0.0,
        "the mutant plan went unnoticed"
    );
    let report = measure_compile(&s, &evaluator, &[original], &checks, &Scaled::default());
    assert_eq!(report.failed_ratio(), 0.0);
}

/// The exact counts a later change may claim: identical on a second run.
#[test]
fn exact_counts_repeat_across_runs() {
    for workload in Workload::ALL {
        let s = settings(workload, 21, None);
        let (a, b) = (run(&s).expect("run"), run(&s).expect("run"));
        assert_eq!(value(&a, "plan_gates"), value(&b, "plan_gates"));
        assert_eq!(a.failed, 0, "{}", workload.name());
        assert_eq!(b.failed, 0, "{}", workload.name());

        let (a, b) = (
            run_traced(&s).expect("traced"),
            run_traced(&s).expect("traced"),
        );
        for name in [
            "kernel.plan_gates",
            "opt.gates_out",
            "verify.volleys",
            "kernel.packets",
            "kernel.scalar_volleys",
        ] {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{} {name}",
                workload.name()
            );
        }
        assert_eq!(a.failed_ratio(), b.failed_ratio());
    }
}

/// `stream`/`burst` counters do not depend on the worker count, except
/// those derived from chunks.
#[test]
fn eval_counters_are_worker_count_invariant() {
    let many = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    for workload in [Workload::Stream, Workload::Burst] {
        let one = run_traced(&settings(workload, 8, Some(1))).expect("traced");
        let all = run_traced(&settings(workload, 8, Some(many))).expect("traced");
        for name in [
            "batch.calls",
            "batch.volleys",
            "kernel.packets",
            "kernel.gates_swar",
            "kernel.gates_skipped",
            "kernel.fallback_calls",
            "kernel.scalar_volleys",
            "opt.gates_out",
            "verify.volleys",
        ] {
            assert_eq!(
                value(&one, name),
                value(&all, name),
                "{} {name}",
                workload.name()
            );
        }
        assert_eq!(value(&one, "batch.spawned_calls"), 0.0);
        assert_eq!((one.failed, all.failed), (0, 0));
    }
}
