//! Golden-file test pinning the STA2xx report JSON shape.
//!
//! `spacetime opt --json` prints [`analyze_network`]'s report on its
//! input followed by [`OptOutcome::report`]'s rejections, and CI gates
//! parse it, so its shape is contract: this test builds the same
//! document and compares it byte-for-byte against a committed golden
//! file. When a deliberate format change invalidates it, regenerate
//! with `spacetime opt examples/data/redundant4.net --json`.
//!
//! [`OptOutcome::report`]: st_opt::OptOutcome

use st_opt::{analyze_network, optimize_artifact, OptOptions};
use st_verify::Artifact;

fn data(name: &str) -> String {
    let path = format!("{}/../../examples/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn redundant4_report_json_matches_golden() {
    let net = st_net::parse_network(&data("redundant4.net")).unwrap();
    let mut report = analyze_network(&net);
    let outcome = optimize_artifact(&Artifact::Net(net), &OptOptions::default()).unwrap();

    // The example is built to trip every STA2xx code and shrink 10 -> 6
    // gates with every pass proved at the default window.
    assert_eq!((outcome.before, outcome.after), (10, 6));
    assert_eq!(outcome.rejected(), 0);
    assert!(outcome.is_clean());
    assert!(outcome.report.diagnostics().is_empty());

    report.merge(outcome.report);
    let expected = include_str!("golden/redundant4_report.json");
    assert_eq!(report.to_json(), expected);
}
