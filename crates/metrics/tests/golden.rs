//! Golden-file test for the Prometheus text exporter: a fixed synthetic
//! registry must render byte-for-byte to the checked-in
//! `tests/golden/metrics.prom`. If the exposition format changes
//! intentionally, regenerate the golden (`REGENERATE_GOLDEN=1 cargo test
//! -p st-metrics --test golden`) and review the diff — Prometheus
//! scrapers parse these bytes.

use st_metrics::{MetricSink, MetricsRegistry, MetricsSnapshot};

/// A deterministic miniature registry touching every rendering path:
/// plain counters, a dotted name needing sanitization, and a histogram
/// with several used buckets.
fn fixture() -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    registry.incr("net.gate_evals", 42);
    registry.incr("net.runs", 3);
    registry.incr("grl.wire_transitions", 17);
    registry.observe("net.queue_peak_depth", 0);
    registry.observe("net.queue_peak_depth", 5);
    registry.observe("net.queue_peak_depth", 5);
    registry.observe("net.queue_peak_depth", 200);
    registry.observe("net.queue_peak_depth", 7);
    registry
}

#[test]
fn prom_text_matches_golden() {
    let rendered = MetricsSnapshot::from_registry(&fixture()).to_prom_text();
    if std::env::var_os("REGENERATE_GOLDEN").is_some() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("metrics.prom"), &rendered).unwrap();
    }
    assert_eq!(rendered, include_str!("golden/metrics.prom"));
}
