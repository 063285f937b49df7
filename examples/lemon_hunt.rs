//! Lemon hunt: plant defective nodes in a simulated cluster, run a month
//! of workload, then find them from telemetry alone — the paper's §IV-A
//! detection pipeline end to end.
//!
//! Run with: `cargo run --release --example lemon_hunt`

use rsc_reliability::analysis::lemon::{compute_features, DetectionQuality, LemonDetector};
use rsc_reliability::sim::{ScenarioRunner, ScenarioSpec, SimConfig};
use rsc_reliability::simcore::time::SimTime;

fn main() {
    let mut config = SimConfig::small_test_cluster();
    config.lemon_count = 4;
    let spec = ScenarioSpec::new(config, 1234, 28);
    let planted = spec.config.planted_lemons(spec.seed);
    let truth = planted.node_ids();
    println!(
        "planted {} lemons among 64 nodes (ground truth hidden from the detector)",
        truth.len()
    );
    for lemon in planted.lemons() {
        println!(
            "  {} root cause: {}, +{:.2} failures/day",
            lemon.node, lemon.root_cause, lemon.extra_rate_per_day
        );
    }

    let store = ScenarioRunner::new().run_one(&spec);

    let features = compute_features(&store, SimTime::ZERO, store.horizon());
    let detector = LemonDetector::rsc_default();

    println!("\nnodes scoring ≥1 detection criterion:");
    println!(
        "{:>8} {:>6} {:>5} {:>8} {:>10} {:>12} {:>12} {:>7}",
        "node", "excl", "xids", "tickets", "out_count", "multi_fails", "single_fails", "score"
    );
    for f in &features {
        let score = detector.score(f);
        if score >= 1 {
            let marker = if truth.contains(&f.node) {
                " <- lemon"
            } else {
                ""
            };
            println!(
                "{:>8} {:>6} {:>5} {:>8} {:>10} {:>12} {:>12} {:>7}{marker}",
                f.node.to_string(),
                f.excl_jobid_count,
                f.xid_cnt,
                f.tickets,
                f.out_count,
                f.multi_node_node_fails,
                f.single_node_node_fails,
                score
            );
        }
    }

    let detected = detector.detect(&features);
    let quality = DetectionQuality::evaluate(&detected, &truth);
    println!(
        "\nflagged {} nodes: precision {:.0}%, recall {:.0}% (paper: >85% accuracy)",
        detected.len(),
        quality.precision() * 100.0,
        quality.recall() * 100.0
    );
}
