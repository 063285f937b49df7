//! End-to-end integration: simulate a cluster, then run every analysis in
//! the paper's pipeline over the resulting telemetry.

use rsc_reliability::analysis::attribution::{
    attribute_failures, attribution_accuracy, cause_rates, AttributionConfig,
};
use rsc_reliability::analysis::ettr::jobrun::reconstruct_job_runs;
use rsc_reliability::analysis::goodput::goodput_loss;
use rsc_reliability::analysis::lemon::compute_features;
use rsc_reliability::analysis::mttf::{estimate_node_failure_rate, mttf_by_job_size, FailureScope};
use rsc_reliability::analysis::report::{size_distribution, status_breakdown};
use rsc_reliability::sim::{ClusterSim, SimConfig};
use rsc_reliability::simcore::time::{SimDuration, SimTime};

fn telemetry(days: u64, seed: u64) -> rsc_reliability::telemetry::TelemetryView {
    let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), seed);
    sim.run(SimDuration::from_days(days));
    sim.into_telemetry().seal()
}

#[test]
fn attribution_pipeline_produces_causes() {
    let store = telemetry(45, 101);
    let config = AttributionConfig::paper_default();
    let attributions = attribute_failures(&store, &config);
    assert!(!attributions.is_empty());
    let attributed = attributions.iter().filter(|a| a.is_attributed()).count();
    assert!(attributed > 0, "some failures should have causes");
    // Most FAILED records are pure user failures and stay unattributed.
    assert!(attributed < attributions.len());
    let rates = cause_rates(&store, &config);
    assert!(rates.total_gpu_hours > 0.0);
    assert!(!rates.rates.is_empty());
    // Descending by rate; equal rates in cause order, so every process
    // prints one order.
    assert!(rates
        .rates
        .windows(2)
        .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
}

#[test]
fn attribution_mostly_matches_ground_truth() {
    let store = telemetry(60, 102);
    let acc = attribution_accuracy(&store, &AttributionConfig::paper_default());
    assert!(acc > 0.7, "attribution accuracy {acc} too low");
}

#[test]
fn infra_mttf_decreases_with_job_size() {
    // Infrastructure failures scale with node count (Fig. 7); user
    // failures do not, so the MTTF scaling claim is about infra only.
    let store = telemetry(120, 103);
    let points = mttf_by_job_size(
        &store,
        FailureScope::InfraOnly,
        &AttributionConfig::paper_default(),
    );
    assert!(points.len() >= 3);
    // Compare small vs large buckets that saw enough failures to estimate.
    let small = points.iter().find(|p| p.gpus <= 16 && p.failures >= 3);
    let large = points
        .iter()
        .rev()
        .find(|p| p.gpus >= 64 && p.failures >= 3);
    if let (Some(s), Some(l)) = (small, large) {
        assert!(
            l.mttf_hours < s.mttf_hours,
            "large-job MTTF {l:?} should be below small-job {s:?}"
        );
    } else {
        // Even a small cluster over 120 days must see some infra failures.
        assert!(points.iter().any(|p| p.failures > 0));
    }
}

#[test]
fn failure_rate_estimate_is_plausible() {
    let store = telemetry(60, 104);
    // Jobs > 8 GPUs (the small cluster's "large" jobs).
    let r_f = estimate_node_failure_rate(&store, &AttributionConfig::paper_default(), 8);
    // The injected total is 6.5e-3/node-day; the job-level estimate sees
    // the per-node rate amplified by gang scheduling (one node's failure
    // fails a multi-node job) so it can exceed the hardware rate.
    assert!(r_f > 1e-4 && r_f < 1.0, "r_f={r_f}");
}

#[test]
fn job_runs_reconstruct_and_measure() {
    let store = telemetry(45, 105);
    let runs = reconstruct_job_runs(&store);
    assert!(!runs.is_empty());
    let multi_attempt = runs.iter().filter(|r| r.attempts > 1).count();
    assert!(multi_attempt > 0, "some runs should span multiple attempts");
    for run in runs.iter().take(200) {
        let e = run.measured_ettr(SimDuration::from_mins(60), SimDuration::from_mins(5));
        assert!((0.0..=1.0).contains(&e));
    }
}

#[test]
fn goodput_loss_accounts_both_orders() {
    let store = telemetry(60, 106);
    let loss = goodput_loss(&store, &AttributionConfig::paper_default());
    assert!(loss.total_failure_loss > 0.0);
    let share = loss.preemption_share();
    assert!((0.0..1.0).contains(&share));
}

#[test]
fn report_fractions_are_normalized() {
    let store = telemetry(30, 107);
    let status = status_breakdown(&store);
    let jobs_sum: f64 = status.iter().map(|s| s.job_fraction).sum();
    assert!((jobs_sum - 1.0).abs() < 1e-9);
    let sizes = size_distribution(&store);
    let size_sum: f64 = sizes.iter().map(|s| s.job_fraction).sum();
    assert!((size_sum - 1.0).abs() < 1e-9);
    let gpu_sum: f64 = sizes.iter().map(|s| s.gpu_time_fraction).sum();
    assert!((gpu_sum - 1.0).abs() < 1e-6);
}

#[test]
fn lemon_features_cover_all_nodes() {
    let store = telemetry(30, 108);
    let features = compute_features(&store, SimTime::ZERO, store.horizon());
    assert_eq!(features.len(), 64);
    // Telemetry-rich cluster: some node has a nonzero signal.
    assert!(features
        .iter()
        .any(|f| f.out_count > 0 || f.single_node_node_fails > 0 || f.xid_cnt > 0));
}

#[test]
fn facade_reexports_are_wired() {
    // Compile-time check that the facade exposes each subsystem.
    let _ = rsc_reliability::cluster::ClusterSpec::rsc1();
    let _ = rsc_reliability::failure::ModeCatalog::rsc1();
    let _ = rsc_reliability::health::CheckRegistry::ideal();
    let _ =
        rsc_reliability::network::Fabric::new(&rsc_reliability::cluster::ClusterSpec::small_test());
    let _ = rsc_reliability::workload::WorkloadProfile::rsc1();
    let _ = rsc_reliability::analysis::mttf::MttfProjection::new(1e-3);
}
