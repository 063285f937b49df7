//! Targeted tests of the driver's failure-handling paths: hang detection,
//! check-rollout restart loops, drain semantics, and lemon dynamics.

use rsc_failure::modes::ModeCatalog;
use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::registry::CheckRegistry;
use rsc_sched::job::JobStatus;
use rsc_sim::config::{EraPreset, SimConfig};
use rsc_sim::driver::ClusterSim;
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::store::NodeEventKind;

/// A config whose only failure mode is the given symptom, at a high rate
/// so short runs see plenty of events.
fn single_mode_config(symptom: FailureSymptom, rate: f64) -> SimConfig {
    let mut config = SimConfig::small_test_cluster();
    let base = ModeCatalog::rsc1();
    let spec = base
        .iter()
        .find(|(_, m)| m.symptom == symptom)
        .map(|(_, m)| m.clone())
        .expect("mode exists");
    config.modes = ModeCatalog::new(vec![rsc_failure::modes::ModeSpec {
        rate_per_node_day: rate,
        ..spec
    }]);
    config.eras = EraPreset::None;
    config
}

#[test]
fn hangs_surface_as_node_fail_after_heartbeat() {
    // The NcclTimeout mode is unobservable: only the scheduler heartbeat
    // catches it, producing NODE_FAIL records and remediation.
    let config = single_mode_config(FailureSymptom::NcclTimeout, 0.05);
    let mut sim = ClusterSim::new(config, 7);
    sim.run(SimDuration::from_days(20));
    let store = sim.into_telemetry();
    let node_fails = store
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::NodeFail)
        .count();
    assert!(node_fails > 0, "hangs should produce NODE_FAIL records");
    // No health check can see these failures.
    assert!(store
        .health_events()
        .iter()
        .all(|e| e.false_positive || e.signal.is_some()));
    let hang_detected = store
        .node_events()
        .iter()
        .filter(|e| e.kind == NodeEventKind::EnterRemediation)
        .count();
    assert!(hang_detected > 0, "hung nodes should be pulled for repair");
}

#[test]
fn high_severity_mode_requeues_jobs() {
    // IB link failures are high severity: jobs are killed immediately with
    // REQUEUED status and restart under the same id.
    let config = single_mode_config(FailureSymptom::InfinibandLink, 0.05);
    let mut sim = ClusterSim::new(config, 8);
    sim.run(SimDuration::from_days(20));
    let store = sim.into_telemetry();
    let requeued: Vec<_> = store
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::Requeued)
        .collect();
    assert!(!requeued.is_empty());
    // Each requeued attempt should be followed by a later attempt of the
    // same job id.
    let followed_up = requeued.iter().take(20).filter(|r| {
        store
            .jobs()
            .iter()
            .any(|other| other.job == r.job && other.attempt == r.attempt + 1)
    });
    assert!(followed_up.count() > 0);
}

#[test]
fn pre_rollout_faults_become_visible_at_rollout() {
    // Filesystem-mount failures are invisible before the FS-mount check
    // ships at day 100 (per the default registry): they appear only as
    // unattributed crashes; afterwards the check fires.
    let config = single_mode_config(FailureSymptom::FilesystemMount, 0.02);
    let mut sim = ClusterSim::new(config, 9);
    sim.run(SimDuration::from_days(160));
    let store = sim.into_telemetry();
    let before_rollout = store
        .health_events()
        .iter()
        .filter(|e| !e.false_positive && e.at < rsc_sim_core::time::SimTime::from_days(100))
        .count();
    let after_rollout = store
        .health_events()
        .iter()
        .filter(|e| !e.false_positive && e.at >= rsc_sim_core::time::SimTime::from_days(100))
        .count();
    assert_eq!(before_rollout, 0, "no check should fire before rollout");
    assert!(after_rollout > 0, "the rolled-out check should fire");
}

#[test]
fn ideal_checks_eliminate_unattributed_gaps() {
    // With every check live from day 0 and no misses, every observable
    // failure produces a health event.
    let mut config = single_mode_config(FailureSymptom::PcieError, 0.03);
    config.registry = CheckRegistry::ideal();
    let mut sim = ClusterSim::new(config, 10);
    sim.run(SimDuration::from_days(15));
    let store = sim.into_telemetry();
    let ground_truth = store.ground_truth_failures().len();
    assert!(ground_truth > 0);
    // At least one check event per observed failure (PCIe raises 1–3).
    assert!(store.health_events().len() >= ground_truth);
}

#[test]
fn lemons_repair_fast_and_keep_failing() {
    let mut config = SimConfig::small_test_cluster();
    config.lemon_count = 2;
    let lemon_ids = config.planted_lemons(11).node_ids();
    let mut sim = ClusterSim::new(config, 11);
    sim.run(SimDuration::from_days(90));
    let store = sim.into_telemetry();
    // Lemons fail repeatedly across the run (defect survives repair).
    let mut total = 0;
    for lemon in &lemon_ids {
        let failures = store
            .ground_truth_failures()
            .iter()
            .filter(|f| f.node == *lemon)
            .count();
        total += failures;
        assert!(failures >= 2, "lemon {lemon} failed only {failures} times");
        // And their failures are all transient from the shop's view.
        assert!(store
            .ground_truth_failures()
            .iter()
            .filter(|f| f.node == *lemon)
            .all(|f| !f.permanent));
    }
    assert!(
        total >= 8,
        "lemons should fail often in aggregate, got {total}"
    );
}

#[test]
fn drained_nodes_enter_remediation_after_jobs_leave() {
    // GSP timeouts are low severity: nodes drain, then remediate.
    let config = single_mode_config(FailureSymptom::GspTimeout, 0.05);
    let mut sim = ClusterSim::new(config, 12);
    sim.run(SimDuration::from_days(30));
    let store = sim.into_telemetry();
    let drains = store
        .node_events()
        .iter()
        .filter(|e| e.kind == NodeEventKind::Drain)
        .count();
    // GSP check rolls out at day 45; before that the failures are
    // invisible. Run 30 days → no drains; extend past rollout instead.
    let _ = drains;
    let mut sim2 = ClusterSim::new(single_mode_config(FailureSymptom::GspTimeout, 0.05), 12);
    sim2.run(SimDuration::from_days(80));
    let store2 = sim2.into_telemetry();
    let drains2 = store2
        .node_events()
        .iter()
        .filter(|e| e.kind == NodeEventKind::Drain)
        .count();
    assert!(drains2 > 0, "low-severity detections should drain nodes");
    // Every drain is eventually followed by remediation or the horizon.
    let remediations = store2
        .node_events()
        .iter()
        .filter(|e| e.kind == NodeEventKind::EnterRemediation)
        .count();
    assert!(remediations > 0);
}
