//! End-to-end behavioural tests of the cluster simulation.

use rsc_sched::job::JobStatus;
use rsc_sim::config::SimConfig;
use rsc_sim::driver::ClusterSim;
use rsc_sim_core::time::SimDuration;

fn small_run(days: u64, seed: u64) -> rsc_telemetry::store::TelemetryStore {
    let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), seed);
    sim.run(SimDuration::from_days(days));
    sim.into_telemetry()
}

#[test]
fn simulation_is_deterministic() {
    let a = small_run(5, 42);
    let b = small_run(5, 42);
    assert_eq!(a.jobs().len(), b.jobs().len());
    assert_eq!(a.health_events().len(), b.health_events().len());
    assert_eq!(
        a.ground_truth_failures().len(),
        b.ground_truth_failures().len()
    );
    for (x, y) in a.jobs().iter().zip(b.jobs()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_diverge() {
    let a = small_run(5, 1);
    let b = small_run(5, 2);
    assert_ne!(a.jobs().len(), b.jobs().len());
}

#[test]
fn most_jobs_complete() {
    let t = small_run(10, 7);
    let total = t.jobs().len() as f64;
    assert!(
        total > 1000.0,
        "expected a busy cluster, got {total} records"
    );
    let completed = t
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::Completed)
        .count() as f64;
    let frac = completed / total;
    assert!(
        (0.45..0.75).contains(&frac),
        "completed fraction {frac} out of range"
    );
}

#[test]
fn user_failures_present() {
    let t = small_run(10, 7);
    let failed = t
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::Failed)
        .count() as f64;
    let frac = failed / t.jobs().len() as f64;
    assert!((0.1..0.4).contains(&frac), "failed fraction {frac}");
}

#[test]
fn hardware_failures_generate_health_events_and_requeues() {
    let t = small_run(30, 9);
    assert!(
        !t.ground_truth_failures().is_empty(),
        "30 node-months should see failures"
    );
    assert!(!t.health_events().is_empty());
    // Some jobs should have been hit: NODE_FAIL or REQUEUED statuses exist.
    let interrupted = t
        .jobs()
        .iter()
        .filter(|r| matches!(r.status, JobStatus::NodeFail | JobStatus::Requeued))
        .count();
    assert!(interrupted > 0, "no infra-interrupted jobs");
    // Requeued jobs keep their id: find one id with multiple attempts.
    let has_multi_attempt = t.jobs().iter().any(|r| r.attempt > 0);
    assert!(has_multi_attempt);
}

#[test]
fn node_events_balance() {
    use rsc_telemetry::store::NodeEventKind;
    let t = small_run(30, 11);
    let enters = t
        .node_events()
        .iter()
        .filter(|e| e.kind == NodeEventKind::EnterRemediation)
        .count();
    let exits = t
        .node_events()
        .iter()
        .filter(|e| e.kind == NodeEventKind::ExitRemediation)
        .count();
    assert!(enters > 0);
    // Every exit has a prior enter; some repairs may still be pending at the
    // horizon.
    assert!(exits <= enters);
    assert!(enters - exits <= 64, "too many nodes stuck in remediation");
}

#[test]
fn utilization_is_high() {
    let view = small_run(10, 13).seal();
    let util = rsc_core::cluster_goodput::utilization(&view, 8);
    assert!(util > 0.5, "utilization {util} too low");
    assert!(util <= 1.0);
}

#[test]
fn preemptions_occur_under_contention() {
    let t = small_run(15, 17);
    let preempted = t
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::Preempted)
        .count();
    assert!(preempted > 0, "no preemptions in a congested cluster");
    // Preempted records carry their preemptor.
    assert!(t
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::Preempted)
        .all(|r| r.preempted_by.is_some()));
}

#[test]
fn timeouts_and_cancels_appear() {
    let t = small_run(15, 19);
    let statuses: Vec<JobStatus> = t.jobs().iter().map(|r| r.status).collect();
    assert!(statuses.contains(&JobStatus::Timeout));
    assert!(statuses.contains(&JobStatus::Cancelled));
}

#[test]
fn lemon_nodes_fail_more() {
    let mut config = SimConfig::small_test_cluster();
    config.lemon_count = 4;
    let lemon_ids: Vec<_> = config.planted_lemons(23).node_ids();
    assert_eq!(lemon_ids.len(), 4);
    let mut sim = ClusterSim::new(config, 23);
    sim.run(SimDuration::from_days(45));
    let t = sim.into_telemetry();
    let lemon_failures = t
        .ground_truth_failures()
        .iter()
        .filter(|f| lemon_ids.contains(&f.node))
        .count() as f64
        / lemon_ids.len() as f64;
    let other_failures = t
        .ground_truth_failures()
        .iter()
        .filter(|f| !lemon_ids.contains(&f.node))
        .count() as f64
        / (64 - lemon_ids.len()) as f64;
    assert!(
        lemon_failures > 3.0 * other_failures,
        "lemons {lemon_failures}/node vs healthy {other_failures}/node"
    );
}

/// The planted lemon node ids of (config, seed).
fn planted_ids(config: SimConfig, seed: u64) -> Vec<u32> {
    config
        .planted_lemons(seed)
        .node_ids()
        .iter()
        .map(|n| n.index())
        .collect()
}

#[test]
fn planted_lemons_are_pinned() {
    let mut small = SimConfig::small_test_cluster();
    small.lemon_count = 4;
    assert_eq!(planted_ids(small, 23), [6, 17, 58, 55]);

    // `lemon_eval`'s scenario: RSC-1 at 1/4 scale, residual base rates,
    // 24 lemons, the figure seed.
    let mut eval = SimConfig::rsc1().scaled_down(4);
    eval.modes = eval.modes.scaled_rates(0.35);
    eval.lemon_count = 24;
    assert_eq!(
        planted_ids(eval, 20_250_301),
        [
            454, 446, 44, 370, 243, 509, 427, 460, 423, 408, 426, 137, 130, 59, 212, 281, 360, 249,
            348, 433, 342, 213, 258, 507
        ]
    );
}

#[test]
fn run_extends_incrementally() {
    let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 29);
    sim.run(SimDuration::from_days(2));
    let after2 = sim.run(SimDuration::from_days(2)).jobs().len();
    let mut sim2 = ClusterSim::new(SimConfig::small_test_cluster(), 29);
    let straight4 = sim2.run(SimDuration::from_days(4)).jobs().len();
    assert_eq!(after2, straight4);
}

#[test]
fn attached_observer_leaves_telemetry_byte_identical() {
    use rsc_sim::bus::{CountingObserver, SharedObserver};
    use rsc_telemetry::snapshot::write_snapshot;

    let baseline = small_run(5, 31).seal();

    let handle = SharedObserver::new(CountingObserver::default());
    let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 31);
    sim.attach_observer(Box::new(handle.clone()));
    sim.run(SimDuration::from_days(5));
    let observed = sim.into_telemetry().seal();

    let mut a = Vec::new();
    let mut b = Vec::new();
    write_snapshot(&mut a, &baseline).unwrap();
    write_snapshot(&mut b, &observed).unwrap();
    assert_eq!(a, b, "observer changed the serialized telemetry");
}

#[test]
fn observer_sees_consistent_event_counts() {
    use rsc_sim::bus::{CountingObserver, SharedObserver};

    let handle = SharedObserver::new(CountingObserver::default());
    let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 37);
    sim.attach_observer(Box::new(handle.clone()));
    sim.run(SimDuration::from_days(5));
    let view = sim.into_telemetry().seal();
    let counts = handle.with(|c| *c);

    assert_eq!(counts.jobs as usize, view.jobs().len());
    assert_eq!(counts.health as usize, view.health_events().len());
    assert_eq!(counts.node as usize, view.node_events().len());
    assert_eq!(counts.exclusions as usize, view.exclusions().len());
    assert_eq!(
        counts.ground_truth as usize,
        view.ground_truth_failures().len()
    );
    assert_eq!(counts.ckpt_fallbacks as usize, view.ckpt_fallbacks().len());
    // A D-day run sweeps at days 1..D-1: the driver's loop exits before
    // the sweep scheduled exactly at the horizon fires.
    assert_eq!(counts.ticks, 4);
    assert!(counts.jobs > 0 && counts.health > 0);
}
