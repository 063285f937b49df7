//! End-to-end: simulate → export trace CSV → re-import → analyses agree.
//!
//! This is the adoption path for real clusters (convert `sacct` output to
//! the trace schema, run the toolkit), so the invariant that analyses are
//! unchanged across the serialization boundary matters.

use std::io::BufReader;

use rsc_reliability::analysis::cluster_goodput::utilization;
use rsc_reliability::analysis::ettr::jobrun::reconstruct_job_runs;
use rsc_reliability::analysis::queueing::mean_wait_hours;
use rsc_reliability::analysis::report::{size_distribution, status_breakdown};
use rsc_reliability::sim::{ClusterSim, ScenarioSpec, SimConfig};
use rsc_reliability::simcore::time::SimDuration;
use rsc_reliability::telemetry::store::TelemetryStore;
use rsc_reliability::telemetry::trace::{export_jobs, import_jobs};

#[test]
fn analyses_survive_trace_serialization() {
    let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 314);
    sim.run(SimDuration::from_days(14));
    let original = sim.into_telemetry().seal();

    // Round-trip the job records through the CSV schema.
    let mut buf = Vec::new();
    export_jobs(&mut buf, original.jobs()).expect("in-memory export");
    let records = import_jobs(BufReader::new(buf.as_slice())).expect("reimport");
    assert_eq!(records.len(), original.jobs().len());

    let mut reloaded = TelemetryStore::new("reloaded", original.num_nodes());
    reloaded.extend_jobs(records);
    reloaded.set_horizon(original.horizon());
    let reloaded = reloaded.seal();

    // Job-level analyses must agree exactly.
    let a = status_breakdown(&original);
    let b = status_breakdown(&reloaded);
    assert_eq!(a, b);

    let sa = size_distribution(&original);
    let sb = size_distribution(&reloaded);
    assert_eq!(sa, sb);

    assert!((mean_wait_hours(&original) - mean_wait_hours(&reloaded)).abs() < 1e-12);

    let runs_a = reconstruct_job_runs(&original);
    let runs_b = reconstruct_job_runs(&reloaded);
    assert_eq!(runs_a, runs_b);
}

#[test]
fn quotas_bind_in_full_simulation() {
    use rsc_reliability::sched::project::{ProjectId, ProjectQuotas};

    // Give every project a tiny quota and watch utilization collapse:
    // quota enforcement must flow through the whole stack.
    let mut config = SimConfig::small_test_cluster();
    let mut quotas = ProjectQuotas::unlimited();
    for p in 0..12 {
        quotas.set(ProjectId::new(p), 8); // one node each, 12×8 = 96 of 512 GPUs
    }
    config.quotas = quotas;
    let view = ScenarioSpec::new(config, 99, 5).simulate();
    let util = utilization(&view, 8);
    assert!(
        util < 0.35,
        "quotas capping 96/512 GPUs should depress utilization, got {util}"
    );
}
