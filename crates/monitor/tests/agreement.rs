//! Streaming-vs-batch agreement harness.
//!
//! One simulated run, two analyses: the `rsc-monitor` streaming
//! estimators fed live over the event bus, and the `rsc-core` batch
//! analyses over the sealed telemetry view. The exact rows run one
//! `rsc-core` fold both ways, so what this file checks is that the live
//! bus delivers every record to it. The contract this file pins:
//!
//! - **exact** — counters, cumulative per-bucket MTTF (values *and*
//!   confidence intervals), the status-only failure rate, the expected
//!   ETTR derived from it, fleet availability / MTTR / lost node-days,
//!   and (with un-windowed estimator windows) the lemon features;
//! - **tolerated** — log-histogram quantiles (p90 within the histogram's
//!   documented ~10% bucket resolution);
//! - **paths** — a live run and a cache-replayed run produce equal
//!   reports, field for field.

use rsc_core::availability::fleet_availability;
use rsc_core::lemon::compute_features;
use rsc_core::mttf::{estimate_status_only_failure_rate, mttf_by_job_size, FailureScope};
use rsc_core::AttributionConfig;
use rsc_monitor::config::MonitorConfig;
use rsc_monitor::monitor::ReliabilityMonitor;
use rsc_monitor::replay::replay_view;
use rsc_sim::bus::SharedObserver;
use rsc_sim::config::SimConfig;
use rsc_sim::runner::ScenarioSpec;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::view::TelemetryView;

const DAYS: u64 = 30;
const SEED: u64 = 20_250_301;

/// Runs the fixture scenario live with a monitor attached, returning the
/// monitor and the sealed view it observed.
fn live_monitored(config: MonitorConfig) -> (ReliabilityMonitor, TelemetryView) {
    let spec = ScenarioSpec::new(SimConfig::small_test_cluster(), SEED, DAYS);
    let handle = SharedObserver::new(ReliabilityMonitor::new(config));
    let view = spec.simulate_observed(Box::new(handle.clone()));
    let monitor = handle.try_into_inner().expect("sole handle");
    (monitor, view)
}

#[test]
fn counters_match_view_exactly() {
    let (monitor, view) = live_monitored(MonitorConfig::rsc_default());
    let c = monitor.counters();
    assert_eq!(c.jobs as usize, view.jobs().len());
    assert_eq!(c.health_events as usize, view.health_events().len());
    assert_eq!(c.node_events as usize, view.node_events().len());
    assert_eq!(c.exclusions as usize, view.exclusions().len());
    assert_eq!(c.ground_truth as usize, view.ground_truth_failures().len());
    assert_eq!(c.ckpt_fallbacks as usize, view.ckpt_fallbacks().len());
    assert_eq!(
        c.jobs_started as usize,
        view.jobs()
            .iter()
            .filter(|r| r.started_at.is_some())
            .count()
    );
    let gpu_hours: f64 = view
        .jobs()
        .iter()
        .map(|r| r.runtime().as_hours() * r.gpus as f64)
        .sum();
    assert_eq!(c.gpu_hours, gpu_hours);
    assert_eq!(monitor.gpu_swaps(), view.gpu_swaps());
    assert_eq!(monitor.horizon(), Some(view.horizon()));
    // The run produced enough signal for the harness to be meaningful.
    assert!(c.jobs > 100, "fixture too quiet: {} jobs", c.jobs);
    assert!(c.node_events > 0);
}

#[test]
fn streaming_mttf_equals_batch_bitwise() {
    let (monitor, view) = live_monitored(MonitorConfig::rsc_default());
    let batch = mttf_by_job_size(
        &view,
        FailureScope::AllFailures,
        &AttributionConfig::default(),
    );
    let streaming = monitor.mttf().points();
    // Bitwise equality: same fold order, same arithmetic, same CI math.
    assert_eq!(streaming, batch);
    assert!(!batch.is_empty());
}

#[test]
fn streaming_failure_rate_and_ettr_equal_batch() {
    let cfg = MonitorConfig::rsc_default();
    let min_gpus = cfg.min_gpus;
    let ref_job = cfg.ref_job;
    let (monitor, view) = live_monitored(cfg);
    let batch_rate = estimate_status_only_failure_rate(&view, min_gpus);
    assert_eq!(monitor.failure_rate().rate(), batch_rate);
    assert!(batch_rate > 0.0, "fixture produced no infra failures");

    let batch_ettr = rsc_core::expected_ettr(&ref_job.params(batch_rate));
    assert_eq!(monitor.expected_ettr(), Some(batch_ettr));
}

#[test]
fn streaming_availability_equals_batch() {
    let (monitor, view) = live_monitored(MonitorConfig::rsc_default());
    let batch = fleet_availability(&view);
    let snap = monitor.availability().snapshot(view.horizon());
    assert_eq!(snap.fleet_availability, batch.fleet_availability);
    assert_eq!(snap.mttr_hours, batch.mttr_hours);
    assert_eq!(snap.lost_node_days, batch.lost_node_days);
    assert!(snap.completed_repairs > 0);
    // p90 comes from the log-bucketed histogram: exact rank, quantized
    // value. The bucket midpoint is within ±4.4% of the true value; allow
    // 10% for headroom.
    let rel = (snap.mttr_p90_hours - batch.mttr_p90_hours).abs() / batch.mttr_p90_hours;
    assert!(
        rel < 0.10,
        "p90 drifted: streaming {} vs batch {}",
        snap.mttr_p90_hours,
        batch.mttr_p90_hours
    );
}

#[test]
fn unwindowed_lemon_features_equal_batch() {
    let (monitor, view) = live_monitored(MonitorConfig::unwindowed(DAYS));
    let batch = compute_features(&view, SimTime::ZERO, view.horizon());
    let streaming = monitor.lemon_features();
    assert_eq!(streaming, batch);
    // The fixture exercises at least one non-trivial signal.
    assert!(batch.iter().any(|f| f.tickets > 0 || f.out_count > 0));
}

#[test]
fn windowed_lemon_features_equal_batch_twin() {
    // The operational trailing-window view, with the window tightened to
    // 7 days over the 30-day run so it genuinely trims early-run signal
    // (the default 28-day window happens to cover every signal in this
    // fixture, which would make the vacuity check below meaningless).
    let mut config = MonitorConfig::rsc_default();
    config.lemon_window = SimDuration::from_days(7);
    let window = config.lemon_window;
    let (monitor, view) = live_monitored(config);
    let horizon = view.horizon();
    let twin = compute_features(&view, horizon - window, horizon);
    assert_eq!(monitor.lemon_features(), twin);
    // The window is not vacuous: the full-range pass disagrees, so the
    // trailing view really dropped early-run signal.
    let full = compute_features(&view, SimTime::ZERO, horizon);
    assert_ne!(twin, full);
    // A window covering the whole run degenerates to the full range
    // (the lower bound saturates at time zero).
    assert_eq!(
        compute_features(&view, horizon - SimDuration::from_days(DAYS), horizon),
        full
    );
}

#[test]
fn replayed_report_equals_live_report() {
    for config in [
        MonitorConfig::rsc_default(),
        MonitorConfig::unwindowed(DAYS),
    ] {
        let (live, view) = live_monitored(config.clone());
        let mut replayed = ReliabilityMonitor::new(config);
        replay_view(&view, &mut replayed);
        assert_eq!(live.report(), replayed.report());
    }
}

#[test]
fn detection_latency_is_bounded_and_matched() {
    let (monitor, view) = live_monitored(MonitorConfig::rsc_default());
    let d = monitor.detection();
    assert_eq!(d.injected() as usize, view.ground_truth_failures().len());
    assert!(d.matched() <= d.injected());
    assert!(d.matched() > 0, "no injected failure was ever detected");
    // Detection can't be instantaneous or absurdly slow in the fixture.
    let ttd = d.histogram();
    assert!(ttd.mean() > 0.0);
    assert!(ttd.max() < 24.0 * 7.0, "TTD beyond a week: {}", ttd.max());
}
