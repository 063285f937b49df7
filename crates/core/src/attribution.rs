//! Failure attribution by differential diagnosis.
//!
//! Implements the paper's method (§III): a job failure is attributed to a
//! hardware cause if a critical health check fired on one of its nodes
//! within the last 10 minutes of the job's lifetime or 5 minutes after it.
//! When several checks fire (they deliberately overlap), the most specific
//! cause wins; NODE_FAILs with no matching events stay *unattributed*.
//!
//! All functions take a sealed [`TelemetryView`] — window queries are
//! `&self` binary searches, so any number of analyses can share one run.

use std::collections::HashMap;

use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::check::CheckKind;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::JobStatus;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::view::TelemetryView;

/// Attribution window parameters (paper defaults: 10 min before the end of
/// the job, 5 min after).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributionConfig {
    /// How far before job end to look for health events.
    pub window_before: SimDuration,
    /// How far after job end to look.
    pub window_after: SimDuration,
}

impl AttributionConfig {
    /// The paper's 10-minute / 5-minute window.
    pub fn paper_default() -> Self {
        AttributionConfig {
            window_before: SimDuration::from_mins(10),
            window_after: SimDuration::from_mins(5),
        }
    }
}

impl Default for AttributionConfig {
    fn default() -> Self {
        AttributionConfig::paper_default()
    }
}

/// The outcome of attributing one failed job.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Index of the job record in the store.
    pub record_index: usize,
    /// The most likely hardware cause, if any check fired in the window.
    pub cause: Option<FailureSymptom>,
    /// Every check that fired in the window (overlap is expected).
    pub checks: Vec<CheckKind>,
}

impl Attribution {
    /// Whether this failure was attributed to hardware infrastructure.
    pub fn is_attributed(&self) -> bool {
        self.cause.is_some()
    }
}

/// Whether a record counts as an *infrastructure-interrupted* job ending:
/// NODE_FAIL (heartbeat loss), REQUEUED (health-check kill), or FAILED
/// (which needs a health event in the window to count as hardware).
pub fn is_failure_status(status: JobStatus) -> bool {
    matches!(
        status,
        JobStatus::Failed | JobStatus::NodeFail | JobStatus::Requeued
    )
}

/// Whether an attributed record is an *infrastructure* failure:
/// NODE_FAIL and REQUEUED always, FAILED only with a health-check cause.
pub fn is_infra_failure(status: JobStatus, attribution: &Attribution) -> bool {
    matches!(status, JobStatus::NodeFail | JobStatus::Requeued)
        || (status == JobStatus::Failed && attribution.is_attributed())
}

/// Ranking used to pick the primary cause when several checks fire:
/// specific hardware checks dominate generic/secondary ones.
fn check_specificity(check: CheckKind) -> u8 {
    match check {
        CheckKind::IbLink => 10,
        CheckKind::FsMount => 10,
        CheckKind::GpuMemory => 9,
        CheckKind::NvLink => 9,
        CheckKind::HostMemory => 9,
        CheckKind::EthLink => 8,
        CheckKind::BlockDevice => 8,
        CheckKind::PcieLink => 7,
        CheckKind::GpuAccessible => 6,
        CheckKind::GpuDriver => 5,
        CheckKind::Services => 4,
        CheckKind::Ipmi => 2,
    }
}

/// The cause of the most specific fired check (the last of equally
/// specific ones), or `None` when no check fired.
pub fn primary_cause(checks: &[CheckKind]) -> Option<FailureSymptom> {
    checks
        .iter()
        .max_by_key(|&&c| check_specificity(c))
        .map(|&c| c.symptom())
}

/// Attributes every failure-status record in a sealed telemetry view.
///
/// Returns one [`Attribution`] per record with a failure status
/// (FAILED / NODE_FAIL / REQUEUED), in record order. Pure user failures
/// come back unattributed, as they should.
///
/// Most windows hold no health event on any node, so one binary search
/// over every event time, sorted once per call, decides whether a record
/// needs its per-node lookups at all. A window that holds no event
/// cluster-wide holds none on the job's nodes, so the skip changes no
/// result.
pub fn attribute_failures(view: &TelemetryView, config: &AttributionConfig) -> Vec<Attribution> {
    let mut times: Vec<SimTime> = view.health_events().iter().map(|e| e.at).collect();
    times.sort_unstable();
    let mut out = Vec::new();
    for (index, record) in view.jobs().iter().enumerate() {
        if !is_failure_status(record.status) {
            continue;
        }
        let from = record.ended_at - config.window_before;
        let to = record.ended_at + config.window_after;
        let mut checks: Vec<CheckKind> = Vec::new();
        let first = times.partition_point(|&t| t < from);
        if times.get(first).is_some_and(|&t| t <= to) {
            for &node in &record.nodes {
                for event in view.health_events_for_node(node, from, to) {
                    if !checks.contains(&event.check) {
                        checks.push(event.check);
                    }
                }
            }
        }
        out.push(Attribution {
            record_index: index,
            cause: primary_cause(&checks),
            checks,
        });
    }
    out
}

/// Per-cause failure rates normalized by total GPU-hours (paper Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct CauseRates {
    /// `(cause, failures per GPU-hour)`, descending by rate, equal rates in
    /// cause order. `None` is the unattributed bucket.
    pub rates: Vec<(Option<FailureSymptom>, f64)>,
    /// Total GPU-hours of runtime in the store (the denominator).
    pub total_gpu_hours: f64,
}

/// Computes Fig. 4: attributed hardware failure rates per GPU-hour.
///
/// Only NODE_FAIL/REQUEUED records and FAILED records *with* an attribution
/// count as hardware failures; FAILED without any health event in the
/// window is treated as a user failure and skipped.
pub fn cause_rates(view: &TelemetryView, config: &AttributionConfig) -> CauseRates {
    let attributions = attribute_failures(view, config);
    let total_gpu_hours: f64 = view.jobs().iter().map(|r| r.gpu_time().as_hours()).sum();
    let mut counts: HashMap<Option<FailureSymptom>, u64> = HashMap::new();
    for a in &attributions {
        if is_infra_failure(view.jobs()[a.record_index].status, a) {
            *counts.entry(a.cause).or_insert(0) += 1;
        }
    }
    let mut rates: Vec<(Option<FailureSymptom>, f64)> = counts
        .into_iter()
        .map(|(cause, n)| (cause, n as f64 / total_gpu_hours.max(f64::MIN_POSITIVE)))
        .collect();
    // Equal rates go in cause order, not in the map's per-process order.
    rates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    CauseRates {
        rates,
        total_gpu_hours,
    }
}

/// Validation against ground truth: the fraction of hardware-interrupted
/// records whose attributed cause matches the symptom of a ground-truth
/// failure injected on one of the job's nodes within the window.
pub fn attribution_accuracy(view: &TelemetryView, config: &AttributionConfig) -> f64 {
    let attributions = attribute_failures(view, config);
    let mut checked = 0u64;
    let mut correct = 0u64;
    for a in &attributions {
        let Some(cause) = a.cause else { continue };
        let record: &JobRecord = &view.jobs()[a.record_index];
        let from = record.ended_at - config.window_before - SimDuration::from_mins(10);
        let to = record.ended_at + config.window_after;
        let truth = view
            .ground_truth_failures()
            .iter()
            .find(|f| record.nodes.contains(&f.node) && f.at >= from && f.at <= to);
        if let Some(truth) = truth {
            checked += 1;
            // Co-occurrence makes some cross-attribution legitimate (PCIe ↔
            // GPU-off-bus); count symptom-family matches.
            if same_family(cause, truth.symptom) {
                correct += 1;
            }
        }
    }
    if checked == 0 {
        return 0.0;
    }
    correct as f64 / checked as f64
}

/// Whether two symptoms belong to the same co-occurrence family.
fn same_family(a: FailureSymptom, b: FailureSymptom) -> bool {
    use FailureSymptom::*;
    if a == b {
        return true;
    }
    let bus = [PcieError, GpuUnavailable, GpuMemoryError];
    bus.contains(&a) && bus.contains(&b)
}

/// The paper's check-calibration property (§II-C): the fraction of
/// **successfully completed** jobs that observed a failed health check on
/// one of their nodes while running. Production tuning keeps this under
/// 1%; values above that suggest checks are firing spuriously (or the
/// workload is colliding with real failures it happens to survive).
pub fn completed_jobs_seeing_checks(view: &TelemetryView) -> f64 {
    let mut total = 0u64;
    let mut observed = 0u64;
    for r in view.jobs() {
        if r.status != JobStatus::Completed {
            continue;
        }
        let Some(start) = r.started_at else { continue };
        total += 1;
        let hit = r.nodes.iter().any(|&n| {
            view.health_events_for_node(n, start, r.ended_at)
                .next()
                .is_some()
        });
        if hit {
            observed += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    observed as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, NodeId};
    use rsc_failure::modes::Severity;
    use rsc_health::monitor::HealthEvent;
    use rsc_sched::job::QosClass;
    use rsc_telemetry::TelemetryStore;

    fn record(id: u64, status: JobStatus, node: u32, end_hours: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(id),
            attempt: 0,
            run: None,
            gpus: 8,
            qos: QosClass::Normal,
            nodes: vec![NodeId::new(node)].into(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::from_hours(1)),
            ended_at: SimTime::from_hours(end_hours),
            status,
            preempted_by: None,
            instigator: None,
        }
    }

    fn health(node: u32, at: SimTime, check: CheckKind) -> HealthEvent {
        HealthEvent {
            at,
            node: NodeId::new(node),
            check,
            severity: Severity::High,
            signal: None,
            false_positive: false,
        }
    }

    #[test]
    fn failed_job_with_check_in_window_is_attributed() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::Failed, 2, 10));
        // Check fires 5 minutes before job end.
        store.push(health(
            2,
            SimTime::from_hours(10) - SimDuration::from_mins(5),
            CheckKind::IbLink,
        ));
        let view = store.seal();
        let atts = attribute_failures(&view, &AttributionConfig::paper_default());
        assert_eq!(atts.len(), 1);
        assert_eq!(atts[0].cause, Some(FailureSymptom::InfinibandLink));
    }

    #[test]
    fn check_outside_window_does_not_attribute() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::Failed, 2, 10));
        store.push(health(
            2,
            SimTime::from_hours(10) - SimDuration::from_mins(30),
            CheckKind::IbLink,
        ));
        let view = store.seal();
        let atts = attribute_failures(&view, &AttributionConfig::paper_default());
        assert!(!atts[0].is_attributed());
    }

    #[test]
    fn check_on_other_node_does_not_attribute() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::NodeFail, 2, 10));
        store.push(health(3, SimTime::from_hours(10), CheckKind::IbLink));
        let view = store.seal();
        let atts = attribute_failures(&view, &AttributionConfig::paper_default());
        assert!(!atts[0].is_attributed());
    }

    #[test]
    fn most_specific_check_wins() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::Requeued, 2, 10));
        let at = SimTime::from_hours(10);
        store.push(health(2, at, CheckKind::Ipmi));
        store.push(health(2, at, CheckKind::PcieLink));
        store.push(health(2, at, CheckKind::GpuAccessible));
        let view = store.seal();
        let atts = attribute_failures(&view, &AttributionConfig::paper_default());
        assert_eq!(atts[0].cause, Some(FailureSymptom::PcieError));
        assert_eq!(atts[0].checks.len(), 3);
    }

    #[test]
    fn completed_jobs_are_not_attributed() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::Completed, 2, 10));
        let view = store.seal();
        let atts = attribute_failures(&view, &AttributionConfig::paper_default());
        assert!(atts.is_empty());
    }

    #[test]
    fn cause_rates_skip_unattributed_user_failures() {
        let mut store = TelemetryStore::new("t", 4);
        // A user failure (no events) and a hardware NODE_FAIL.
        store.push(record(1, JobStatus::Failed, 1, 10));
        store.push(record(2, JobStatus::NodeFail, 2, 12));
        let view = store.seal();
        let rates = cause_rates(&view, &AttributionConfig::paper_default());
        // Only the NODE_FAIL shows up (as unattributed).
        let total: f64 = rates.rates.iter().map(|(_, r)| r).sum();
        assert!(total > 0.0);
        assert_eq!(rates.rates.len(), 1);
        assert_eq!(rates.rates[0].0, None);
    }

    #[test]
    fn calibration_counts_completed_jobs_with_events() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::Completed, 1, 10));
        store.push(record(2, JobStatus::Completed, 2, 10));
        store.push(record(3, JobStatus::Failed, 3, 10)); // not counted
                                                         // An event during job 1's runtime only.
        store.push(health(1, SimTime::from_hours(5), CheckKind::EthLink));
        let view = store.seal();
        let frac = completed_jobs_seeing_checks(&view);
        assert!((frac - 0.5).abs() < 1e-9, "{frac}");
    }

    #[test]
    fn calibration_zero_without_events() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, JobStatus::Completed, 1, 10));
        let view = store.seal();
        assert_eq!(completed_jobs_seeing_checks(&view), 0.0);
    }

    #[test]
    fn family_matching() {
        assert!(same_family(
            FailureSymptom::PcieError,
            FailureSymptom::GpuUnavailable
        ));
        assert!(!same_family(
            FailureSymptom::PcieError,
            FailureSymptom::InfinibandLink
        ));
    }
}
