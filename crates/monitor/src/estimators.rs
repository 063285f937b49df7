//! The monitor's own estimators, fed one event at a time.
//!
//! The exact readouts are not computed here: cumulative MTTF points, the
//! status-only failure rate, availability, MTTR and lost node-days, and the
//! lemon features are `rsc-core` folds ([`MttfBuckets`],
//! [`rsc_core::mttf::StreamingFailureRate`], [`RemediationVisits`],
//! [`rsc_core::lemon::WindowedLemon`]) that the batch analyses run over a
//! sealed view too, so streaming equals batch by construction. What stays
//! here is what only an online consumer needs: arrival-order running
//! totals, a rolling window, log-bucketed histograms, the detection-latency
//! matcher and the event counters. Each works in O(1) amortized time per
//! event and bounded memory.

use std::collections::{BTreeMap, HashMap, VecDeque};

use rsc_cluster::ids::NodeId;
use rsc_core::attribution::is_failure_status;
use rsc_core::availability::{AvailabilitySnapshot, RemediationVisits};
use rsc_core::mttf::{MttfBuckets, MttfPoint};
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::JobStatus;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::NodeEvent;

/// Cumulative MTTF per job-size bucket: the [`MttfBuckets`] fold that
/// [`rsc_core::mttf::mttf_by_job_size`] runs with
/// `FailureScope::AllFailures`, plus fleet-wide running totals.
///
/// The totals add each record's hours in arrival order, not bucket by
/// bucket, and set the MTTF-regression alert's threshold.
#[derive(Debug, Clone, Default)]
pub struct StreamingMttf {
    buckets: MttfBuckets,
    total_failures: u64,
    total_exposure_hours: f64,
}

impl StreamingMttf {
    /// An empty estimator.
    pub fn new() -> Self {
        StreamingMttf::default()
    }

    /// Folds one terminal job record in.
    pub fn observe(&mut self, r: &JobRecord) {
        let failed = is_failure_status(r.status);
        self.buckets.observe(r, failed);
        if r.started_at.is_none() {
            return;
        }
        self.total_exposure_hours += r.runtime().as_hours();
        if failed {
            self.total_failures += 1;
        }
    }

    /// Current per-bucket estimates over the records observed so far.
    pub fn points(&self) -> Vec<MttfPoint> {
        self.buckets.points()
    }

    /// Fleet-wide cumulative MTTF across all buckets, hours
    /// (`∞` before the first failure).
    pub fn overall_mttf_hours(&self) -> f64 {
        if self.total_failures == 0 {
            f64::INFINITY
        } else {
            self.total_exposure_hours / self.total_failures as f64
        }
    }

    /// Total failures folded in.
    pub fn total_failures(&self) -> u64 {
        self.total_failures
    }
}

/// A rolling-window MTTF estimate with a moment-based confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollingMttfEstimate {
    /// Failures inside the window.
    pub failures: u64,
    /// Exposure hours inside the window.
    pub exposure_hours: f64,
    /// Point estimate, hours (`∞` with zero failures).
    pub mttf_hours: f64,
    /// 90% moment-based interval on the MTTF, hours. Treating the window's
    /// failure count as Poisson, the rate `n/T` has standard deviation
    /// `√n/T`; the MTTF bounds are the reciprocals of `rate ∓ z·sd`.
    /// `None` with zero failures.
    pub ci90: Option<(f64, f64)>,
}

/// Fleet MTTF over a trailing window of job endings, for regression
/// detection. Entries are keyed on `ended_at` and evicted at each tick.
#[derive(Debug, Clone)]
pub struct RollingMttf {
    window: SimDuration,
    entries: VecDeque<(SimTime, bool, f64)>,
    failures: u64,
    exposure_hours: f64,
}

impl RollingMttf {
    /// An empty window of the given width.
    pub fn new(window: SimDuration) -> Self {
        RollingMttf {
            window,
            entries: VecDeque::new(),
            failures: 0,
            exposure_hours: 0.0,
        }
    }

    /// Folds one terminal job record in.
    pub fn observe(&mut self, r: &JobRecord) {
        if r.started_at.is_none() {
            return;
        }
        let failed = is_failure_status(r.status);
        let hours = r.runtime().as_hours();
        self.entries.push_back((r.ended_at, failed, hours));
        self.exposure_hours += hours;
        if failed {
            self.failures += 1;
        }
    }

    /// Drops entries older than the window behind `now`.
    pub fn evict(&mut self, now: SimTime) {
        while let Some(&(at, failed, hours)) = self.entries.front() {
            if now.saturating_since(at) <= self.window {
                break;
            }
            self.entries.pop_front();
            self.exposure_hours -= hours;
            if failed {
                self.failures -= 1;
            }
        }
    }

    /// The current windowed estimate, `None` while the window has no
    /// exposure.
    pub fn estimate(&self) -> Option<RollingMttfEstimate> {
        if self.exposure_hours <= 0.0 {
            return None;
        }
        let n = self.failures;
        let t = self.exposure_hours;
        let mttf_hours = if n > 0 { t / n as f64 } else { f64::INFINITY };
        let ci90 = if n > 0 {
            const Z90: f64 = 1.6448536269514722;
            let rate = n as f64 / t;
            let sd = (n as f64).sqrt() / t;
            let hi_rate = rate + Z90 * sd;
            let lo_rate = (rate - Z90 * sd).max(0.0);
            let upper = if lo_rate > 0.0 {
                1.0 / lo_rate
            } else {
                f64::INFINITY
            };
            Some((1.0 / hi_rate, upper))
        } else {
            None
        };
        Some(RollingMttfEstimate {
            failures: n,
            exposure_hours: t,
            mttf_hours,
            ci90,
        })
    }
}

/// A log-linear histogram: power-of-two octaves split into 16 linear
/// sub-buckets, giving ≈ 4.4% relative resolution over any positive range
/// in O(octaves × 16) memory. Used for time-to-detect and time-to-repair
/// distributions where the batch side keeps every sample.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    counts: BTreeMap<i32, u64>,
    zeros: u64,
    total: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    const SUBS: f64 = 16.0;

    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one non-negative sample (zero and negative values land in a
    /// dedicated underflow bucket).
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x > 0.0 && x.is_finite() {
            self.sum += x;
            self.max = self.max.max(x);
            let idx = (x.log2() * Self::SUBS).floor() as i32;
            *self.counts.entry(idx).or_insert(0) += 1;
        } else {
            self.zeros += 1;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the positive samples (exact — the sum is kept aside).
    pub fn mean(&self) -> f64 {
        let positive = self.total - self.zeros;
        if positive == 0 {
            return 0.0;
        }
        self.sum / positive as f64
    }

    /// Largest sample seen.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The representative value of the sample at 0-indexed sorted `rank`:
    /// zero for underflow samples, the geometric midpoint of the sample's
    /// log bucket otherwise (relative error bounded by the sub-bucket
    /// width, ≈ 4.4%).
    fn value_at(&self, rank: u64) -> f64 {
        if rank < self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&idx, &n) in &self.counts {
            seen += n;
            if rank < seen {
                return 2f64.powf((idx as f64 + 0.5) / Self::SUBS);
            }
        }
        self.max
    }

    /// Approximate `q`-quantile, `None` when empty.
    ///
    /// Uses the same linearly-interpolated (type-7) convention as
    /// [`rsc_sim_core::stats::quantile_sorted`] so the two agree up to
    /// bucket quantization of the endpoints (≈ 4.4% each) — without this,
    /// rank-convention differences dwarf bucket error on small,
    /// heavy-tailed samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let pos = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let lo = self.value_at(pos.floor() as u64);
        let hi = self.value_at(pos.ceil() as u64);
        Some(lo + (hi - lo) * (pos - pos.floor()))
    }
}

/// Fleet availability from the node lifecycle stream: the
/// [`RemediationVisits`] fold that
/// [`rsc_core::availability::fleet_availability`] runs, plus a
/// time-to-repair histogram for the 90th percentile.
#[derive(Debug, Clone)]
pub struct StreamingAvailability {
    visits: RemediationVisits,
    ttr: LogHistogram,
}

impl StreamingAvailability {
    /// An estimator for a fleet of `num_nodes`.
    pub fn new(num_nodes: u32) -> Self {
        StreamingAvailability {
            visits: RemediationVisits::new(num_nodes),
            ttr: LogHistogram::new(),
        }
    }

    /// Folds one node lifecycle event in.
    pub fn observe(&mut self, e: &NodeEvent) {
        if let Some(d) = self.visits.observe(e) {
            self.ttr.record(d.as_hours());
        }
    }

    /// Snapshot at `now`, charging open intervals up to `now`; the p90
    /// repair time comes from the log histogram.
    pub fn snapshot(&self, now: SimTime) -> AvailabilitySnapshot {
        self.visits
            .snapshot(now, self.ttr.quantile(0.90).unwrap_or(0.0))
    }

    /// The time-to-repair histogram (completed visits, hours).
    pub fn ttr_histogram(&self) -> &LogHistogram {
        &self.ttr
    }
}

/// Matches ground-truth failure injections to their first subsequent real
/// health detection on the same node, feeding a time-to-detect histogram.
///
/// Only the validation side of the simulation can do this (production has
/// no ground truth); the monitor uses it to report detection latency the
/// same way the paper's Table I discusses detection coverage.
#[derive(Debug, Clone, Default)]
pub struct DetectionLatency {
    pending: HashMap<NodeId, SimTime>,
    hist: LogHistogram,
    injected: u64,
    matched: u64,
}

impl DetectionLatency {
    /// An empty matcher.
    pub fn new() -> Self {
        DetectionLatency::default()
    }

    /// Records a ground-truth failure on `node` at `at`. A node with an
    /// undetected earlier failure keeps the earlier timestamp.
    pub fn observe_ground_truth(&mut self, node: NodeId, at: SimTime) {
        self.injected += 1;
        self.pending.entry(node).or_insert(at);
    }

    /// Records a real (non-false-positive) health detection.
    pub fn observe_detection(&mut self, node: NodeId, at: SimTime) {
        if let Some(t0) = self.pending.remove(&node) {
            self.matched += 1;
            self.hist.record(at.saturating_since(t0).as_hours());
        }
    }

    /// Ground-truth failures seen.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Failures matched to a detection.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// The time-to-detect histogram, hours.
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }
}

/// Exact run counters, updated once per event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Terminal job records seen.
    pub jobs: u64,
    /// Of those, records that actually started.
    pub jobs_started: u64,
    /// COMPLETED endings.
    pub completed: u64,
    /// FAILED endings.
    pub failed: u64,
    /// NODE_FAIL endings.
    pub node_fail: u64,
    /// REQUEUED endings.
    pub requeued: u64,
    /// Preempted endings.
    pub preempted: u64,
    /// Cancelled / OOM / timeout endings.
    pub other: u64,
    /// GPU-hours of runtime across all records.
    pub gpu_hours: f64,
    /// Health events (including false positives).
    pub health_events: u64,
    /// False-positive health events.
    pub false_positives: u64,
    /// Node lifecycle events.
    pub node_events: u64,
    /// Nodes quarantined.
    pub quarantined: u64,
    /// User exclusions.
    pub exclusions: u64,
    /// Ground-truth failure injections.
    pub ground_truth: u64,
    /// Checkpoint-fallback events.
    pub ckpt_fallbacks: u64,
    /// GPU-hours of productive work discarded by checkpoint fallbacks.
    pub fallback_lost_gpu_hours: f64,
    /// Control-plane actions (accepted or budget-rejected).
    pub control_actions: u64,
    /// Daily ticks received.
    pub ticks: u64,
}

impl Counters {
    /// Folds one terminal job record in.
    pub fn observe_job(&mut self, r: &JobRecord) {
        self.jobs += 1;
        if r.started_at.is_some() {
            self.jobs_started += 1;
        }
        self.gpu_hours += r.runtime().as_hours() * r.gpus as f64;
        match r.status {
            JobStatus::Completed => self.completed += 1,
            JobStatus::Failed => self.failed += 1,
            JobStatus::NodeFail => self.node_fail += 1,
            JobStatus::Requeued => self.requeued += 1,
            JobStatus::Preempted => self.preempted += 1,
            JobStatus::Cancelled | JobStatus::OutOfMemory | JobStatus::Timeout => self.other += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::JobId;
    use rsc_sched::job::QosClass;
    use rsc_telemetry::store::NodeEventKind;

    fn record(gpus: u32, hours: u64, status: JobStatus) -> JobRecord {
        JobRecord {
            job: JobId::new(1),
            attempt: 0,
            run: None,
            gpus,
            qos: QosClass::Normal,
            nodes: (0..gpus.div_ceil(8)).map(NodeId::new).collect(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            ended_at: SimTime::from_hours(hours),
            status,
            preempted_by: None,
            instigator: None,
        }
    }

    #[test]
    fn streaming_mttf_buckets_and_rates() {
        let mut m = StreamingMttf::new();
        m.observe(&record(8, 100, JobStatus::Completed));
        m.observe(&record(8, 100, JobStatus::NodeFail));
        let points = m.points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].gpus, 8);
        assert_eq!(points[0].failures, 1);
        assert!((points[0].mttf_hours - 200.0).abs() < 1e-9);
        assert!((m.overall_mttf_hours() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn rolling_mttf_evicts() {
        let mut r = RollingMttf::new(SimDuration::from_days(1));
        let mut rec = record(8, 10, JobStatus::NodeFail);
        rec.ended_at = SimTime::from_hours(10);
        r.observe(&rec);
        assert_eq!(r.estimate().unwrap().failures, 1);
        r.evict(SimTime::from_days(3));
        assert!(r.estimate().is_none());
    }

    #[test]
    fn rolling_ci_brackets_point() {
        let mut r = RollingMttf::new(SimDuration::from_days(365));
        for i in 0..25u64 {
            let mut rec = record(8, 40, JobStatus::NodeFail);
            rec.ended_at = SimTime::from_hours(40 * (i + 1));
            r.observe(&rec);
        }
        let est = r.estimate().unwrap();
        let (lo, hi) = est.ci90.unwrap();
        assert!(lo < est.mttf_hours && est.mttf_hours < hi, "{lo} {hi}");
    }

    #[test]
    fn log_histogram_quantiles_are_close() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p90 = h.quantile(0.9).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.06, "{p50}");
        assert!((p90 - 900.0).abs() / 900.0 < 0.06, "{p90}");
        assert!((h.mean() - 500.5).abs() < 1e-6);
    }

    #[test]
    fn availability_pairs_visits() {
        let mut a = StreamingAvailability::new(4);
        let ev = |node, at_h, kind| NodeEvent {
            node: NodeId::new(node),
            at: SimTime::from_hours(at_h),
            kind,
        };
        a.observe(&ev(1, 10, NodeEventKind::EnterRemediation));
        a.observe(&ev(1, 14, NodeEventKind::ExitRemediation));
        a.observe(&ev(2, 90, NodeEventKind::EnterRemediation));
        let snap = a.snapshot(SimTime::from_hours(100));
        assert_eq!(snap.completed_repairs, 1);
        assert_eq!(snap.open_intervals, 1);
        assert!((snap.mttr_hours - 4.0).abs() < 1e-12);
        // 4 h + 10 h open = 14 h lost over 400 node-hours.
        assert!((snap.fleet_availability - (1.0 - 14.0 / 400.0)).abs() < 1e-12);
    }

    #[test]
    fn detection_latency_matches_first_detection() {
        let mut d = DetectionLatency::new();
        let n = NodeId::new(3);
        d.observe_ground_truth(n, SimTime::from_hours(10));
        d.observe_detection(n, SimTime::from_hours(12));
        d.observe_detection(n, SimTime::from_hours(13)); // no pending: ignored
        assert_eq!(d.matched(), 1);
        assert!((d.histogram().mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn counters_split_by_status() {
        let mut c = Counters::default();
        c.observe_job(&record(8, 10, JobStatus::Completed));
        c.observe_job(&record(8, 10, JobStatus::Requeued));
        c.observe_job(&record(8, 10, JobStatus::Cancelled));
        assert_eq!((c.jobs, c.completed, c.requeued, c.other), (3, 1, 1, 1));
        assert!((c.gpu_hours - 240.0).abs() < 1e-9);
    }
}
