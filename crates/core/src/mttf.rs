//! Mean-time-to-failure estimation and projection (paper Fig. 7, Obs. 8).
//!
//! Empirical MTTF per job-size bucket, Gamma-posterior confidence
//! intervals, the node-failure-rate estimate `r_f`, and the theoretical
//! `MTTF = 1 / (N_nodes · r_f)` projection that the paper validates
//! against jobs up to 4k GPUs and extrapolates to 131k.

use rsc_sim_core::special::gamma_quantile;
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::view::TelemetryView;

use crate::attribution::{
    attribute_failures, is_failure_status, is_infra_failure, AttributionConfig,
};
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::JobStatus;

/// Which job endings count as failures for MTTF purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureScope {
    /// Every FAILED / NODE_FAIL / REQUEUED ending (Fig. 7's empirical
    /// curve: user and infra failures both interrupt training).
    AllFailures,
    /// Only infrastructure failures: NODE_FAIL, REQUEUED, and FAILED with a
    /// health-check attribution (the basis of `r_f`).
    InfraOnly,
}

/// MTTF estimate for one job-size bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfPoint {
    /// Bucket label: job size in GPUs (rounded up to a multiple of 8).
    pub gpus: u32,
    /// Number of failures observed.
    pub failures: u64,
    /// Total runtime across jobs in the bucket, hours.
    pub exposure_hours: f64,
    /// Point estimate of MTTF, hours (`exposure / failures`).
    pub mttf_hours: f64,
    /// 90% confidence interval on MTTF, hours (Gamma posterior on the
    /// rate). `None` when no failures were observed.
    pub ci90: Option<(f64, f64)>,
}

/// Rounds a GPU count up to the next multiple of 8 (whole servers), as the
/// paper does for Fig. 7. The seven counts above the largest multiple of
/// 8 that fits a `u32` saturate to `u32::MAX`.
pub fn round_up_to_server(gpus: u32) -> u32 {
    gpus.div_ceil(8).saturating_mul(8)
}

/// The largest size bucket: every size above 2^31 lands in it.
pub const TOP_SIZE_BUCKET: u32 = 1 << 31;

/// The power-of-two bucket of a size: the smallest power of two at or
/// above `n` (1 for 0), and [`TOP_SIZE_BUCKET`] for every `n` above it.
///
/// The one rule behind Fig. 7's [`power_of_two_bucket`], Fig. 8's
/// goodput-loss buckets and Fig. 9's ETTR buckets, total over `u32`: a
/// bucket is always a power of two, and a bucket's log2 indexes a
/// 32-slot array.
pub fn size_bucket(n: u32) -> u32 {
    n.checked_next_power_of_two().unwrap_or(TOP_SIZE_BUCKET)
}

/// Buckets job sizes into powers of two of servers: 8, 16, 32, ... GPUs,
/// up to [`TOP_SIZE_BUCKET`].
pub fn power_of_two_bucket(gpus: u32) -> u32 {
    size_bucket(round_up_to_server(gpus)).max(8)
}

/// Computes empirical MTTF per job-size bucket, ascending by size.
///
/// Exposure is each record's runtime; a record counts as a failure per the
/// scope. Buckets are powers of two in servers. Each bucket folds its
/// records' hours in record order.
pub fn mttf_by_job_size(
    view: &TelemetryView,
    scope: FailureScope,
    config: &AttributionConfig,
) -> Vec<MttfPoint> {
    let jobs = view.jobs();
    // Attributions come in record order, so the infra failures merge
    // with the record walk below.
    let attributions = match scope {
        FailureScope::AllFailures => Vec::new(),
        FailureScope::InfraOnly => attribute_failures(view, config),
    };
    let mut infra = attributions
        .iter()
        .filter(|a| is_infra_failure(jobs[a.record_index].status, a))
        .map(|a| a.record_index)
        .peekable();

    let mut buckets = MttfBuckets::new();
    for (i, r) in jobs.iter().enumerate() {
        let failed = match scope {
            FailureScope::AllFailures => is_failure_status(r.status),
            FailureScope::InfraOnly => infra.next_if_eq(&i).is_some(),
        };
        buckets.observe(r, failed);
    }
    buckets.points()
}

/// The MTTF fold: failures and exposure per [`power_of_two_bucket`], one
/// 32-slot array indexed by the bucket's log2, fed one record at a time.
///
/// [`mttf_by_job_size`] folds a sealed view's records through it and
/// `rsc-monitor` feeds it live, so both read the same bits: each bucket
/// sums its records' hours in the order they arrive.
#[derive(Debug, Clone, Default)]
pub struct MttfBuckets {
    buckets: [(u64, f64); 32],
}

impl MttfBuckets {
    /// An empty fold.
    pub fn new() -> Self {
        MttfBuckets::default()
    }

    /// Folds one terminal job record in, counted as a failure when
    /// `failed`. A record that never started adds nothing.
    pub fn observe(&mut self, r: &JobRecord, failed: bool) {
        if r.started_at.is_none() {
            return;
        }
        let entry = &mut self.buckets[power_of_two_bucket(r.gpus).trailing_zeros() as usize];
        entry.1 += r.runtime().as_hours();
        if failed {
            entry.0 += 1;
        }
    }

    /// The estimate of every bucket with exposure, ascending by size.
    pub fn points(&self) -> Vec<MttfPoint> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, (_, exposure))| *exposure > 0.0)
            .map(|(log2, &(failures, exposure_hours))| {
                let mttf_hours = if failures > 0 {
                    exposure_hours / failures as f64
                } else {
                    f64::INFINITY
                };
                MttfPoint {
                    gpus: 1 << log2,
                    failures,
                    exposure_hours,
                    mttf_hours,
                    ci90: gamma_mttf_ci(failures, exposure_hours, 0.90),
                }
            })
            .collect()
    }
}

/// 90% (or other) CI on MTTF from a Gamma posterior over the failure rate:
/// with `n` failures in exposure `T`, rate ~ Gamma(shape = n, scale = 1/T),
/// and MTTF bounds are the reciprocals of the rate quantiles.
pub fn gamma_mttf_ci(failures: u64, exposure_hours: f64, confidence: f64) -> Option<(f64, f64)> {
    if failures == 0 || exposure_hours <= 0.0 {
        return None;
    }
    let alpha = (1.0 - confidence) / 2.0;
    let shape = failures as f64;
    let scale = 1.0 / exposure_hours;
    let rate_lo = gamma_quantile(alpha, shape, scale);
    let rate_hi = gamma_quantile(1.0 - alpha, shape, scale);
    Some((1.0 / rate_hi, 1.0 / rate_lo))
}

/// The cluster node-failure rate `r_f`, failures per node-day, estimated
/// the paper's way: infra failures of jobs larger than `min_gpus` GPUs,
/// divided by total node-days of runtime of those jobs.
pub fn estimate_node_failure_rate(
    view: &TelemetryView,
    config: &AttributionConfig,
    min_gpus: u32,
) -> f64 {
    let attributions = attribute_failures(view, config);
    let mut failures = 0u64;
    for a in &attributions {
        let r = &view.jobs()[a.record_index];
        if r.gpus > min_gpus && is_infra_failure(r.status, a) {
            failures += 1;
        }
    }
    let node_days = view.node_days_of_runtime(min_gpus);
    if node_days <= 0.0 {
        return 0.0;
    }
    failures as f64 / node_days
}

/// The status-only node-failure rate: NODE_FAIL / REQUEUED endings of
/// jobs larger than `min_gpus` GPUs over their node-days of runtime.
///
/// This is the estimate an *online* consumer can maintain incrementally:
/// it needs no health-event attribution pass, only job records, so it is
/// one [`StreamingFailureRate`] fold, which `rsc-monitor` feeds live.
/// It undercounts [`estimate_node_failure_rate`] by the FAILED-with-
/// attribution term, so treat it as a lower bound on `r_f`.
pub fn estimate_status_only_failure_rate(view: &TelemetryView, min_gpus: u32) -> f64 {
    let mut rate = StreamingFailureRate::new(min_gpus);
    view.jobs().iter().for_each(|r| rate.observe(r));
    rate.rate()
}

/// The status-only failure-rate fold behind
/// [`estimate_status_only_failure_rate`], fed one record at a time.
#[derive(Debug, Clone)]
pub struct StreamingFailureRate {
    min_gpus: u32,
    failures: u64,
    node_days: f64,
}

impl StreamingFailureRate {
    /// An empty fold counting jobs with more than `min_gpus` GPUs.
    pub fn new(min_gpus: u32) -> Self {
        StreamingFailureRate {
            min_gpus,
            failures: 0,
            node_days: 0.0,
        }
    }

    /// Folds one terminal job record in.
    pub fn observe(&mut self, r: &JobRecord) {
        if r.gpus <= self.min_gpus {
            return;
        }
        self.node_days += r.node_days();
        if matches!(r.status, JobStatus::NodeFail | JobStatus::Requeued) {
            self.failures += 1;
        }
    }

    /// Failures per node-day (0 before any exposure).
    pub fn rate(&self) -> f64 {
        if self.node_days <= 0.0 {
            return 0.0;
        }
        self.failures as f64 / self.node_days
    }

    /// Infra failures counted so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Node-days of runtime accumulated so far.
    pub fn node_days(&self) -> f64 {
        self.node_days
    }
}

/// Theoretical MTTF projection from a node failure rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfProjection {
    /// Failures per node-day.
    pub r_f: f64,
}

impl MttfProjection {
    /// Creates a projection from a failure rate (per node-day).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(r_f: f64) -> Self {
        assert!(r_f > 0.0 && r_f.is_finite(), "rate must be positive");
        MttfProjection { r_f }
    }

    /// Projected MTTF for a job spanning `gpus` GPUs (8 per node).
    pub fn mttf(&self, gpus: u32) -> SimDuration {
        let nodes = gpus.div_ceil(8) as f64;
        SimDuration::from_days_f64(1.0 / (nodes * self.r_f))
    }

    /// Projected MTTF in hours.
    pub fn mttf_hours(&self, gpus: u32) -> f64 {
        self.mttf(gpus).as_hours()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, NodeId};
    use rsc_sched::job::QosClass;
    use rsc_sim_core::time::SimTime;

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
    fn failure_rate_counts_only_large_infra() {
        let mut f = StreamingFailureRate::new(8);
        f.observe(&record(8, 24, JobStatus::NodeFail)); // at floor: excluded
        f.observe(&record(16, 24, JobStatus::NodeFail));
        f.observe(&record(16, 24, JobStatus::Completed));
        assert_eq!(f.failures(), 1);
        // Two 16-GPU (2-node) jobs for a day each → 4 node-days.
        assert!((f.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rounding_and_buckets() {
        assert_eq!(round_up_to_server(1), 8);
        assert_eq!(round_up_to_server(8), 8);
        assert_eq!(round_up_to_server(9), 16);
        assert_eq!(power_of_two_bucket(24), 32);
        assert_eq!(power_of_two_bucket(1024), 1024);
        assert_eq!(power_of_two_bucket(1025), 2048);
    }

    #[test]
    fn paper_projection_numbers() {
        // r_f = 6.50 per 1000 node-days (RSC-1, §III).
        let proj = MttfProjection::new(6.50e-3);
        // 16,384 GPUs → 2,048 nodes → MTTF ≈ 1.8 h.
        assert!((proj.mttf_hours(16_384) - 1.80).abs() < 0.03);
        // 131,072 GPUs → MTTF ≈ 0.23 h.
        assert!((proj.mttf_hours(131_072) - 0.225).abs() < 0.01);
        // 100k GPUs → ≈ 15 minutes.
        let mins_100k = proj.mttf_hours(100_000) * 60.0;
        assert!((mins_100k - 17.7).abs() < 1.0, "{mins_100k}");
    }

    #[test]
    fn projection_scales_inversely() {
        let proj = MttfProjection::new(1e-3);
        let m1 = proj.mttf_hours(1024);
        let m2 = proj.mttf_hours(2048);
        assert!((m1 / m2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_ci_brackets_point_estimate() {
        let (lo, hi) = gamma_mttf_ci(25, 1000.0, 0.90).unwrap();
        let point = 1000.0 / 25.0;
        assert!(lo < point && point < hi, "({lo}, {point}, {hi})");
        // More data → tighter interval.
        let (lo2, hi2) = gamma_mttf_ci(2500, 100_000.0, 0.90).unwrap();
        assert!((hi2 - lo2) / (1000.0 / 25.0) < (hi - lo) / point);
    }

    #[test]
    fn gamma_ci_none_without_failures() {
        assert!(gamma_mttf_ci(0, 100.0, 0.9).is_none());
        assert!(gamma_mttf_ci(5, 0.0, 0.9).is_none());
    }
}
