//! Cluster goodput-loss accounting (paper Fig. 8, Obs. 9).
//!
//! Estimates lost goodput from hardware failures and from their
//! second-order effect — preemptions caused by failed high-priority jobs
//! requeueing. Following the paper, every job is assumed to checkpoint
//! hourly, so an interruption wastes at most 30 minutes of work:
//! `lost = min(runtime, 30 min) × GPUs`.

use rsc_sched::job::JobStatus;
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::view::TelemetryView;

use crate::attribution::{attribute_failures, is_infra_failure, AttributionConfig};
use crate::mttf::size_bucket;

/// Lost goodput for one job-size bucket, in GPU-hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputLossPoint {
    /// Job-size bucket (power-of-two GPUs).
    pub gpus: u32,
    /// GPU-hours lost to first-order hardware failures.
    pub failure_loss_gpu_hours: f64,
    /// GPU-hours lost to second-order preemptions (victims of a failed
    /// job's requeue).
    pub preemption_loss_gpu_hours: f64,
    /// GPU-hours of already-banked work discarded because checkpoints were
    /// unreadable at restore time (fallible recovery, re-done work).
    pub fallback_loss_gpu_hours: f64,
}

/// Full goodput-loss accounting for a telemetry store.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputLoss {
    /// Per-bucket losses, ascending by size.
    pub by_size: Vec<GoodputLossPoint>,
    /// Total first-order loss, GPU-hours.
    pub total_failure_loss: f64,
    /// Total second-order loss, GPU-hours.
    pub total_preemption_loss: f64,
    /// Total checkpoint-fallback loss, GPU-hours.
    pub total_fallback_loss: f64,
}

impl GoodputLoss {
    /// Fraction of all lost goodput due to second-order preemptions
    /// (the paper reports ~16% on RSC-1).
    pub fn preemption_share(&self) -> f64 {
        let total = self.total_failure_loss + self.total_preemption_loss;
        if total <= 0.0 {
            return 0.0;
        }
        self.total_preemption_loss / total
    }
}

/// Lost work for one interrupted record under hourly checkpointing.
fn lost_gpu_hours(runtime: SimDuration, gpus: u32) -> f64 {
    runtime.min(SimDuration::from_mins(30)).as_hours() * gpus as f64
}

/// The point of `gpus`'s [`size_bucket`], created empty on first use.
fn point(buckets: &mut [Option<GoodputLossPoint>; 32], gpus: u32) -> &mut GoodputLossPoint {
    let b = size_bucket(gpus);
    buckets[b.trailing_zeros() as usize].get_or_insert(GoodputLossPoint {
        gpus: b,
        failure_loss_gpu_hours: 0.0,
        preemption_loss_gpu_hours: 0.0,
        fallback_loss_gpu_hours: 0.0,
    })
}

/// Computes Fig. 8: lost goodput by job size from attributed failures and
/// instigated preemptions.
///
/// Buckets are [`size_bucket`]s of the GPU count, ascending; each of a
/// bucket's three losses folds its stream in stream order.
pub fn goodput_loss(view: &TelemetryView, config: &AttributionConfig) -> GoodputLoss {
    let mut buckets: [Option<GoodputLossPoint>; 32] = [None; 32];

    // First-order: NODE_FAIL / REQUEUED always; FAILED only when attributed.
    for a in &attribute_failures(view, config) {
        let r = &view.jobs()[a.record_index];
        if is_infra_failure(r.status, a) {
            point(&mut buckets, r.gpus).failure_loss_gpu_hours +=
                lost_gpu_hours(r.runtime(), r.gpus);
        }
    }

    // Second-order: preempted records with a recorded instigator.
    for r in view.jobs() {
        if r.status == JobStatus::Preempted && r.instigator.is_some() {
            point(&mut buckets, r.gpus).preemption_loss_gpu_hours +=
                lost_gpu_hours(r.runtime(), r.gpus);
        }
    }

    // Third stream: work discarded when a restart's newest checkpoints
    // were unreadable. Priced directly from the fallback events — the lost
    // work was productive time already paid for once.
    for e in view.ckpt_fallbacks() {
        point(&mut buckets, e.gpus).fallback_loss_gpu_hours += e.lost.as_hours() * e.gpus as f64;
    }

    let by_size: Vec<GoodputLossPoint> = buckets.into_iter().flatten().collect();
    let total_failure_loss = by_size.iter().map(|p| p.failure_loss_gpu_hours).sum();
    let total_preemption_loss = by_size.iter().map(|p| p.preemption_loss_gpu_hours).sum();
    let total_fallback_loss = by_size.iter().map(|p| p.fallback_loss_gpu_hours).sum();
    GoodputLoss {
        by_size,
        total_failure_loss,
        total_preemption_loss,
        total_fallback_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, NodeId};
    use rsc_sched::accounting::JobRecord;
    use rsc_sched::job::QosClass;
    use rsc_sim_core::time::SimTime;
    use rsc_telemetry::TelemetryStore;

    fn record(id: u64, gpus: u32, status: JobStatus, runtime_mins: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(id),
            attempt: 0,
            run: None,
            gpus,
            qos: QosClass::Normal,
            nodes: vec![NodeId::new(0)].into(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::from_hours(1)),
            ended_at: SimTime::from_hours(1) + SimDuration::from_mins(runtime_mins),
            status,
            preempted_by: None,
            instigator: None,
        }
    }

    #[test]
    fn loss_caps_at_half_hour() {
        assert!((lost_gpu_hours(SimDuration::from_hours(10), 8) - 4.0).abs() < 1e-12);
        assert!((lost_gpu_hours(SimDuration::from_mins(10), 8) - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn node_fails_count_without_attribution() {
        let mut store = TelemetryStore::new("t", 4);
        store.push_job(record(1, 1024, JobStatus::NodeFail, 120));
        let loss = goodput_loss(&store.seal(), &AttributionConfig::paper_default());
        assert!((loss.total_failure_loss - 512.0).abs() < 1e-9); // 0.5h × 1024
        assert_eq!(loss.total_preemption_loss, 0.0);
    }

    #[test]
    fn plain_user_failures_do_not_count() {
        let mut store = TelemetryStore::new("t", 4);
        store.push_job(record(1, 64, JobStatus::Failed, 120));
        let loss = goodput_loss(&store.seal(), &AttributionConfig::paper_default());
        assert_eq!(loss.total_failure_loss, 0.0);
    }

    #[test]
    fn instigated_preemptions_count_as_second_order() {
        let mut store = TelemetryStore::new("t", 4);
        let mut victim = record(2, 16, JobStatus::Preempted, 240);
        victim.instigator = Some(JobId::new(9));
        victim.preempted_by = Some(JobId::new(9));
        store.push_job(victim);
        // A preemption NOT caused by a failure requeue is excluded.
        let mut fresh = record(3, 16, JobStatus::Preempted, 240);
        fresh.preempted_by = Some(JobId::new(10));
        store.push_job(fresh);
        let loss = goodput_loss(&store.seal(), &AttributionConfig::paper_default());
        assert!((loss.total_preemption_loss - 8.0).abs() < 1e-9); // 0.5h × 16
        assert!((loss.preemption_share() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_fallbacks_price_as_fallback_loss() {
        use rsc_telemetry::store::CheckpointFallbackEvent;
        let mut store = TelemetryStore::new("t", 4);
        store.push_ckpt_fallback(CheckpointFallbackEvent {
            at: SimTime::from_hours(5),
            job: JobId::new(1),
            gpus: 128,
            intervals: 2,
            lost: SimDuration::from_hours(2),
        });
        let loss = goodput_loss(&store.seal(), &AttributionConfig::paper_default());
        assert!((loss.total_fallback_loss - 256.0).abs() < 1e-9); // 2h × 128
        assert_eq!(loss.by_size.len(), 1);
        assert_eq!(loss.by_size[0].gpus, 128);
        assert!((loss.by_size[0].fallback_loss_gpu_hours - 256.0).abs() < 1e-9);
        // Fallback loss is its own stream: first/second-order stay zero.
        assert_eq!(loss.total_failure_loss, 0.0);
        assert_eq!(loss.total_preemption_loss, 0.0);
    }

    #[test]
    fn buckets_aggregate_by_power_of_two() {
        let mut store = TelemetryStore::new("t", 4);
        store.push_job(record(1, 1000, JobStatus::NodeFail, 120));
        store.push_job(record(2, 1024, JobStatus::NodeFail, 120));
        let loss = goodput_loss(&store.seal(), &AttributionConfig::paper_default());
        assert_eq!(loss.by_size.len(), 1);
        assert_eq!(loss.by_size[0].gpus, 1024);
    }
}
