//! The cluster-goodput waterfall (paper §II-D).
//!
//! "The cluster as a whole can be measured in terms of goodput … The
//! clusters discussed in this paper operate at high utilization, and thus
//! job preemption, resource fragmentation, and failures are the dominant
//! sources of lost goodput." This module decomposes total capacity into
//! that waterfall: productive work, restart overhead, checkpoint-replay
//! loss, preempted/failed residue, and idle. Its complement of idle is the
//! cluster's [`utilization`] (§II-A).

use rsc_sched::accounting::JobRecord;
use rsc_sched::job::JobStatus;
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::view::TelemetryView;

/// Decomposition of a cluster's GPU-time over the measurement window.
/// All values in GPU-hours; fractions available via [`Self::fractions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputWaterfall {
    /// Total capacity: GPUs × wallclock.
    pub capacity: f64,
    /// Scheduled time that produced retained progress.
    pub productive: f64,
    /// Restart overhead paid at every attempt start.
    pub restart_overhead: f64,
    /// Progress lost to interruptions (work since the last checkpoint,
    /// in expectation Δt_cp/2 per interruption).
    pub replay_loss: f64,
    /// GPU-time never allocated to any job.
    pub idle: f64,
}

impl GoodputWaterfall {
    /// The waterfall as fractions of capacity:
    /// `(productive, restart, replay, idle)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let c = self.capacity.max(f64::MIN_POSITIVE);
        (
            self.productive / c,
            self.restart_overhead / c,
            self.replay_loss / c,
            self.idle / c,
        )
    }

    /// Normalized cluster goodput (the §II-D utilization-like quantity).
    pub fn goodput(&self) -> f64 {
        self.productive / self.capacity.max(f64::MIN_POSITIVE)
    }
}

/// GPUs × horizon, in GPU-hours.
fn capacity_gpu_hours(view: &TelemetryView, gpus_per_node: u32) -> f64 {
    view.num_nodes() as f64 * gpus_per_node as f64 * view.horizon().as_hours()
}

/// GPU-hours an attempt held; `None` if it never started.
fn scheduled_gpu_hours(record: &JobRecord) -> Option<f64> {
    record.started_at.map(|_| record.gpu_time().as_hours())
}

/// Cluster utilization: GPU-time scheduled to attempts over capacity, one
/// minus [`GoodputWaterfall`]'s idle share. The view holds only attempts
/// that ended by its horizon, so short runs read low.
pub fn utilization(view: &TelemetryView, gpus_per_node: u32) -> f64 {
    let scheduled: f64 = view.jobs().iter().filter_map(scheduled_gpu_hours).sum();
    scheduled / capacity_gpu_hours(view, gpus_per_node).max(f64::MIN_POSITIVE)
}

/// Computes the waterfall with the paper's accounting assumptions: every
/// attempt pays its spec'd restart overhead; every *interrupted* attempt
/// additionally loses half a checkpoint interval of progress.
pub fn goodput_waterfall(
    view: &TelemetryView,
    gpus_per_node: u32,
    checkpoint_interval: SimDuration,
    restart_overhead: SimDuration,
) -> GoodputWaterfall {
    let capacity = capacity_gpu_hours(view, gpus_per_node);
    let mut scheduled = 0.0f64;
    let mut restart = 0.0f64;
    let mut replay = 0.0f64;
    for r in view.jobs() {
        let Some(gpu_hours) = scheduled_gpu_hours(r) else {
            continue;
        };
        scheduled += gpu_hours;
        let runtime = r.runtime();
        restart += restart_overhead.min(runtime).as_hours() * r.gpus as f64;
        let interrupted = matches!(
            r.status,
            JobStatus::NodeFail | JobStatus::Requeued | JobStatus::Preempted
        );
        if interrupted {
            let lost = runtime
                .saturating_sub(restart_overhead)
                .min(SimDuration::from_secs(checkpoint_interval.as_secs() / 2));
            replay += lost.as_hours() * r.gpus as f64;
        }
    }
    let productive = (scheduled - restart - replay).max(0.0);
    let idle = (capacity - scheduled).max(0.0);
    GoodputWaterfall {
        capacity,
        productive,
        restart_overhead: restart,
        replay_loss: replay,
        idle,
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
    use rsc_telemetry::TelemetryView;

    fn record(id: u64, gpus: u32, hours: u64, status: JobStatus) -> JobRecord {
        JobRecord {
            job: JobId::new(id),
            attempt: 0,
            run: None,
            gpus,
            qos: QosClass::Normal,
            nodes: vec![NodeId::new(0)].into(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            ended_at: SimTime::from_hours(hours),
            status,
            preempted_by: None,
            instigator: None,
        }
    }

    fn store(records: Vec<JobRecord>, nodes: u32, horizon_h: u64) -> TelemetryView {
        let mut s = TelemetryStore::new("t", nodes);
        s.extend(records);
        s.set_horizon(SimTime::from_hours(horizon_h));
        s.seal()
    }

    #[test]
    fn waterfall_sums_to_capacity() {
        let s = store(
            vec![
                record(1, 8, 10, JobStatus::Completed),
                record(2, 8, 5, JobStatus::NodeFail),
            ],
            2,
            24,
        );
        let w = goodput_waterfall(&s, 8, SimDuration::from_hours(1), SimDuration::from_mins(6));
        assert!((w.capacity - 2.0 * 8.0 * 24.0).abs() < 1e-9);
        let total = w.productive + w.restart_overhead + w.replay_loss + w.idle;
        assert!(
            (total - w.capacity).abs() < 1e-6,
            "total={total} cap={}",
            w.capacity
        );
        let (p, r, l, i) = w.fractions();
        assert!((p + r + l + i - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_the_scheduled_share_of_capacity() {
        let never_started = JobRecord {
            started_at: None,
            ..record(3, 64, 20, JobStatus::Cancelled)
        };
        // 2 nodes × 8 GPUs × 24 h = 384 GPU-h; 8 × 10 + 8 × 5 = 120 scheduled.
        let s = store(
            vec![
                record(1, 8, 10, JobStatus::Completed),
                record(2, 8, 5, JobStatus::NodeFail),
                never_started,
            ],
            2,
            24,
        );
        let u = utilization(&s, 8);
        assert_eq!(u, 120.0 / 384.0);
        let w = goodput_waterfall(&s, 8, SimDuration::from_hours(1), SimDuration::from_mins(6));
        assert_eq!(w.idle, w.capacity * (1.0 - u));
        assert_eq!(utilization(&store(Vec::new(), 2, 24), 8), 0.0);
    }

    #[test]
    fn interrupted_jobs_lose_replay_time() {
        let completed = store(vec![record(1, 8, 10, JobStatus::Completed)], 1, 24);
        let interrupted = store(vec![record(1, 8, 10, JobStatus::Requeued)], 1, 24);
        let ckpt = SimDuration::from_hours(1);
        let u0 = SimDuration::from_mins(6);
        let w_done = goodput_waterfall(&completed, 8, ckpt, u0);
        let w_int = goodput_waterfall(&interrupted, 8, ckpt, u0);
        assert_eq!(w_done.replay_loss, 0.0);
        // Half an hour × 8 GPUs = 4 GPU-hours.
        assert!((w_int.replay_loss - 4.0).abs() < 1e-9);
        assert!(w_int.goodput() < w_done.goodput());
    }

    #[test]
    fn short_attempts_cannot_lose_more_than_they_ran() {
        // A 3-minute attempt can't pay a 6-minute overhead plus replay.
        let s = store(
            vec![{
                let mut r = record(1, 8, 1, JobStatus::NodeFail);
                r.ended_at = SimTime::from_mins(3);
                r
            }],
            1,
            24,
        );
        let w = goodput_waterfall(&s, 8, SimDuration::from_hours(1), SimDuration::from_mins(6));
        assert!(w.productive >= 0.0);
        assert!(w.restart_overhead <= 8.0 * 3.0 / 60.0 + 1e-9);
    }
}
