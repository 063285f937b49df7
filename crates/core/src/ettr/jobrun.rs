//! Job-run reconstruction and measured ETTR (paper §II-D, Fig. 9).
//!
//! A *job run* is one logical training task spanning one or more scheduler
//! job attempts (requeues under the same job id, and explicit run ids for
//! training-run submissions). Measured ETTR follows the paper's recipe:
//! assume a checkpoint interval and restart overhead, treat every non-final
//! attempt as interrupted, and divide estimated productive time by the
//! available wallclock (scheduled + queued).

use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::view::TelemetryView;

use crate::mttf::size_bucket;

/// A reconstructed job run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRun {
    /// GPUs per attempt (constant across the run).
    pub gpus: u32,
    /// Scheduling tier.
    pub qos: QosClass,
    /// Number of attempts in the run.
    pub attempts: u32,
    /// Total scheduled (running) time.
    pub scheduled: SimDuration,
    /// Total queue wait.
    pub queued: SimDuration,
    /// Status of the final attempt.
    pub final_status: JobStatus,
}

impl JobRun {
    /// Measured ETTR with assumed checkpoint interval and restart overhead
    /// (the paper uses 60 min / 5 min).
    ///
    /// Every attempt pays the restart overhead; every *interrupted*
    /// (non-final) attempt additionally loses half a checkpoint interval of
    /// progress in expectation.
    pub fn measured_ettr(
        &self,
        checkpoint_interval: SimDuration,
        restart_overhead: SimDuration,
    ) -> f64 {
        let scheduled = self.scheduled.as_days();
        let queued = self.queued.as_days();
        let wallclock = scheduled + queued;
        if wallclock <= 0.0 {
            return 0.0;
        }
        let interruptions = self.attempts.saturating_sub(1) as f64;
        let unproductive = self.attempts as f64 * restart_overhead.as_days()
            + interruptions * checkpoint_interval.as_days() / 2.0;
        let productive = (scheduled - unproductive).max(0.0);
        (productive / wallclock).clamp(0.0, 1.0)
    }
}

/// The run a record belongs to, packed in 65 bits: explicit run ids
/// first, by id, then job ids.
fn group_key(r: &JobRecord) -> u128 {
    match r.run {
        Some(run) => u128::from(run.raw()),
        None => 1 << 64 | u128::from(r.job.raw()),
    }
}

/// Fig. 9's run order as one ascending key: largest first, then most
/// scheduled time, then most attempts.
fn size_first_key(run: &JobRun) -> u128 {
    u128::from(!run.gpus) << 96
        | u128::from(!run.scheduled.as_secs()) << 32
        | u128::from(!run.attempts)
}

/// Stable LSD radix sort by a 128-bit key: one counting pass per key
/// byte, skipping the bytes every item shares. Equal keys keep their
/// input order.
fn radix_sort_by_key<T: Clone>(items: Vec<T>, key: impl Fn(&T) -> u128) -> Vec<T> {
    let mut counts = [[0usize; 256]; 16];
    for item in &items {
        let k = key(item);
        for (byte, count) in counts.iter_mut().enumerate() {
            count[usize::from((k >> (8 * byte)) as u8)] += 1;
        }
    }
    let mut src = items;
    let mut dst = src.clone();
    for (byte, count) in counts.iter().enumerate() {
        if count.contains(&src.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = start;
            start += c;
        }
        for item in &src {
            let digit = usize::from((key(item) >> (8 * byte)) as u8);
            dst[next[digit]] = item.clone();
            next[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Groups a sealed view's records into job runs.
///
/// Records sharing an explicit run id form one run; records without one
/// group by job id (requeues of the same id are one logical task). A
/// run's last record — the one whose QoS and status it reports — is its
/// greatest `(enqueued_at, attempt)`, the later record winning a tie.
///
/// Runs come largest first, then by scheduled time, then by attempts;
/// runs equal in all three keep group order (run ids ascending, then job
/// ids ascending), as a stable sort of the groups by those three fields
/// would leave them.
pub fn reconstruct_job_runs(view: &TelemetryView) -> Vec<JobRun> {
    let jobs = view.jobs();
    // (group key, record index) pairs, stably sorted by group key: each
    // group's records together, groups in key order, records in record
    // order.
    let order: Vec<u128> = jobs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let i = u32::try_from(i).expect("fewer than 2^32 job records");
            group_key(r) << 32 | u128::from(i)
        })
        .collect();
    let order = radix_sort_by_key(order, |&k| k >> 32);
    let runs: Vec<JobRun> = order
        .chunk_by(|a, b| a >> 32 == b >> 32)
        .map(|group| {
            let record = |key: u128| &jobs[key as u32 as usize];
            let mut last = record(group[0]);
            let (mut gpus, mut scheduled, mut queued) = (0, SimDuration::ZERO, SimDuration::ZERO);
            for &key in group {
                let r = record(key);
                gpus = gpus.max(r.gpus);
                scheduled += r.runtime();
                queued += r.queue_wait();
                if (r.enqueued_at, r.attempt) >= (last.enqueued_at, last.attempt) {
                    last = r;
                }
            }
            JobRun {
                gpus,
                qos: last.qos,
                attempts: group.len() as u32,
                scheduled,
                queued,
                final_status: last.status,
            }
        })
        .collect();
    radix_sort_by_key(runs, size_first_key)
}

/// Fig. 9 selection: long (≥ `min_scheduled`) runs at the highest priority.
pub fn long_high_priority_runs(runs: &[JobRun], min_scheduled: SimDuration) -> Vec<&JobRun> {
    runs.iter()
        .filter(|r| r.qos == QosClass::High && r.scheduled >= min_scheduled)
        .collect()
}

/// One Fig. 9 bucket: measured ETTR statistics for runs of similar size.
#[derive(Debug, Clone, PartialEq)]
pub struct EttrBucket {
    /// The bucket key: the [`size_bucket`] at or above the sizes of the
    /// runs it holds (at least 8), so it is their *upper* edge,
    /// inclusive. A 300-GPU run is in the bucket keyed 512, which holds
    /// runs of 257–512 GPUs.
    pub gpus_lo: u32,
    /// Twice `gpus_lo` (saturating at `u32::MAX`): not an edge of the
    /// sizes the bucket holds.
    pub gpus_hi: u32,
    /// Number of runs in the bucket.
    pub runs: usize,
    /// Mean measured ETTR.
    pub mean_ettr: f64,
    /// 90% normal-approximation CI around the mean.
    pub ci90: (f64, f64),
}

/// Buckets runs by GPU size ([`size_bucket`]s, at least 8) and summarizes
/// measured ETTR. The top bucket, [`TOP_SIZE_BUCKET`](crate::mttf::TOP_SIZE_BUCKET),
/// takes every run above 2^31 GPUs, and its `gpus_hi` saturates at `u32::MAX`.
pub fn ettr_by_size_bucket(
    runs: &[&JobRun],
    checkpoint_interval: SimDuration,
    restart_overhead: SimDuration,
) -> Vec<EttrBucket> {
    use rsc_sim_core::stats::StreamingStats;
    let mut buckets: std::collections::BTreeMap<u32, StreamingStats> = Default::default();
    for run in runs {
        let lo = size_bucket(run.gpus).max(8);
        buckets
            .entry(lo)
            .or_default()
            .push(run.measured_ettr(checkpoint_interval, restart_overhead));
    }
    buckets
        .into_iter()
        .map(|(lo, stats)| EttrBucket {
            gpus_lo: lo,
            gpus_hi: lo.saturating_mul(2),
            runs: stats.count() as usize,
            mean_ettr: stats.mean(),
            ci90: stats.mean_confidence_interval(0.90),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, JobRunId, NodeId};
    use rsc_sim_core::time::SimTime;
    use rsc_telemetry::TelemetryStore;

    fn record(
        job: u64,
        run: Option<u64>,
        attempt: u32,
        enq_h: u64,
        start_h: u64,
        end_h: u64,
        status: JobStatus,
    ) -> JobRecord {
        JobRecord {
            job: JobId::new(job),
            attempt,
            run: run.map(JobRunId::new),
            gpus: 256,
            qos: QosClass::High,
            nodes: (0..32).map(NodeId::new).collect(),
            enqueued_at: SimTime::from_hours(enq_h),
            started_at: Some(SimTime::from_hours(start_h)),
            ended_at: SimTime::from_hours(end_h),
            status,
            preempted_by: None,
            instigator: None,
        }
    }

    #[test]
    fn requeued_attempts_group_into_one_run() {
        let mut store = TelemetryStore::new("t", 64);
        store.push_job(record(1, None, 0, 0, 0, 10, JobStatus::NodeFail));
        store.push_job(record(1, None, 1, 10, 11, 30, JobStatus::Completed));
        store.push_job(record(2, None, 0, 0, 0, 5, JobStatus::Completed));
        let runs = reconstruct_job_runs(&store.seal());
        assert_eq!(runs.len(), 2);
        let big = runs.iter().find(|r| r.attempts == 2).unwrap();
        assert_eq!(big.scheduled, SimDuration::from_hours(29));
        assert_eq!(big.queued, SimDuration::from_hours(1));
        assert_eq!(big.final_status, JobStatus::Completed);
    }

    #[test]
    fn explicit_run_ids_group_across_job_ids() {
        let mut store = TelemetryStore::new("t", 64);
        store.push_job(record(1, Some(9), 0, 0, 0, 10, JobStatus::NodeFail));
        store.push_job(record(2, Some(9), 0, 10, 10, 20, JobStatus::Completed));
        let runs = reconstruct_job_runs(&store.seal());
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].attempts, 2);
    }

    #[test]
    fn measured_ettr_penalizes_interruptions() {
        let smooth = JobRun {
            gpus: 256,
            qos: QosClass::High,
            attempts: 1,
            scheduled: SimDuration::from_hours(100),
            queued: SimDuration::from_hours(1),
            final_status: JobStatus::Completed,
        };
        let bumpy = JobRun {
            attempts: 10,
            ..smooth.clone()
        };
        let ckpt = SimDuration::from_mins(60);
        let u0 = SimDuration::from_mins(5);
        let e_smooth = smooth.measured_ettr(ckpt, u0);
        let e_bumpy = bumpy.measured_ettr(ckpt, u0);
        assert!(e_smooth > 0.97, "{e_smooth}");
        assert!(e_bumpy < e_smooth);
        // 10 attempts: 50 min overhead + 4.5 × 60 min lost ≈ 5.3 h of 101.
        assert!((e_bumpy - (100.0 - 5.33) / 101.0).abs() < 0.01, "{e_bumpy}");
    }

    #[test]
    fn high_priority_filter() {
        let mut store = TelemetryStore::new("t", 64);
        store.push_job(record(1, None, 0, 0, 0, 30, JobStatus::Completed));
        let mut low = record(2, None, 0, 0, 0, 30, JobStatus::Completed);
        low.qos = QosClass::Low;
        store.push_job(low);
        let runs = reconstruct_job_runs(&store.seal());
        let selected = long_high_priority_runs(&runs, SimDuration::from_hours(24));
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].qos, QosClass::High);
    }

    #[test]
    fn buckets_are_power_of_two() {
        let run = JobRun {
            gpus: 300,
            qos: QosClass::High,
            attempts: 1,
            scheduled: SimDuration::from_hours(50),
            queued: SimDuration::ZERO,
            final_status: JobStatus::Completed,
        };
        let binding = [&run];
        let buckets = ettr_by_size_bucket(
            &binding,
            SimDuration::from_mins(60),
            SimDuration::from_mins(5),
        );
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].gpus_lo, 512);
        assert_eq!(buckets[0].runs, 1);
    }
}
