//! Accounting records — the simulated equivalent of `sacct` output, and the
//! raw input to every analysis in `rsc-core`.

use rsc_cluster::ids::{JobId, JobRunId, NodeList};
use rsc_sim_core::time::{SimDuration, SimTime};

use crate::job::{JobStatus, QosClass};

/// One attempt of one scheduler job, as recorded at its terminal transition.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Scheduler job id (stable across requeues).
    pub job: JobId,
    /// Attempt number (0 for the first run of the job id).
    pub attempt: u32,
    /// The logical training run, if the job belongs to one.
    pub run: Option<JobRunId>,
    /// GPUs allocated.
    pub gpus: u32,
    /// Scheduling tier.
    pub qos: QosClass,
    /// Nodes of the allocation (empty if the attempt never started).
    pub nodes: NodeList,
    /// When this attempt entered the pending queue.
    pub enqueued_at: SimTime,
    /// When this attempt started running, if it did.
    pub started_at: Option<SimTime>,
    /// When the attempt reached its terminal state.
    pub ended_at: SimTime,
    /// Terminal status of this attempt.
    pub status: JobStatus,
    /// For PREEMPTED records: the job that took the resources.
    pub preempted_by: Option<JobId>,
    /// For PREEMPTED records: the failed job whose requeue instigated the
    /// preemption, when the preemptor was restarting after a failure
    /// (drives the paper's second-order goodput analysis, Fig. 8).
    pub instigator: Option<JobId>,
}

impl JobRecord {
    /// Running time of this attempt (zero if it never started).
    pub fn runtime(&self) -> SimDuration {
        match self.started_at {
            Some(start) => self.ended_at.saturating_since(start),
            None => SimDuration::ZERO,
        }
    }

    /// Time this attempt spent waiting in the queue.
    pub fn queue_wait(&self) -> SimDuration {
        match self.started_at {
            Some(start) => start.saturating_since(self.enqueued_at),
            None => self.ended_at.saturating_since(self.enqueued_at),
        }
    }

    /// GPU-time consumed by this attempt.
    pub fn gpu_time(&self) -> SimDuration {
        SimDuration::from_secs(self.runtime().as_secs() * self.gpus as u64)
    }

    /// Node-days of runtime (the denominator of the paper's failure rate
    /// `r_f`).
    pub fn node_days(&self) -> f64 {
        self.nodes.len() as f64 * self.runtime().as_days()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::NodeId;

    fn record() -> JobRecord {
        JobRecord {
            job: JobId::new(1),
            attempt: 0,
            run: None,
            gpus: 16,
            qos: QosClass::Normal,
            nodes: vec![NodeId::new(0), NodeId::new(1)].into(),
            enqueued_at: SimTime::from_hours(1),
            started_at: Some(SimTime::from_hours(2)),
            ended_at: SimTime::from_hours(14),
            status: JobStatus::Completed,
            preempted_by: None,
            instigator: None,
        }
    }

    #[test]
    fn durations() {
        let r = record();
        assert_eq!(r.runtime(), SimDuration::from_hours(12));
        assert_eq!(r.queue_wait(), SimDuration::from_hours(1));
        assert_eq!(r.gpu_time(), SimDuration::from_hours(12 * 16));
        assert!((r.node_days() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn record_keeps_its_nodes_inline_in_120_bytes() {
        assert_eq!(std::mem::size_of::<NodeList>(), 16);
        assert!(std::mem::size_of::<JobRecord>() <= 120);
    }

    #[test]
    fn never_started_attempt() {
        let mut r = record();
        r.started_at = None;
        r.nodes = Default::default();
        assert_eq!(r.runtime(), SimDuration::ZERO);
        assert_eq!(r.queue_wait(), SimDuration::from_hours(13));
        assert_eq!(r.node_days(), 0.0);
    }
}
