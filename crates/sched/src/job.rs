//! Jobs: specifications, user-driven destinies, and runtime state.

use rsc_cluster::ids::{JobId, JobRunId, NodeId, NodeList};
use rsc_sim_core::time::{SimDuration, SimTime};

use crate::project::ProjectId;

/// Terminal status of a scheduler job, mirroring Slurm's accounting states
/// (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobStatus {
    /// Ran to completion with exit code 0.
    Completed,
    /// Application returned a non-zero exit code (user bug, or a hardware
    /// fault surfacing inside the application).
    Failed,
    /// A node allocated to the job became unresponsive or was pulled by a
    /// high-severity health check.
    NodeFail,
    /// Cancelled by the user.
    Cancelled,
    /// Killed by the OOM killer.
    OutOfMemory,
    /// Preempted in favor of a higher-priority job.
    Preempted,
    /// Requeued by the infrastructure (an intermediate record: the same job
    /// id runs again as a new attempt).
    Requeued,
    /// Hit its time limit.
    Timeout,
}

impl JobStatus {
    /// All statuses in Fig. 3 report order.
    pub const ALL: [JobStatus; 8] = [
        JobStatus::Completed,
        JobStatus::Failed,
        JobStatus::NodeFail,
        JobStatus::Cancelled,
        JobStatus::OutOfMemory,
        JobStatus::Preempted,
        JobStatus::Requeued,
        JobStatus::Timeout,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "COMPLETED",
            JobStatus::Failed => "FAILED",
            JobStatus::NodeFail => "NODE_FAIL",
            JobStatus::Cancelled => "CANCELLED",
            JobStatus::OutOfMemory => "OUT_OF_MEMORY",
            JobStatus::Preempted => "PREEMPTED",
            JobStatus::Requeued => "REQUEUED",
            JobStatus::Timeout => "TIMEOUT",
        }
    }
}

impl std::fmt::Display for JobStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Quality-of-service tier: large training runs are high priority, ad-hoc
/// experimentation low (paper §III: "large jobs tend to be higher priority
/// jobs and small jobs are the lowest priority").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    /// Preemptible, lowest scheduling weight.
    Low,
    /// Default tier.
    Normal,
    /// Highest tier; can preempt lower tiers.
    High,
}

impl QosClass {
    /// All tiers, lowest first.
    pub const ALL: [QosClass; 3] = [QosClass::Low, QosClass::Normal, QosClass::High];

    /// Short stable label (the job-trace and snapshot vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Low => "low",
            QosClass::Normal => "normal",
            QosClass::High => "high",
        }
    }

    /// Base priority contribution of the tier.
    pub fn base_priority(self) -> f64 {
        match self {
            QosClass::Low => 0.0,
            QosClass::Normal => 10_000.0,
            QosClass::High => 100_000.0,
        }
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The user-driven fate a job would meet on healthy hardware.
///
/// Infrastructure failures and preemptions interpose on top of this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Destiny {
    /// Runs its full `work` and exits 0.
    Complete,
    /// Hits a user bug after the given fraction of its work (deterministic:
    /// restarting from a checkpoint hits the same bug again).
    UserFailure {
        /// Fraction of the job's work at which the bug triggers, in `(0, 1]`.
        at_work_fraction: f64,
    },
    /// OOM-killed after the given fraction of its work.
    OutOfMemory {
        /// Fraction of the job's work at which the OOM triggers.
        at_work_fraction: f64,
    },
    /// The user cancels after the given wallclock running time.
    Cancelled {
        /// Running time after which the user cancels the job.
        after: SimDuration,
    },
}

/// Immutable description of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scheduler job id (stable across requeues).
    pub id: JobId,
    /// The project (allocation) the job charges against.
    pub project: ProjectId,
    /// The logical training run this job belongs to, if any.
    pub run: Option<JobRunId>,
    /// Number of GPUs requested.
    pub gpus: u32,
    /// Submission time.
    pub submit_at: SimTime,
    /// Productive work the job must accumulate to complete.
    pub work: SimDuration,
    /// Per-attempt time limit (capped at the cluster's 7-day maximum).
    pub time_limit: SimDuration,
    /// Scheduling tier.
    pub qos: QosClass,
    /// Interval between checkpoints; progress since the last checkpoint is
    /// lost on interruption.
    pub checkpoint_interval: SimDuration,
    /// Restart overhead `u0`: initialization work repeated on every
    /// (re)start before productive work resumes.
    pub restart_overhead: SimDuration,
    /// The job's user-driven fate.
    pub destiny: Destiny,
    /// Whether the submission script requeues the job even on its own
    /// FAILED exits (the paper's crash-loop anti-pattern).
    pub requeue_on_user_failure: bool,
}

impl JobSpec {
    /// Number of whole nodes this job occupies: sub-node jobs share a
    /// server; multi-node jobs take whole servers (gang scheduling).
    pub fn nodes_needed(&self) -> u32 {
        self.gpus.div_ceil(rsc_cluster::node::GPUS_PER_NODE as u32)
    }

    /// Whether the job needs less than a full server.
    pub fn is_sub_node(&self) -> bool {
        self.gpus < rsc_cluster::node::GPUS_PER_NODE as u32
    }

    /// The amount of productive work after which the job's own destiny
    /// terminates it, and with what status.
    pub fn destiny_work(&self) -> (SimDuration, JobStatus) {
        match self.destiny {
            Destiny::Complete => (self.work, JobStatus::Completed),
            Destiny::UserFailure { at_work_fraction } => (
                self.work.mul_f64(at_work_fraction.clamp(0.0, 1.0)),
                JobStatus::Failed,
            ),
            Destiny::OutOfMemory { at_work_fraction } => (
                self.work.mul_f64(at_work_fraction.clamp(0.0, 1.0)),
                JobStatus::OutOfMemory,
            ),
            // Cancellation is wallclock-driven; treat the full work as the
            // work-based bound.
            Destiny::Cancelled { .. } => (self.work, JobStatus::Completed),
        }
    }
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Running on an allocation.
    Running {
        /// Nodes allocated (one entry even for sub-node jobs).
        nodes: NodeList,
        /// When this attempt started.
        started_at: SimTime,
    },
    /// Finished with a terminal status.
    Done(JobStatus),
}

/// Mutable runtime state of a job inside the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The immutable spec.
    pub spec: JobSpec,
    /// Attempt number, starting at 0 and bumped on every requeue.
    pub attempt: u32,
    /// Current lifecycle state.
    pub state: JobState,
    /// Productive work banked in checkpoints across attempts.
    pub checkpointed_work: SimDuration,
    /// Cumulative time spent waiting in the queue.
    pub queue_time: SimDuration,
    /// When the job last entered the pending queue.
    pub last_enqueued_at: SimTime,
    /// Cumulative scheduled (running) time across attempts.
    pub scheduled_time: SimDuration,
}

impl Job {
    /// Wraps a spec into a pending job.
    pub fn new(spec: JobSpec) -> Self {
        let submit_at = spec.submit_at;
        Job {
            spec,
            attempt: 0,
            state: JobState::Pending,
            checkpointed_work: SimDuration::ZERO,
            queue_time: SimDuration::ZERO,
            last_enqueued_at: submit_at,
            scheduled_time: SimDuration::ZERO,
        }
    }

    /// Whether the job is currently running.
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }

    /// Whether the job is pending in the queue.
    pub fn is_pending(&self) -> bool {
        matches!(self.state, JobState::Pending)
    }

    /// The nodes of the current allocation (empty if not running).
    pub fn allocated_nodes(&self) -> &[NodeId] {
        match &self.state {
            JobState::Running { nodes, .. } => nodes,
            _ => &[],
        }
    }

    /// Multifactor priority at `now`: QoS base + age + a small size bonus
    /// (mirroring Slurm's multifactor plugin shape).
    pub fn priority(&self, now: SimTime) -> f64 {
        let age_mins = now.saturating_since(self.spec.submit_at).as_mins();
        self.spec.qos.base_priority() + age_mins + (self.spec.gpus as f64).sqrt()
    }

    /// Remaining productive work to run to completion (or to the destiny
    /// point, whichever comes first).
    pub fn remaining_work(&self) -> SimDuration {
        let (destiny_work, _) = self.spec.destiny_work();
        destiny_work.saturating_sub(self.checkpointed_work)
    }

    /// Banks checkpointed progress after running productively for
    /// `productive` time in the current attempt (only whole checkpoint
    /// intervals survive an interruption).
    pub fn bank_progress(&mut self, productive: SimDuration) {
        let interval = self.spec.checkpoint_interval.as_secs();
        let banked = match productive.as_secs().checked_div(interval) {
            None => productive, // zero interval: continuous checkpointing
            Some(whole) => SimDuration::from_secs(whole * interval),
        };
        let (destiny_work, _) = self.spec.destiny_work();
        self.checkpointed_work = (self.checkpointed_work + banked).min(destiny_work);
    }

    /// Discards the newest `intervals` checkpoints (unreadable at restore
    /// time), rolling banked progress back and returning the productive
    /// work lost. Never rolls below zero; a zero checkpoint interval has
    /// no discrete checkpoints to lose, so nothing is discarded.
    pub fn discard_checkpoints(&mut self, intervals: u32) -> SimDuration {
        let interval = self.spec.checkpoint_interval;
        if interval.as_secs() == 0 || intervals == 0 {
            return SimDuration::ZERO;
        }
        let requested = SimDuration::from_secs(interval.as_secs() * intervals as u64);
        let lost = requested.min(self.checkpointed_work);
        self.checkpointed_work = self.checkpointed_work.saturating_sub(lost);
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(gpus: u32) -> JobSpec {
        JobSpec {
            id: JobId::new(1),
            project: Default::default(),
            run: None,
            gpus,
            submit_at: SimTime::ZERO,
            work: SimDuration::from_hours(10),
            time_limit: SimDuration::from_days(7),
            qos: QosClass::Normal,
            checkpoint_interval: SimDuration::from_hours(1),
            restart_overhead: SimDuration::from_mins(5),
            destiny: Destiny::Complete,
            requeue_on_user_failure: false,
        }
    }

    #[test]
    fn nodes_needed_rounds_up() {
        assert_eq!(spec(1).nodes_needed(), 1);
        assert_eq!(spec(8).nodes_needed(), 1);
        assert_eq!(spec(9).nodes_needed(), 2);
        assert_eq!(spec(1024).nodes_needed(), 128);
        assert!(spec(4).is_sub_node());
        assert!(!spec(8).is_sub_node());
    }

    #[test]
    fn destiny_work_for_user_failure() {
        let mut s = spec(8);
        s.destiny = Destiny::UserFailure {
            at_work_fraction: 0.5,
        };
        let (w, status) = s.destiny_work();
        assert_eq!(w, SimDuration::from_hours(5));
        assert_eq!(status, JobStatus::Failed);
    }

    #[test]
    fn priority_orders_by_qos_then_age() {
        let mut a = Job::new(spec(8));
        let mut b = Job::new(spec(8));
        b.spec.qos = QosClass::High;
        let now = SimTime::from_hours(1);
        assert!(b.priority(now) > a.priority(now));
        // Age matters within a tier.
        a.spec.submit_at = SimTime::ZERO;
        let mut c = Job::new(spec(8));
        c.spec.submit_at = SimTime::from_mins(30);
        assert!(a.priority(now) > c.priority(now));
    }

    #[test]
    fn bank_progress_floors_to_checkpoints() {
        let mut j = Job::new(spec(8));
        j.bank_progress(SimDuration::from_mins(150)); // 2.5h at 1h ckpt
        assert_eq!(j.checkpointed_work, SimDuration::from_hours(2));
        assert_eq!(j.remaining_work(), SimDuration::from_hours(8));
    }

    #[test]
    fn bank_progress_caps_at_work() {
        let mut j = Job::new(spec(8));
        j.bank_progress(SimDuration::from_hours(100));
        assert_eq!(j.checkpointed_work, SimDuration::from_hours(10));
        assert_eq!(j.remaining_work(), SimDuration::ZERO);
    }

    #[test]
    fn zero_checkpoint_interval_banks_everything() {
        let mut s = spec(8);
        s.checkpoint_interval = SimDuration::ZERO;
        let mut j = Job::new(s);
        j.bank_progress(SimDuration::from_mins(90));
        assert_eq!(j.checkpointed_work, SimDuration::from_mins(90));
    }

    #[test]
    fn discard_checkpoints_rolls_back_whole_intervals() {
        let mut j = Job::new(spec(8));
        j.bank_progress(SimDuration::from_hours(5));
        assert_eq!(j.discard_checkpoints(2), SimDuration::from_hours(2));
        assert_eq!(j.checkpointed_work, SimDuration::from_hours(3));
        assert_eq!(j.remaining_work(), SimDuration::from_hours(7));
    }

    #[test]
    fn discard_checkpoints_clamps_at_zero() {
        let mut j = Job::new(spec(8));
        j.bank_progress(SimDuration::from_hours(1));
        assert_eq!(j.discard_checkpoints(5), SimDuration::from_hours(1));
        assert_eq!(j.checkpointed_work, SimDuration::ZERO);
        assert_eq!(j.discard_checkpoints(1), SimDuration::ZERO);
    }

    #[test]
    fn discard_checkpoints_noop_for_continuous_checkpointing() {
        let mut s = spec(8);
        s.checkpoint_interval = SimDuration::ZERO;
        let mut j = Job::new(s);
        j.bank_progress(SimDuration::from_mins(90));
        assert_eq!(j.discard_checkpoints(3), SimDuration::ZERO);
        assert_eq!(j.checkpointed_work, SimDuration::from_mins(90));
    }

    #[test]
    fn new_job_is_pending() {
        let j = Job::new(spec(8));
        assert!(j.is_pending());
        assert!(!j.is_running());
        assert!(j.allocated_nodes().is_empty());
    }
}
