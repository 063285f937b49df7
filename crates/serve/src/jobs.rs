//! The sweep job queue: a bounded, deterministic state machine from
//! submission to sealed analysis.
//!
//! Submissions append jobs to a bounded FIFO; worker threads (spawned by
//! [`crate::core::ServiceState`]) claim jobs in submission order, execute
//! them through the shared `ScenarioRunner` with a monitor tap attached
//! (artifact-cache hits replay instead of re-simulating), and seal the
//! result into the analysis LRU.
//! A full queue rejects the submit with a typed error — backpressure is
//! visible to the client as `429`, never an unbounded queue.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

use rsc_sim::runner::ScenarioSpec;

/// Where one job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing (simulating or replaying) it.
    Running,
    /// Sealed: the analysis is served from the LRU / artifact cache.
    Sealed,
    /// Execution failed (the error is preserved verbatim).
    Failed(String),
}

impl JobState {
    /// Machine-readable label used in status JSON.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Sealed => "sealed",
            JobState::Failed(_) => "failed",
        }
    }
}

/// One job's externally visible record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// Service-assigned job id.
    pub id: u64,
    /// Preset label the job was submitted with.
    pub preset: String,
    /// Scenario seed.
    pub seed: u64,
    /// Scenario horizon, days.
    pub days: u64,
    /// Scenario fingerprint (artifact-cache key).
    pub fingerprint: u64,
    /// Current state.
    pub state: JobState,
}

#[derive(Debug)]
struct JobEntry {
    snapshot: JobSnapshot,
    spec: ScenarioSpec,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue is at capacity; retry later.
    QueueFull,
    /// The service is shutting down.
    ShuttingDown,
}

/// Queue-depth counters, surfaced on `/healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs sealed.
    pub sealed: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Pending-queue capacity.
    pub capacity: usize,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    pending: VecDeque<u64>,
    shutdown: bool,
}

/// The shared job table plus its bounded pending queue.
#[derive(Debug)]
pub struct JobRegistry {
    inner: Mutex<RegistryInner>,
    ready: Condvar,
    capacity: usize,
}

impl JobRegistry {
    /// A registry whose pending queue holds at most `capacity` jobs.
    pub fn new(capacity: usize) -> Self {
        JobRegistry {
            inner: Mutex::new(RegistryInner::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues one job, returning its id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the pending queue is at capacity;
    /// [`SubmitError::ShuttingDown`] after [`Self::shutdown`].
    pub fn submit(&self, spec: ScenarioSpec, preset: &str) -> Result<u64, SubmitError> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.pending.len() >= self.capacity {
            return Err(SubmitError::QueueFull);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let snapshot = JobSnapshot {
            id,
            preset: preset.to_string(),
            seed: spec.seed,
            days: spec.days,
            fingerprint: spec.fingerprint(),
            state: JobState::Queued,
        };
        inner.jobs.insert(id, JobEntry { snapshot, spec });
        inner.pending.push_back(id);
        self.ready.notify_one();
        Ok(id)
    }

    /// Blocks until a job is available (claiming it as `Running`) or the
    /// registry shuts down (`None`).
    pub fn claim_next(&self) -> Option<(u64, ScenarioSpec)> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        loop {
            if let Some(id) = inner.pending.pop_front() {
                let entry = inner.jobs.get_mut(&id).expect("pending id exists");
                entry.snapshot.state = JobState::Running;
                return Some((id, entry.spec.clone()));
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).expect("registry poisoned");
        }
    }

    /// Marks a running job sealed.
    pub fn mark_sealed(&self, id: u64) {
        self.set_state(id, JobState::Sealed);
    }

    /// Marks a running job failed.
    pub fn mark_failed(&self, id: u64, error: String) {
        self.set_state(id, JobState::Failed(error));
    }

    fn set_state(&self, id: u64, state: JobState) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some(entry) = inner.jobs.get_mut(&id) {
            entry.snapshot.state = state;
        }
    }

    /// A job's current record.
    pub fn get(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.jobs.get(&id).map(|e| e.snapshot.clone())
    }

    /// Every job's record, in id (= submission) order.
    pub fn list(&self) -> Vec<JobSnapshot> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner.jobs.values().map(|e| e.snapshot.clone()).collect()
    }

    /// Current queue-depth counters.
    pub fn counts(&self) -> QueueCounts {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut counts = QueueCounts {
            capacity: self.capacity,
            ..QueueCounts::default()
        };
        for entry in inner.jobs.values() {
            match entry.snapshot.state {
                JobState::Queued => counts.queued += 1,
                JobState::Running => counts.running += 1,
                JobState::Sealed => counts.sealed += 1,
                JobState::Failed(_) => counts.failed += 1,
            }
        }
        counts
    }

    /// Stops the queue: pending claims return `None`, submissions are
    /// rejected.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.shutdown = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_sim::config::SimConfig;

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(SimConfig::small_test_cluster(), seed, 2)
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let registry = JobRegistry::new(2);
        registry.submit(spec(1), "small_test").unwrap();
        registry.submit(spec(2), "small_test").unwrap();
        assert_eq!(
            registry.submit(spec(3), "small_test"),
            Err(SubmitError::QueueFull)
        );
        // Claiming drains the pending queue, reopening capacity.
        let (id, _) = registry.claim_next().unwrap();
        assert_eq!(id, 0);
        registry.submit(spec(3), "small_test").unwrap();
        assert_eq!(registry.counts().queued, 2);
        assert_eq!(registry.counts().running, 1);
    }

    #[test]
    fn lifecycle_and_listing() {
        let registry = JobRegistry::new(4);
        let id = registry.submit(spec(5), "small_test").unwrap();
        assert_eq!(registry.get(id).unwrap().state, JobState::Queued);
        let (claimed, claimed_spec) = registry.claim_next().unwrap();
        assert_eq!(claimed, id);
        assert_eq!(claimed_spec.seed, 5);
        assert_eq!(registry.get(id).unwrap().state, JobState::Running);
        registry.mark_sealed(id);
        assert_eq!(registry.get(id).unwrap().state, JobState::Sealed);
        assert_eq!(registry.list().len(), 1);
    }

    #[test]
    fn shutdown_unblocks_claims_and_rejects_submissions() {
        let registry = JobRegistry::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| registry.claim_next());
            std::thread::sleep(std::time::Duration::from_millis(20));
            registry.shutdown();
            assert_eq!(waiter.join().unwrap(), None);
        });
        assert_eq!(
            registry.submit(spec(1), "small_test"),
            Err(SubmitError::ShuttingDown)
        );
    }
}
