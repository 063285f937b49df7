//! The telemetry store: every log stream a simulation produces, with the
//! time-window queries the analyses need.
//!
//! This is the simulated stand-in for the paper's production data sources:
//! Slurm accounting (`sacct`), fleet health-check events, node lifecycle
//! transitions, user node-exclusion lists, and — unavailable in production
//! but invaluable for validation — the ground-truth failure injections.
//!
//! Each stream is a plain append-only `Vec`; nothing here hashes.
//! [`TelemetryStore::seal`] hands the records over to the fully-indexed
//! [`TelemetryView`](crate::view::TelemetryView) the analyses consume.

use std::time::Instant;

use rsc_cluster::ids::{JobId, NodeId};
use rsc_failure::injector::FailureEvent;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sim_core::time::{SimDuration, SimTime};

/// A node lifecycle transition.
///
/// The first three variants are the version-1 snapshot vocabulary; the
/// rest were added with the fallible-remediation lifecycle and force the
/// version-2 snapshot format when present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEventKind {
    /// Node marked draining (low-severity check).
    Drain,
    /// Node pulled into remediation.
    EnterRemediation,
    /// Node repaired and returned to service.
    ExitRemediation,
    /// A repair attempt on the escalation ladder failed.
    RepairAttemptFailed,
    /// Repeated failures escalated the repair to a more drastic rung.
    RepairEscalated,
    /// A repaired node began its probation window.
    EnterProbation,
    /// The node passed probation (an `ExitRemediation` follows).
    ProbationPassed,
    /// The node flunked probation and went back down the ladder.
    ProbationFailed,
    /// The node exhausted its repair budget and was written off.
    Quarantined,
}

impl NodeEventKind {
    /// Every kind, the version-1 vocabulary first.
    pub const ALL: [NodeEventKind; 9] = [
        NodeEventKind::Drain,
        NodeEventKind::EnterRemediation,
        NodeEventKind::ExitRemediation,
        NodeEventKind::RepairAttemptFailed,
        NodeEventKind::RepairEscalated,
        NodeEventKind::EnterProbation,
        NodeEventKind::ProbationPassed,
        NodeEventKind::ProbationFailed,
        NodeEventKind::Quarantined,
    ];

    /// Whether this kind exists in the version-1 snapshot vocabulary.
    pub fn is_v1(self) -> bool {
        matches!(
            self,
            NodeEventKind::Drain | NodeEventKind::EnterRemediation | NodeEventKind::ExitRemediation
        )
    }
}

/// A job attempt restarting from an older checkpoint because newer ones
/// were unreadable (fallible recovery on the storage side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointFallbackEvent {
    /// When the fallback happened (at attempt start).
    pub at: SimTime,
    /// The restarting job.
    pub job: JobId,
    /// GPUs the job holds (so the lost work prices without a job lookup).
    pub gpus: u32,
    /// How many checkpoint intervals the attempt fell back.
    pub intervals: u32,
    /// Productive work discarded and re-done.
    pub lost: SimDuration,
}

/// What a reliability-controller action did (or tried to do).
///
/// The variants and their textual labels are part of the version-4
/// snapshot vocabulary; a view containing any control action forces the
/// version-4 format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlActionKind {
    /// Node sent on a remediation visit by the controller.
    RemediateNode,
    /// Node quarantined by the controller.
    QuarantineNode,
    /// A controller-initiated quarantine released back to service.
    ReleaseNode,
    /// Fabric routing switched static → adaptive.
    AdaptiveRouting,
    /// Fabric routing restored to its static baseline.
    RestoreRouting,
    /// A job profile's checkpoint cadence re-solved online.
    RetuneCheckpoint,
}

impl ControlActionKind {
    /// Every kind.
    pub const ALL: [ControlActionKind; 6] = [
        ControlActionKind::RemediateNode,
        ControlActionKind::QuarantineNode,
        ControlActionKind::ReleaseNode,
        ControlActionKind::AdaptiveRouting,
        ControlActionKind::RestoreRouting,
        ControlActionKind::RetuneCheckpoint,
    ];

    /// Stable snake_case label (the v4 snapshot row vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            ControlActionKind::RemediateNode => "remediate_node",
            ControlActionKind::QuarantineNode => "quarantine_node",
            ControlActionKind::ReleaseNode => "release_node",
            ControlActionKind::AdaptiveRouting => "adaptive_routing",
            ControlActionKind::RestoreRouting => "restore_routing",
            ControlActionKind::RetuneCheckpoint => "retune_checkpoint",
        }
    }
}

/// Which alert stream (or internal controller policy) triggered a control
/// action. Lives here rather than in `rsc-monitor` so the telemetry codec
/// has no upward dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlTrigger {
    /// A `LemonSuspect` alert.
    LemonSuspect,
    /// An `MttfRegression` alert.
    MttfRegression,
    /// A `QuarantineSurge` alert.
    QuarantineSurge,
    /// Internal controller policy (cooldown revert, probation release).
    Controller,
}

impl ControlTrigger {
    /// Every trigger.
    pub const ALL: [ControlTrigger; 4] = [
        ControlTrigger::LemonSuspect,
        ControlTrigger::MttfRegression,
        ControlTrigger::QuarantineSurge,
        ControlTrigger::Controller,
    ];

    /// Stable snake_case label (the v4 snapshot row vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            ControlTrigger::LemonSuspect => "lemon_suspect",
            ControlTrigger::MttfRegression => "mttf_regression",
            ControlTrigger::QuarantineSurge => "quarantine_surge",
            ControlTrigger::Controller => "controller",
        }
    }
}

/// One closed-loop control action, recorded whether or not it was
/// accepted — budget-rejected actions log with `accepted == false` so
/// the action stream is a complete audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlActionEvent {
    /// When the driver drained the command.
    pub at: SimTime,
    /// What the controller did.
    pub kind: ControlActionKind,
    /// Which alert (or internal policy) prompted it.
    pub trigger: ControlTrigger,
    /// Target node, for node-scoped actions.
    pub node: Option<NodeId>,
    /// Target job, for job-scoped actions.
    pub job: Option<JobId>,
    /// Whether the action was applied (`false` = budget/cooldown reject).
    pub accepted: bool,
    /// Action-specific magnitude (e.g. the re-solved checkpoint interval
    /// in seconds for [`ControlActionKind::RetuneCheckpoint`]).
    pub value: u64,
}

/// A node lifecycle event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEvent {
    /// The node.
    pub node: NodeId,
    /// When the transition happened.
    pub at: SimTime,
    /// What happened.
    pub kind: NodeEventKind,
}

/// A user excluding a node from their future submissions (the
/// `excl_jobid_count` lemon signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExclusionEvent {
    /// The excluded node.
    pub node: NodeId,
    /// The job whose failure prompted the exclusion.
    pub job: JobId,
    /// When the exclusion was added.
    pub at: SimTime,
}

/// Append accounting for one store, summed across its streams (the bench
/// harness reports these as the seal-phase attribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Always zero: the store never hashes. Each chain is folded by the
    /// snapshot writer, or on demand by
    /// [`TelemetryView::chain_heads`](crate::view::TelemetryView::chain_heads).
    /// Kept because the benchmark still reads it.
    pub rotate_s: f64,
    /// Wall seconds spent in append calls — only measured after
    /// [`TelemetryStore::enable_append_timing`], otherwise zero.
    pub append_s: f64,
}

/// All telemetry collected from one simulated cluster run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryStore {
    cluster_name: String,
    num_nodes: u32,
    horizon: SimTime,
    jobs: Vec<JobRecord>,
    health_events: Vec<HealthEvent>,
    node_events: Vec<NodeEvent>,
    exclusions: Vec<ExclusionEvent>,
    ground_truth_failures: Vec<FailureEvent>,
    ckpt_fallbacks: Vec<CheckpointFallbackEvent>,
    control_actions: Vec<ControlActionEvent>,
    gpu_swaps: u64,
    time_appends: bool,
    append_nanos: u64,
}

impl TelemetryStore {
    /// Creates an empty store for a cluster.
    pub fn new(cluster_name: impl Into<String>, num_nodes: u32) -> Self {
        TelemetryStore {
            cluster_name: cluster_name.into(),
            num_nodes,
            ..TelemetryStore::default()
        }
    }

    /// Measures wall time spent inside append calls from now on (for the
    /// bench harness's seal attribution; off by default because it puts
    /// two clock reads on every append).
    pub fn enable_append_timing(&mut self) {
        self.time_appends = true;
    }

    /// Append accounting summed across the seven streams.
    pub fn segment_stats(&self) -> SegmentStats {
        SegmentStats {
            rotate_s: 0.0,
            append_s: self.append_nanos as f64 / 1e9,
        }
    }

    /// The cluster this telemetry came from.
    pub fn cluster_name(&self) -> &str {
        &self.cluster_name
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// End of the measurement window.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Sets the measurement horizon (called once by the simulation driver).
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// Total GPU swaps performed by repairs over the run — the paper
    /// corroborates failure-rate differences with GPU swap rates (§III).
    pub fn gpu_swaps(&self) -> u64 {
        self.gpu_swaps
    }

    /// Records the cumulative GPU swap count (driver-maintained).
    pub fn set_gpu_swaps(&mut self, swaps: u64) {
        self.gpu_swaps = swaps;
    }

    #[inline]
    fn append_timer(&self) -> Option<Instant> {
        self.time_appends.then(Instant::now)
    }

    #[inline]
    fn note_append(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.append_nanos += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Appends a job accounting record.
    pub fn push_job(&mut self, record: JobRecord) {
        let t0 = self.append_timer();
        self.jobs.push(record);
        self.note_append(t0);
    }

    /// Appends many job records.
    pub fn extend_jobs<I: IntoIterator<Item = JobRecord>>(&mut self, records: I) {
        let t0 = self.append_timer();
        self.jobs.extend(records);
        self.note_append(t0);
    }

    /// Appends a health event.
    pub fn push_health_event(&mut self, event: HealthEvent) {
        let t0 = self.append_timer();
        self.health_events.push(event);
        self.note_append(t0);
    }

    /// Appends many health events.
    pub fn extend_health_events<I: IntoIterator<Item = HealthEvent>>(&mut self, events: I) {
        let t0 = self.append_timer();
        self.health_events.extend(events);
        self.note_append(t0);
    }

    /// Appends a node lifecycle event.
    pub fn push_node_event(&mut self, event: NodeEvent) {
        let t0 = self.append_timer();
        self.node_events.push(event);
        self.note_append(t0);
    }

    /// Appends a user node-exclusion event.
    pub fn push_exclusion(&mut self, event: ExclusionEvent) {
        let t0 = self.append_timer();
        self.exclusions.push(event);
        self.note_append(t0);
    }

    /// Appends a ground-truth failure injection.
    pub fn push_ground_truth(&mut self, event: FailureEvent) {
        let t0 = self.append_timer();
        self.ground_truth_failures.push(event);
        self.note_append(t0);
    }

    /// Appends a checkpoint-fallback event.
    pub fn push_ckpt_fallback(&mut self, event: CheckpointFallbackEvent) {
        let t0 = self.append_timer();
        self.ckpt_fallbacks.push(event);
        self.note_append(t0);
    }

    /// Appends a closed-loop control action.
    pub fn push_control_action(&mut self, event: ControlActionEvent) {
        let t0 = self.append_timer();
        self.control_actions.push(event);
        self.note_append(t0);
    }

    /// Job accounting records, in completion order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Health events, in detection order.
    pub fn health_events(&self) -> &[HealthEvent] {
        &self.health_events
    }

    /// Node lifecycle events.
    pub fn node_events(&self) -> &[NodeEvent] {
        &self.node_events
    }

    /// User node exclusions.
    pub fn exclusions(&self) -> &[ExclusionEvent] {
        &self.exclusions
    }

    /// Ground-truth failure injections (not available to "operators";
    /// used to validate attribution and detection).
    pub fn ground_truth_failures(&self) -> &[FailureEvent] {
        &self.ground_truth_failures
    }

    /// Checkpoint-fallback events, in occurrence order.
    pub fn ckpt_fallbacks(&self) -> &[CheckpointFallbackEvent] {
        &self.ckpt_fallbacks
    }

    /// Closed-loop control actions, in drain order.
    pub fn control_actions(&self) -> &[ControlActionEvent] {
        &self.control_actions
    }

    /// Seals the store into an immutable, fully-indexed
    /// [`TelemetryView`](crate::view::TelemetryView).
    ///
    /// Sealing consumes the writer: the streams are handed over without a
    /// copy and the health index is built; nothing is hashed. After this
    /// point window queries are `&self` binary searches and the view can
    /// be shared freely across analyses and threads.
    pub fn seal(self) -> crate::view::TelemetryView {
        crate::view::TelemetryView::from_parts(
            self.cluster_name,
            self.num_nodes,
            self.horizon,
            self.jobs,
            self.health_events,
            self.node_events,
            self.exclusions,
            self.ground_truth_failures,
            self.ckpt_fallbacks,
            self.control_actions,
            self.gpu_swaps,
        )
    }
}
