//! The wired-up cluster simulation.
//!
//! [`ClusterSim`] merges four deterministic streams — job arrivals, the
//! failure injector, scheduled job endings, and repair completions — into
//! one discrete-event run, reproducing the operational behaviour described
//! in the paper's §II: health checks pull bad nodes, jobs requeue under the
//! same id, hung nodes surface as NODE_FAIL after a heartbeat timeout,
//! permanent-but-undetected faults create restart loops until a check
//! (possibly rolled out later) finally catches them.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use rsc_cluster::cluster::Cluster;
use rsc_cluster::component::ComponentKind;
use rsc_cluster::ids::{JobId, NodeId};
use rsc_cluster::node::NodeState;
use rsc_failure::injector::{FailureEvent, FailureInjector};
use rsc_failure::modes::{ModeCatalog, ModeId, Severity};
use rsc_failure::process::HazardSchedule;
use rsc_failure::signals::SignalKind;
use rsc_health::lifecycle::{
    AttemptOutcome, NodeLifecycle, ProbationOutcome, QuarantineOrigin, ReleaseOutcome,
    ReleasePolicy,
};
use rsc_health::monitor::{HealthEvent, HealthMonitor};
use rsc_sched::job::{Destiny, JobStatus};
use rsc_sched::sched::{InterruptCause, Scheduler, StartedAttempt};
use rsc_sim_core::event::EventQueue;
use rsc_sim_core::rng::SimRng;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::{
    CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger, ExclusionEvent,
    NodeEvent, NodeEventKind, TelemetryStore,
};
use rsc_workload::generator::JobStream;

use rsc_sim_core::bitset::HierBitSet;

use crate::bus::{SimEvent, SimObserver};
use crate::config::{EraPreset, SimConfig};
use crate::control::{CommandQueue, ControlCommand, ControlVerb};

/// A drawn failure with its mode's handling scalars looked up and its
/// permanence masked through the lemon set.
#[derive(Debug)]
struct FailurePlan {
    /// The failure, permanent only if its node is not a lemon (lemon
    /// defects evade diagnosis; see [`ClusterSim::apply_failure_plan`]).
    event: FailureEvent,
    /// Whether the mode is observable.
    observable: bool,
    /// The mode's severity.
    severity: Severity,
    /// The component the mode damages.
    component: ComponentKind,
}

/// Plans one failure: one catalog lookup and one lemon-mask test.
fn plan_failure(
    failure: FailureEvent,
    catalog: &ModeCatalog,
    lemon_mask: &HierBitSet,
) -> FailurePlan {
    let spec = catalog.mode(failure.mode);
    FailurePlan {
        event: FailureEvent {
            permanent: failure.permanent && !lemon_mask.contains(failure.node.index()),
            ..failure
        },
        observable: spec.observable,
        severity: spec.severity,
        component: spec.component,
    }
}

/// Internal future events.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// A job attempt reaches its user-driven end (destiny, cancel, timeout).
    JobEnd {
        job: JobId,
        attempt: u32,
        status: JobStatus,
    },
    /// A hardware fault crashes a running attempt.
    HwCrash { job: JobId, attempt: u32 },
    /// The scheduler heartbeat declares a hung node failed.
    HangDetected { node: NodeId },
    /// A node repair completes (legacy infallible path).
    RepairDone { node: NodeId },
    /// A fallible repair attempt on the escalation ladder resolves.
    RepairAttempt { node: NodeId },
    /// A returning node's probation window closes.
    ProbationEnd { node: NodeId },
    /// A controlled-release observation window closes on a
    /// controller-quarantined node.
    ReleaseWindow { node: NodeId },
    /// Daily housekeeping: false-positive generation, record flush, bus tick.
    DailySweep,
}

/// Wall-time attribution for the event loop's hot phases, accumulated only
/// when [`ClusterSim::enable_phase_timings`] was called (the default path
/// pays a single boolean check per phase).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Seconds in the failure injector (`next_before` sampling).
    pub inject_s: f64,
    /// Seconds in future-event queue peeks and pops.
    pub queue_s: f64,
    /// Seconds in scheduler cycles.
    pub sched_s: f64,
    /// Seconds handling popped events, failures, and submissions.
    pub handle_s: f64,
}

impl PhaseTimings {
    fn absorb(&mut self, other: PhaseTimings) {
        self.inject_s += other.inject_s;
        self.queue_s += other.queue_s;
        self.sched_s += other.sched_s;
        self.handle_s += other.handle_s;
    }
}

/// A deterministic, seeded simulation of one cluster over a time horizon.
pub struct ClusterSim {
    config: SimConfig,
    cluster: Cluster,
    sched: Scheduler,
    monitor: HealthMonitor,
    injector: FailureInjector,
    stream: JobStream,
    events: EventQueue<Ev>,
    rng: SimRng,
    telemetry: TelemetryStore,
    /// The lemon set as a bitset — O(1) membership for the per-failure
    /// permanence mask (the linear scan it replaces dominated the handle
    /// phase at fleet scale).
    lemon_mask: HierBitSet,
    /// Nodes with a permanent fault no check has caught yet.
    broken: HashMap<NodeId, ModeId>,
    /// Nodes draining (leave service when their last job ends).
    draining: HashSet<NodeId>,
    /// Per-node remediation state machines (fallible path only; empty when
    /// the policy is infallible).
    lifecycles: HashMap<NodeId, NodeLifecycle>,
    /// Attached event-stream observers (the online-monitoring hook).
    /// Empty by default: the no-observer path is a single `is_empty()`
    /// check per record and leaves telemetry byte-identical.
    observers: Vec<Box<dyn SimObserver>>,
    /// Reusable staging buffer for co-occurring signal expansion, so the
    /// failure hot path allocates nothing per event.
    staged_signals: Vec<rsc_failure::signals::NodeSignal>,
    /// Reusable staging buffer for check detections; drained into
    /// telemetry in one batched extend per handled failure.
    staged_detections: Vec<HealthEvent>,
    /// Occurrences processed by the event loop (failures, submissions,
    /// popped future events) — the throughput-bench numerator.
    events_processed: u64,
    /// The control-plane command queue, when a closed-loop controller is
    /// attached (see [`crate::control`]). `None` by default: the open-loop
    /// path pays one `Option` check per loop iteration and telemetry stays
    /// byte-identical to pre-control-plane builds.
    commands: Option<CommandQueue>,
    /// Reusable buffer for one round of drained commands, so a drain of
    /// an empty queue clones and allocates nothing.
    command_batch: Vec<ControlCommand>,
    /// Whether the control plane flipped fabric routing to adaptive.
    routing_adaptive: bool,
    /// Control-plane checkpoint-cadence override, applied to newly
    /// submitted jobs.
    ckpt_retune: Option<SimDuration>,
    /// Controlled-release schedules for controller-quarantined nodes.
    release_policies: HashMap<NodeId, ReleasePolicy>,
    /// Per-phase wall-time attribution; `None` (untimed) by default.
    phase_timings: Option<PhaseTimings>,
    now: SimTime,
}

impl ClusterSim {
    /// Builds a simulation from a config and a seed. Identical inputs give
    /// byte-identical telemetry.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let cluster = Cluster::new(config.cluster.clone());
        let num_nodes = config.cluster.num_nodes();

        // Era node sets and lemons are sampled from dedicated streams.
        let (mut era_rng, lemons) = config.setup_streams(&mut rng);
        let ib_spike_nodes: Vec<NodeId> = {
            let mut set = Vec::new();
            while set.len() < config.ib_spike_node_count.min(num_nodes as usize) {
                let n = NodeId::new(era_rng.below(num_nodes as u64) as u32);
                if !set.contains(&n) {
                    set.push(n);
                }
            }
            set
        };
        let mut schedule = HazardSchedule::new(config.modes.clone());
        schedule = match config.eras {
            EraPreset::None => schedule,
            EraPreset::Rsc1 => schedule.rsc1_eras(ib_spike_nodes),
            EraPreset::Rsc2 => schedule.rsc2_eras(ib_spike_nodes),
        };
        lemons.apply(&mut schedule);

        let injector = FailureInjector::new(schedule, num_nodes, rng.fork(3));
        let monitor = HealthMonitor::new(config.registry.clone(), rng.fork(4));
        let stream = JobStream::new(config.workload.clone(), rng.fork(5));
        let mut sched = Scheduler::new(cluster.topology().clone(), config.sched);
        sched.set_quotas(config.quotas.clone());
        let telemetry = TelemetryStore::new(config.cluster.name(), num_nodes);

        let mut events = EventQueue::new();
        events.schedule(SimTime::from_days(1), Ev::DailySweep);

        let lemon_mask = lemons.node_mask(num_nodes);
        ClusterSim {
            config,
            cluster,
            sched,
            monitor,
            injector,
            stream,
            events,
            rng,
            telemetry,
            lemon_mask,
            broken: HashMap::new(),
            draining: HashSet::new(),
            lifecycles: HashMap::new(),
            observers: Vec::new(),
            staged_signals: Vec::new(),
            staged_detections: Vec::new(),
            events_processed: 0,
            commands: None,
            command_batch: Vec::new(),
            routing_adaptive: false,
            ckpt_retune: None,
            release_policies: HashMap::new(),
            phase_timings: None,
            now: SimTime::ZERO,
        }
    }

    /// Attaches the control-plane command queue (see [`crate::control`]).
    /// The driver drains it after every scheduling cycle, applying
    /// commands in push order at the current simulated time. An attached
    /// queue that never receives a command leaves the run byte-identical
    /// to an open-loop one.
    pub fn set_command_queue(&mut self, queue: CommandQueue) {
        self.commands = Some(queue);
    }

    /// Attaches an event-stream observer (see [`crate::bus`]). The
    /// observer immediately receives [`SimEvent::Start`], then every
    /// telemetry record as the run produces it. Observers are passive:
    /// they never touch the simulation RNG, so attaching one leaves the
    /// telemetry byte-identical to an unobserved run.
    pub fn attach_observer(&mut self, mut observer: Box<dyn SimObserver>) {
        observer.on_event(&SimEvent::Start {
            cluster: self.config.cluster.name(),
            num_nodes: self.config.cluster.num_nodes(),
        });
        self.observers.push(observer);
    }

    /// Mirrors one event to every attached observer.
    fn emit(&mut self, event: &SimEvent<'_>) {
        for obs in &mut self.observers {
            obs.on_event(event);
        }
    }

    /// Occurrences the event loop has processed so far: injected failures,
    /// job submissions, and popped future events. `rsc-benchmark` reports
    /// it as the per-layer `sim.events` metric.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Allocation statistics of the scheduler's job arena (slab capacity,
    /// live jobs, slots recycled) — `rsc-benchmark` reports slot reuse as
    /// the per-layer `sched.arena_reused` metric.
    pub fn arena_stats(&self) -> rsc_sched::arena::ArenaStats {
        self.sched.arena_stats()
    }

    /// Turns on per-append wall-time attribution in the telemetry store,
    /// so benches can split seal cost into append and seal phases (see
    /// [`rsc_telemetry::SegmentStats`]).
    pub fn enable_telemetry_append_timing(&mut self) {
        self.telemetry.enable_append_timing();
    }

    /// Append-time counters from the telemetry store.
    pub fn telemetry_segment_stats(&self) -> rsc_telemetry::SegmentStats {
        self.telemetry.segment_stats()
    }

    /// Turns on per-phase wall-time attribution for subsequent [`Self::run`]
    /// calls (see [`PhaseTimings`]). Instrumentation costs a few `Instant`
    /// reads per event, so benches measure untimed rounds for the headline
    /// number and a timed run for the phase breakdown.
    pub fn enable_phase_timings(&mut self) {
        self.phase_timings.get_or_insert_with(PhaseTimings::default);
    }

    /// Accumulated phase timings, if [`Self::enable_phase_timings`] was
    /// called before running.
    pub fn phase_timings(&self) -> Option<PhaseTimings> {
        self.phase_timings
    }

    /// Runs the simulation for `duration` beyond the current time and
    /// returns the accumulated telemetry.
    ///
    /// May be called repeatedly to extend a run; telemetry accumulates.
    pub fn run(&mut self, duration: SimDuration) -> &TelemetryStore {
        let horizon = self.now + duration;
        let timed = self.phase_timings.is_some();
        let mut phases = PhaseTimings::default();
        loop {
            let t_submit = self.stream.peek_time();
            let mark = timed.then(Instant::now);
            let t_event = self.events.peek_time().unwrap_or(SimTime::MAX);
            if let Some(m) = mark {
                phases.queue_s += m.elapsed().as_secs_f64();
            }
            let t_other = t_submit.min(t_event).min(horizon);

            // Drain failures occurring strictly before the next other event.
            let mark = timed.then(Instant::now);
            let failure = self.next_planned_failure(t_other);
            if let Some(m) = mark {
                phases.inject_s += m.elapsed().as_secs_f64();
            }
            if let Some(failure) = failure {
                self.now = failure.event.at;
                self.events_processed += 1;
                let mark = timed.then(Instant::now);
                self.apply_failure_plan(failure);
                if let Some(m) = mark {
                    phases.handle_s += m.elapsed().as_secs_f64();
                }
                let mark = timed.then(Instant::now);
                self.run_cycle();
                if let Some(m) = mark {
                    phases.sched_s += m.elapsed().as_secs_f64();
                }
                self.drain_control_commands();
                continue;
            }

            if t_other >= horizon {
                break;
            }

            self.events_processed += 1;
            if t_submit <= t_event {
                self.now = t_submit;
                let mark = timed.then(Instant::now);
                let mut spec = self.stream.next_job();
                if let Some(interval) = self.ckpt_retune {
                    spec.checkpoint_interval = interval;
                }
                self.sched.submit(spec);
                if let Some(m) = mark {
                    phases.handle_s += m.elapsed().as_secs_f64();
                }
            } else {
                let mark = timed.then(Instant::now);
                let (at, ev) = self.events.pop().expect("peeked event exists");
                if let Some(m) = mark {
                    phases.queue_s += m.elapsed().as_secs_f64();
                }
                self.now = at;
                let mark = timed.then(Instant::now);
                self.handle_event(ev);
                if let Some(m) = mark {
                    phases.handle_s += m.elapsed().as_secs_f64();
                }
            }
            let mark = timed.then(Instant::now);
            self.run_cycle();
            if let Some(m) = mark {
                phases.sched_s += m.elapsed().as_secs_f64();
            }
            self.drain_control_commands();
        }
        if let Some(t) = &mut self.phase_timings {
            t.absorb(phases);
        }
        self.now = horizon;
        self.finish_run();
        &self.telemetry
    }

    /// Consumes the simulation, returning the telemetry store.
    pub fn into_telemetry(mut self) -> TelemetryStore {
        self.finish_run();
        self.telemetry
    }

    fn finish_run(&mut self) {
        self.flush_job_records();
        let gpu_swaps = self.cluster.total_gpu_swaps();
        self.telemetry.set_gpu_swaps(gpu_swaps);
        self.telemetry.set_horizon(self.now);
        self.emit(&SimEvent::Finish {
            horizon: self.now,
            gpu_swaps,
        });
    }

    /// Moves completed accounting records from the scheduler into
    /// telemetry, mirroring each to the bus.
    fn flush_job_records(&mut self) {
        let records = self.sched.take_records();
        if self.observers.is_empty() {
            // The common unobserved path moves the whole batch in one
            // extend instead of a per-record call.
            self.telemetry.extend_jobs(records);
            return;
        }
        for record in records {
            self.emit(&SimEvent::Job(&record));
            self.telemetry.push_job(record);
        }
    }

    /// Records a health-check firing (and mirrors it to the bus).
    fn record_health_event(&mut self, event: HealthEvent) {
        self.emit(&SimEvent::Health(&event));
        self.telemetry.push_health_event(event);
    }

    /// Flushes the staged detections into telemetry in one batched extend,
    /// mirroring each to the bus first. The buffer's capacity is kept for
    /// the next failure.
    fn drain_staged_detections(&mut self) {
        if self.staged_detections.is_empty() {
            return;
        }
        if !self.observers.is_empty() {
            let detections = std::mem::take(&mut self.staged_detections);
            for d in &detections {
                self.emit(&SimEvent::Health(d));
            }
            self.staged_detections = detections;
        }
        self.telemetry
            .extend_health_events(self.staged_detections.drain(..));
    }

    // ---- event handling ----

    fn handle_event(&mut self, ev: Ev) {
        match ev {
            Ev::JobEnd {
                job,
                attempt,
                status,
            } => {
                self.sched.finish(job, attempt, status, self.now);
            }
            Ev::HwCrash { job, attempt } => {
                let nodes: Vec<NodeId> = self
                    .sched
                    .job(job)
                    .map(|j| j.allocated_nodes().to_vec())
                    .unwrap_or_default();
                if self.sched.crash_job(job, attempt, self.now) {
                    self.maybe_exclude(&nodes, job);
                    self.check_drained(&nodes);
                    // The broken hardware re-manifests with every crash,
                    // giving (possibly newly rolled-out) checks another
                    // chance to catch it.
                    for node in nodes {
                        self.remanifest_broken(node);
                    }
                }
            }
            Ev::HangDetected { node } => {
                // The node stopped heartbeating: NODE_FAIL its jobs and pull
                // it for remediation.
                if self.cluster.node_state(node) != NodeState::Remediation {
                    let victims =
                        self.sched
                            .interrupt_node(node, InterruptCause::NodeHang, self.now);
                    for v in victims {
                        self.maybe_exclude(&[node], v);
                    }
                    self.remediate(node, true);
                }
            }
            Ev::RepairDone { node } => {
                self.return_to_service(node);
            }
            Ev::RepairAttempt { node } => self.handle_repair_attempt(node),
            Ev::ProbationEnd { node } => self.handle_probation_end(node),
            Ev::ReleaseWindow { node } => self.handle_release_window(node),
            Ev::DailySweep => {
                let from = self.now - SimDuration::from_days(1);
                let fps = self.monitor.false_positives_between(
                    from,
                    self.now,
                    self.config.cluster.num_nodes(),
                );
                for fp in fps {
                    // False positives look real to the infrastructure: a
                    // high-severity FP pulls a healthy node.
                    self.record_health_event(fp);
                    if fp.severity == Severity::High
                        && self.cluster.node_state(fp.node) == NodeState::Healthy
                    {
                        let victims = self.sched.interrupt_node(
                            fp.node,
                            InterruptCause::HealthCheck,
                            self.now,
                        );
                        for v in victims {
                            self.maybe_exclude(&[fp.node], v);
                        }
                        self.remediate(fp.node, false);
                    }
                }
                // Flush accounting records into telemetry incrementally,
                // then tick the bus: observers see every record with
                // `ended_at <= now` before the tick's windowed re-eval.
                self.flush_job_records();
                self.emit(&SimEvent::Tick { now: self.now });
                self.events
                    .schedule(self.now + SimDuration::from_days(1), Ev::DailySweep);
            }
        }
    }

    /// Draws the next failure at or before `limit` and plans it. A
    /// candidate past `limit` stays with the injector, undrawn, so queued
    /// events and submissions interleave with failures in time order.
    fn next_planned_failure(&mut self, limit: SimTime) -> Option<FailurePlan> {
        let failure = self.injector.next_before(limit)?;
        Some(plan_failure(
            failure,
            self.injector.schedule().catalog(),
            &self.lemon_mask,
        ))
    }

    /// Applies one planned failure: telemetry, signal expansion, checks
    /// and interrupts.
    fn apply_failure_plan(&mut self, plan: FailurePlan) {
        // Permanence is already masked through the lemon set:
        // lemon defects evade diagnosis — the repair shop finds "no
        // trouble", the node returns to service quickly, and the defect
        // (the elevated hazard) persists — the recurring pattern §IV-A
        // hunts for.
        let FailurePlan {
            event: failure,
            observable,
            severity,
            component,
        } = plan;
        self.emit(&SimEvent::GroundTruth(&failure));
        self.telemetry.push_ground_truth(failure);
        let node = failure.node;
        if self.cluster.node_state(node) == NodeState::Remediation {
            return; // already out of service
        }
        if failure.permanent {
            self.apply_permanent_damage(node, component);
        }
        self.staged_signals.clear();
        self.config
            .cooccurrence
            .expand_into(&failure, &mut self.rng, &mut self.staged_signals);
        for i in 0..self.staged_signals.len() {
            if let SignalKind::Xid(xid) = self.staged_signals[i].kind {
                let slot = self.rng.below(rsc_cluster::node::GPUS_PER_NODE as u64) as u8;
                self.cluster.node_mut(node).gpu_mut(slot).record_xid(xid);
            }
        }
        self.staged_detections.clear();
        for signal in &self.staged_signals {
            self.monitor
                .observe_signal_into(signal, &mut self.staged_detections);
        }
        let any_detection = !self.staged_detections.is_empty();
        let any_high = self
            .staged_detections
            .iter()
            .any(|d| d.severity == Severity::High);
        self.drain_staged_detections();

        if any_high {
            // High-severity check: immediate removal + reschedule.
            let victims = self
                .sched
                .interrupt_node(node, InterruptCause::HealthCheck, self.now);
            for v in victims {
                self.maybe_exclude(&[node], v);
            }
            self.remediate(node, false);
        } else if any_detection {
            // Low-severity only: drain; the fault may still crash jobs.
            self.drain_node(node);
            self.crash_jobs_on_node(node, self.config.low_severity_crash_prob);
            if self.sched.jobs_on_node(node).is_empty() {
                self.remediate(node, true);
            }
        } else {
            // Undetected.
            if !observable {
                // Hung node: heartbeat will notice shortly.
                self.events.schedule(
                    self.now + self.config.heartbeat_timeout,
                    Ev::HangDetected { node },
                );
            } else {
                // Missed/pre-rollout detection: the fault still crashes the
                // jobs running through it.
                let p = match severity {
                    Severity::High => 1.0,
                    Severity::Low => self.config.low_severity_crash_prob,
                };
                self.crash_jobs_on_node(node, p);
                // Permanent damage with no detection leaves a silently
                // broken node: every future job placed there will crash
                // (and re-raise signals) until some check finally fires —
                // the paper's restart-loop pathology.
                if failure.permanent {
                    self.broken.insert(node, failure.mode);
                }
            }
        }
    }

    fn apply_permanent_damage(&mut self, node: NodeId, component: ComponentKind) {
        use rsc_cluster::component::ComponentHealth;
        self.cluster
            .node_mut(node)
            .set_component_health(component, ComponentHealth::Failed);
        if component == ComponentKind::Gpu {
            let slot = self.rng.below(rsc_cluster::node::GPUS_PER_NODE as u64) as u8;
            self.cluster
                .node_mut(node)
                .gpu_mut(slot)
                .set_health(ComponentHealth::Failed);
        }
    }

    /// Crashes each job on `node` independently with probability `p`,
    /// via the FAILED (application-visible) path.
    fn crash_jobs_on_node(&mut self, node: NodeId, p: f64) {
        let victims: Vec<(JobId, u32)> = self
            .sched
            .jobs_on_node(node)
            .iter()
            .map(|&id| (id, self.sched.job(id).expect("running job exists").attempt))
            .collect();
        for (id, attempt) in victims {
            if self.rng.chance(p) {
                let nodes: Vec<NodeId> = self
                    .sched
                    .job(id)
                    .map(|j| j.allocated_nodes().to_vec())
                    .unwrap_or_default();
                if self.sched.crash_job(id, attempt, self.now) {
                    self.maybe_exclude(&nodes, id);
                    self.check_drained(&nodes);
                }
            }
        }
    }

    /// Pulls a node into remediation and schedules its repair. Idempotent:
    /// a node already in remediation is left alone.
    fn remediate(&mut self, node: NodeId, transient_only: bool) {
        if self.cluster.node_state(node) == NodeState::Remediation {
            return;
        }
        self.cluster.remediate_node(node, self.now);
        self.sched.set_node_available(node, false);
        self.draining.remove(&node);
        self.record_node_event(node, NodeEventKind::EnterRemediation);
        let permanent = !transient_only
            && (self.broken.contains_key(&node) || self.cluster.has_hardware_damage(node));
        if self.config.remediation.is_infallible() {
            // Legacy path: repairs always succeed after one sampled
            // duration. Draws exactly the RNG stream pre-lifecycle builds
            // drew, keeping disabled-path telemetry byte-identical.
            let dur = self.config.repair.sample(permanent, &mut self.rng);
            self.events
                .schedule(self.now + dur, Ev::RepairDone { node });
        } else {
            let policy = self.config.remediation;
            let lc = NodeLifecycle::begin(permanent);
            let dur = lc.attempt_duration(&policy, &mut self.rng);
            self.lifecycles.insert(node, lc);
            self.events
                .schedule(self.now + dur, Ev::RepairAttempt { node });
        }
    }

    /// Returns a repaired node to service: the terminal success transition
    /// of both the legacy and the fallible repair paths.
    fn return_to_service(&mut self, node: NodeId) {
        self.cluster.repair_node(node);
        self.broken.remove(&node);
        self.draining.remove(&node);
        self.lifecycles.remove(&node);
        self.sched.set_node_available(node, true);
        self.record_node_event(node, NodeEventKind::ExitRemediation);
    }

    /// Records a node lifecycle transition at the current time (and
    /// mirrors it to the bus).
    fn record_node_event(&mut self, node: NodeId, kind: NodeEventKind) {
        let event = NodeEvent {
            node,
            at: self.now,
            kind,
        };
        self.emit(&SimEvent::Node(&event));
        self.telemetry.push_node_event(event);
    }

    /// Drains the control-plane command queue, applying commands in push
    /// order at the current simulated time. Bounded rounds: actuating a
    /// command emits bus events the controller may respond to with
    /// follow-up commands at the same instant; anything still pending
    /// after the last round waits for the next scheduling cycle.
    fn drain_control_commands(&mut self) {
        let mut batch = std::mem::take(&mut self.command_batch);
        for _ in 0..4 {
            let Some(queue) = &self.commands else {
                break;
            };
            queue.drain_into(&mut batch);
            if batch.is_empty() {
                break;
            }
            for cmd in batch.drain(..) {
                self.apply_control_command(cmd);
            }
        }
        self.command_batch = batch;
    }

    /// Applies one control command: actuate it if its budget admitted it
    /// and the target is in an actuatable state, then record the action
    /// (accepted or not) in telemetry and on the bus.
    fn apply_control_command(&mut self, cmd: ControlCommand) {
        let (kind, node, value) = match cmd.verb {
            ControlVerb::RemediateNode { node } => {
                (ControlActionKind::RemediateNode, Some(node), 0)
            }
            ControlVerb::QuarantineNode { node, .. } => {
                (ControlActionKind::QuarantineNode, Some(node), 0)
            }
            ControlVerb::AdaptiveRouting => (ControlActionKind::AdaptiveRouting, None, 0),
            ControlVerb::RestoreRouting => (ControlActionKind::RestoreRouting, None, 0),
            ControlVerb::RetuneCheckpoint { interval } => (
                ControlActionKind::RetuneCheckpoint,
                None,
                interval.as_secs(),
            ),
        };
        let accepted = cmd.budget_ok
            && match cmd.verb {
                ControlVerb::RemediateNode { node } | ControlVerb::QuarantineNode { node, .. } => {
                    self.cluster.node_state(node) != NodeState::Remediation
                }
                ControlVerb::AdaptiveRouting => !self.routing_adaptive,
                ControlVerb::RestoreRouting => self.routing_adaptive,
                ControlVerb::RetuneCheckpoint { interval } => self.ckpt_retune != Some(interval),
            };
        if accepted {
            match cmd.verb {
                ControlVerb::RemediateNode { node } => {
                    let victims =
                        self.sched
                            .interrupt_node(node, InterruptCause::HealthCheck, self.now);
                    for v in victims {
                        self.maybe_exclude(&[node], v);
                    }
                    self.remediate(node, true);
                }
                ControlVerb::QuarantineNode { node, release } => {
                    let victims =
                        self.sched
                            .interrupt_node(node, InterruptCause::HealthCheck, self.now);
                    for v in victims {
                        self.maybe_exclude(&[node], v);
                    }
                    self.cluster.remediate_node(node, self.now);
                    self.sched.set_node_available(node, false);
                    self.draining.remove(&node);
                    self.record_node_event(node, NodeEventKind::EnterRemediation);
                    self.record_node_event(node, NodeEventKind::Quarantined);
                    self.lifecycles.insert(
                        node,
                        NodeLifecycle::begin_quarantined(QuarantineOrigin::Controller),
                    );
                    if let Some(policy) = release {
                        self.release_policies.insert(node, policy);
                        self.events
                            .schedule(self.now + policy.window, Ev::ReleaseWindow { node });
                    }
                }
                ControlVerb::AdaptiveRouting => self.routing_adaptive = true,
                ControlVerb::RestoreRouting => self.routing_adaptive = false,
                ControlVerb::RetuneCheckpoint { interval } => self.ckpt_retune = Some(interval),
            }
        }
        self.record_control_action(ControlActionEvent {
            at: self.now,
            kind,
            trigger: cmd.trigger,
            node,
            job: None,
            accepted,
            value,
        });
    }

    /// Records a control action at the current time (and mirrors it to
    /// the bus).
    fn record_control_action(&mut self, event: ControlActionEvent) {
        self.emit(&SimEvent::ControlAction(&event));
        self.telemetry.push_control_action(event);
    }

    /// Resolves one controlled-release observation window on a
    /// controller-quarantined node: release it back to service after
    /// enough consecutive clean windows, otherwise keep watching.
    fn handle_release_window(&mut self, node: NodeId) {
        let Some(policy) = self.release_policies.get(&node).copied() else {
            return;
        };
        let Some(mut lc) = self.lifecycles.get(&node).copied() else {
            self.release_policies.remove(&node);
            return;
        };
        match lc.resolve_release_window(&policy, &mut self.rng) {
            ReleaseOutcome::Released => {
                self.release_policies.remove(&node);
                self.record_control_action(ControlActionEvent {
                    at: self.now,
                    kind: ControlActionKind::ReleaseNode,
                    trigger: ControlTrigger::Controller,
                    node: Some(node),
                    job: None,
                    accepted: true,
                    value: u64::from(policy.clean_windows),
                });
                self.return_to_service(node);
            }
            ReleaseOutcome::Progress { .. } | ReleaseOutcome::Reset => {
                self.lifecycles.insert(node, lc);
                self.events
                    .schedule(self.now + policy.window, Ev::ReleaseWindow { node });
            }
            ReleaseOutcome::Absorbing => {
                self.release_policies.remove(&node);
            }
        }
    }

    /// Resolves one fallible repair attempt: succeed (into service or
    /// probation), retry/escalate with backoff, or quarantine.
    fn handle_repair_attempt(&mut self, node: NodeId) {
        let policy = self.config.remediation;
        let Some(mut lc) = self.lifecycles.get(&node).copied() else {
            return;
        };
        match lc.resolve_attempt(&policy, &mut self.rng) {
            AttemptOutcome::Succeeded {
                probation: false, ..
            } => {
                self.return_to_service(node);
            }
            AttemptOutcome::Succeeded {
                probation: true, ..
            } => {
                self.lifecycles.insert(node, lc);
                self.record_node_event(node, NodeEventKind::EnterProbation);
                self.events.schedule(
                    self.now + policy.probation.window,
                    Ev::ProbationEnd { node },
                );
            }
            AttemptOutcome::Failed { escalated_to, .. } => {
                self.record_node_event(node, NodeEventKind::RepairAttemptFailed);
                if escalated_to.is_some() {
                    self.record_node_event(node, NodeEventKind::RepairEscalated);
                }
                let dur = lc.attempt_duration(&policy, &mut self.rng);
                self.lifecycles.insert(node, lc);
                self.events
                    .schedule(self.now + dur, Ev::RepairAttempt { node });
            }
            AttemptOutcome::Quarantined => {
                self.lifecycles.insert(node, lc);
                self.record_node_event(node, NodeEventKind::Quarantined);
                // The node stays in `NodeState::Remediation` forever: its
                // open remediation interval is charged to the horizon, and
                // the Quarantined event feeds lemon detection.
            }
        }
    }

    /// Closes a node's probation window: re-admit, or back down the ladder.
    fn handle_probation_end(&mut self, node: NodeId) {
        let policy = self.config.remediation;
        let Some(mut lc) = self.lifecycles.get(&node).copied() else {
            return;
        };
        match lc.resolve_probation(&policy, &mut self.rng) {
            ProbationOutcome::Passed => {
                self.record_node_event(node, NodeEventKind::ProbationPassed);
                self.return_to_service(node);
            }
            ProbationOutcome::Failed { .. } => {
                self.record_node_event(node, NodeEventKind::ProbationFailed);
                let dur = lc.attempt_duration(&policy, &mut self.rng);
                self.lifecycles.insert(node, lc);
                self.events
                    .schedule(self.now + dur, Ev::RepairAttempt { node });
            }
            ProbationOutcome::Quarantined => {
                self.lifecycles.insert(node, lc);
                self.record_node_event(node, NodeEventKind::ProbationFailed);
                self.record_node_event(node, NodeEventKind::Quarantined);
            }
        }
    }

    /// Re-raises a silently-broken node's signals, detecting and removing
    /// it if a matching check is now live.
    fn remanifest_broken(&mut self, node: NodeId) {
        let Some(&mode) = self.broken.get(&node) else {
            return;
        };
        if self.cluster.node_state(node) == NodeState::Remediation {
            return;
        }
        let symptom = self.injector.schedule().catalog().mode(mode).symptom;
        let synthetic = FailureEvent {
            at: self.now,
            node,
            mode,
            symptom,
            permanent: true,
        };
        self.staged_signals.clear();
        self.config
            .cooccurrence
            .expand_into(&synthetic, &mut self.rng, &mut self.staged_signals);
        self.staged_detections.clear();
        for signal in &self.staged_signals {
            self.monitor
                .observe_signal_into(signal, &mut self.staged_detections);
        }
        let any_detection = !self.staged_detections.is_empty();
        let any_high = self
            .staged_detections
            .iter()
            .any(|d| d.severity == Severity::High);
        self.drain_staged_detections();
        if any_high {
            let victims = self
                .sched
                .interrupt_node(node, InterruptCause::HealthCheck, self.now);
            for v in victims {
                self.maybe_exclude(&[node], v);
            }
            self.remediate(node, false);
        } else if any_detection {
            // Low-severity catch: stop feeding the broken node new jobs; it
            // remediates once its current jobs finish.
            self.drain_node(node);
            if self.sched.jobs_on_node(node).is_empty() {
                self.remediate(node, false);
            }
        }
    }

    /// Marks a node draining (idempotent), syncing scheduler availability
    /// and telemetry.
    fn drain_node(&mut self, node: NodeId) {
        if self.draining.insert(node) {
            self.cluster.begin_drain(node);
            self.sched.set_node_available(node, false);
            self.record_node_event(node, NodeEventKind::Drain);
        }
    }

    /// After a job vacates nodes, move now-empty draining nodes onward.
    fn check_drained(&mut self, nodes: &[NodeId]) {
        for &node in nodes {
            if self.draining.contains(&node) && self.sched.jobs_on_node(node).is_empty() {
                self.remediate(node, true);
            }
        }
    }

    /// Users sometimes exclude nodes after failures (the weakly-correlated
    /// lemon signal from Fig. 11).
    fn maybe_exclude(&mut self, nodes: &[NodeId], job: JobId) {
        if nodes.is_empty() {
            return;
        }
        if self.rng.chance(self.config.exclusion_prob) {
            let node = nodes[self.rng.below(nodes.len() as u64) as usize];
            let event = ExclusionEvent {
                node,
                job,
                at: self.now,
            };
            self.emit(&SimEvent::Exclusion(&event));
            self.telemetry.push_exclusion(event);
        }
    }

    /// Runs a scheduling cycle and post-processes starts: runs the Slurm
    /// prolog (preflight) against silently-broken nodes, schedules each
    /// surviving attempt's natural end, and arms crashes for jobs that
    /// land on undetected broken hardware.
    fn run_cycle(&mut self) {
        let started = self.sched.cycle(self.now);
        for s in started {
            if let Some(&broken_node) = s.nodes.iter().find(|n| self.broken.contains_key(n)) {
                // Preflight: the prolog check may catch the bad node right
                // at job start — the job goes straight back to the queue
                // and the node to remediation, no failure record.
                if self.rng.chance(self.config.preflight_detect_prob) {
                    self.sched
                        .interrupt_node(broken_node, InterruptCause::HealthCheck, self.now);
                    self.remediate(broken_node, false);
                    continue;
                }
                // Undetected: the job will crash shortly after start; the
                // crash re-raises the node's signals.
                let delay = SimDuration::from_secs_f64(self.rng.uniform_range(60.0, 1800.0));
                self.events.schedule(
                    self.now + delay,
                    Ev::HwCrash {
                        job: s.job,
                        attempt: s.attempt,
                    },
                );
            }
            self.maybe_ckpt_fallback(&s);
            self.arm_job_end(&s);
        }
    }

    /// At restart time, the newest checkpoints may be unreadable: roll the
    /// job's banked progress back and log the lost work. Draws nothing when
    /// the fallback policy is disabled (the default), so legacy runs keep
    /// their exact RNG stream.
    fn maybe_ckpt_fallback(&mut self, s: &StartedAttempt) {
        let policy = self.config.ckpt_fallback;
        if !policy.is_enabled() || s.attempt == 0 {
            return;
        }
        let has_banked = self
            .sched
            .job(s.job)
            .is_some_and(|j| j.checkpointed_work > SimDuration::ZERO);
        if !has_banked {
            return;
        }
        let intervals = policy.sample_fallback(&mut self.rng);
        if intervals == 0 {
            return;
        }
        if let Some((lost, gpus)) = self.sched.rollback_checkpoints(s.job, intervals) {
            let event = CheckpointFallbackEvent {
                at: self.now,
                job: s.job,
                gpus,
                intervals,
                lost,
            };
            self.emit(&SimEvent::CkptFallback(&event));
            self.telemetry.push_ckpt_fallback(event);
        }
    }

    /// Schedules the earliest of destiny / cancel / timeout for an attempt.
    /// No-op when the attempt already ended (e.g. a preflight kill on a
    /// shared node earlier in the same batch).
    fn arm_job_end(&mut self, s: &StartedAttempt) {
        let Some(job) = self.sched.job(s.job) else {
            return;
        };
        if job.attempt != s.attempt || !job.is_running() {
            return;
        }
        let spec = &job.spec;
        let (destiny_work, destiny_status) = spec.destiny_work();
        let remaining = destiny_work.saturating_sub(job.checkpointed_work);
        let natural_at =
            s.started_at + spec.restart_overhead + remaining.max(SimDuration::from_secs(1));
        let mut end_at = natural_at;
        let mut status = destiny_status;

        if let Destiny::Cancelled { after } = spec.destiny {
            let cancel_at = s.started_at + after.max(SimDuration::from_secs(1));
            if cancel_at < end_at {
                end_at = cancel_at;
                status = JobStatus::Cancelled;
            }
        }
        let timeout_at = s.started_at + spec.time_limit;
        if timeout_at < end_at {
            end_at = timeout_at;
            status = JobStatus::Timeout;
        }
        self.events.schedule(
            end_at,
            Ev::JobEnd {
                job: s.job,
                attempt: s.attempt,
                status,
            },
        );
    }
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("cluster", &self.config.cluster.name())
            .field("now", &self.now)
            .field("pending", &self.sched.pending_count())
            .field("running", &self.sched.running_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_failure::taxonomy::FailureSymptom;

    #[test]
    fn lemon_mask_strips_permanence() {
        let catalog = ModeCatalog::rsc1();
        let (mode, spec) = catalog.iter().next().expect("non-empty catalog");
        let mut mask = HierBitSet::new(64);
        mask.insert(5);
        let failure = |node: u32, permanent: bool| FailureEvent {
            at: SimTime::from_secs(60),
            node: NodeId::new(node),
            mode,
            symptom: FailureSymptom::GpuMemoryError,
            permanent,
        };
        let lemon = plan_failure(failure(5, true), &catalog, &mask);
        assert!(!lemon.event.permanent, "lemon keeps its defect hidden");
        let plain = plan_failure(failure(6, true), &catalog, &mask);
        assert!(plain.event.permanent, "non-lemon permanence survives");
        assert!(
            !plan_failure(failure(6, false), &catalog, &mask)
                .event
                .permanent
        );
        assert_eq!(
            (plain.observable, plain.severity, plain.component),
            (spec.observable, spec.severity, spec.component)
        );
        assert_eq!(plain.event, failure(6, true));
    }
    /// Vose's method on two LIFO worklists filled in index order: the
    /// layout an attribution table must read as, column by column (the
    /// oracle of `rsc_sim_core::rng`'s layout tests).
    fn two_stack_vose(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let n = weights.len();
        let scale = n as f64 / weights.iter().sum::<f64>();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let (mut small, mut large): (Vec<u32>, Vec<u32>) =
            (0..n as u32).partition(|&i| prob[i as usize] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i as usize] = 1.0;
        }
        (prob, alias)
    }

    #[test]
    fn era_tables_match_the_two_stack_oracle_over_rate() {
        // RSC-1's schedule: the GSP-regression eras, the IB-spike `Set`
        // window and planted lemons. Every era start is checked, the
        // spike window (days 240-270) included.
        let config = SimConfig::rsc1();
        let num_nodes = config.cluster.num_nodes();
        let sim = ClusterSim::new(config, 20250301);
        let schedule = sim.injector.schedule();
        let mode_ids: Vec<ModeId> = schedule.catalog().iter().map(|(id, _)| id).collect();
        let era_starts: Vec<SimTime> = std::iter::once(SimTime::ZERO)
            .chain(schedule.era_boundaries())
            .collect();
        assert_eq!(era_starts.len(), 4);
        for t in era_starts {
            let rates: Vec<f64> = (0..num_nodes)
                .flat_map(|node| {
                    let node = NodeId::new(node);
                    mode_ids
                        .iter()
                        .map(move |&mode| schedule.rate(node, mode, t))
                })
                .collect();
            let (prob, alias) = two_stack_vose(&rates);
            let table = schedule
                .era_table(&mode_ids, num_nodes, t)
                .expect("positive total rate");
            assert_eq!(table.len(), rates.len());
            for (i, &rate) in rates.iter().enumerate() {
                assert_eq!(table.weight(i).to_bits(), rate.to_bits(), "{t}: weight {i}");
                let (p, a) = table.column(i);
                assert_eq!(p.to_bits(), prob[i].to_bits(), "{t}: column {i}");
                if prob[i] < 1.0 {
                    assert_eq!(a, alias[i], "{t}: alias {i}");
                }
            }
        }
    }
}
