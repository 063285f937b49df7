//! Property-based tests of scheduler invariants under random workloads.

use std::collections::HashMap;

use proptest::prelude::*;

use rsc_cluster::ids::{JobId, NodeId};
use rsc_cluster::spec::ClusterSpec;
use rsc_cluster::topology::Topology;
use rsc_sched::arena::JobArena;
use rsc_sched::job::{Destiny, Job, JobSpec, JobStatus, QosClass};
use rsc_sched::sched::{BackfillPolicy, InterruptCause, SchedConfig, Scheduler};
use rsc_sim_core::time::{SimDuration, SimTime};

fn spec(id: u64, gpus: u32, qos: QosClass, submit_mins: u64) -> JobSpec {
    JobSpec {
        id: JobId::new(id),
        project: Default::default(),
        run: None,
        gpus,
        submit_at: SimTime::from_mins(submit_mins),
        work: SimDuration::from_hours(2),
        time_limit: SimDuration::from_days(1),
        qos,
        checkpoint_interval: SimDuration::from_hours(1),
        restart_overhead: SimDuration::from_mins(5),
        destiny: Destiny::Complete,
        requeue_on_user_failure: false,
    }
}

fn qos_from(idx: u8) -> QosClass {
    match idx % 3 {
        0 => QosClass::Low,
        1 => QosClass::Normal,
        _ => QosClass::High,
    }
}

/// Drives one scheduler through a command stream and, after every step,
/// checks that the queue holds exactly the pending jobs and each indexed
/// query against its naive full-scan oracle on the same state, panicking
/// on the first divergence. `(op, gpus, qos, node)` tuples: op 0/1
/// submit, 2 interrupts `node`, 3 finishes the oldest live attempt, 4
/// drains `node` (its jobs keep running), 5 returns a drained node.
/// Shared by the proptest below and a deterministic pseudo-random
/// smoke test.
fn run_lockstep(cmds: &[(u8, u32, u8, u32)]) {
    let topo = Topology::new(&ClusterSpec::new("p", 24));
    // A short preemption floor, so running jobs become preemptible within
    // a stream, and conservative backfill, so cycles take reservations.
    let config = SchedConfig {
        preemption_floor: SimDuration::from_mins(20),
        backfill: BackfillPolicy::Conservative,
        ..SchedConfig::rsc_default()
    };
    let mut sched = Scheduler::new(topo, config);
    let mut t = 1u64;
    let mut live: Vec<(JobId, u32)> = Vec::new();
    let mut drained: Vec<u32> = Vec::new();
    for (i, &(op, gpus, qos, node)) in cmds.iter().enumerate() {
        t += 1;
        let now = SimTime::from_mins(t);
        match op {
            // Submit a job; sizes span sub-node (1..8) through multi-node
            // gangs (up to 10 whole nodes).
            0 | 1 => sched.submit(spec(i as u64 + 1, gpus, qos_from(qos), t)),
            // Infrastructure interrupt on a pseudo-random node.
            2 => {
                sched.interrupt_node(NodeId::new(node), InterruptCause::NodeHang, now);
            }
            // Finish the oldest still-live attempt.
            3 => {
                if let Some((id, attempt)) = live.first().copied() {
                    live.remove(0);
                    sched.finish(id, attempt, JobStatus::Completed, now);
                }
            }
            // Drain a node, as a health check does, under any running jobs.
            4 => {
                if !drained.contains(&node) {
                    drained.push(node);
                    sched.set_node_available(NodeId::new(node), false);
                }
            }
            // Return one of the drained nodes.
            _ => {
                if !drained.is_empty() {
                    let back = drained.swap_remove(node as usize % drained.len());
                    sched.set_node_available(NodeId::new(back), true);
                }
            }
        }
        for s in sched.cycle(now) {
            live.push((s.job, s.attempt));
        }
        // The queue holds exactly the pending jobs: a cycle's starts leave
        // it and its preemption victims are merged back in.
        let pending = (1..=i as u64 + 1)
            .filter(|&id| sched.job(JobId::new(id)).is_some_and(|j| j.is_pending()))
            .count();
        assert_eq!(sched.pending_count(), pending, "step {i}: queue diverges");
        // Allocation: best-fit sub-node placement and whole-node packing.
        for gpus in [1, 4, 16, 24, 80] {
            let probe = spec(900_000, gpus, QosClass::Normal, t);
            assert_eq!(
                sched.pool().try_allocate(&probe),
                sched.pool().try_allocate_naive(&probe),
                "step {i}: allocation diverges for {gpus} GPUs"
            );
        }
        // The conservative-backfill reservation time.
        for needed in [1usize, 2, 3, 10, 24] {
            assert_eq!(
                sched.earliest_whole_nodes_free(needed, now),
                sched.earliest_whole_nodes_free_naive(needed, now),
                "step {i}: reservation time diverges for needed={needed}"
            );
        }
        // Preemption plans for 1-, 4- and 10-node probes at each QoS tier;
        // the indexed side may answer from (and refresh) its memo of a
        // failed walk, so the sizes meet the memo's count at several gaps.
        for qos in [QosClass::High, QosClass::Normal, QosClass::Low] {
            for nodes in [1, 4, 10] {
                let probe = spec(900_000, nodes * 8, qos, t);
                assert_eq!(
                    sched.plan_preemption(&probe, now),
                    sched.plan_preemption_naive(&probe, now),
                    "step {i}: preemption plan diverges for a {nodes}-node {qos:?} probe"
                );
            }
        }
    }
}

/// The pre-arena job store layout: a `JobId → Job` hash map plus the
/// parallel last-interrupt map the slab arena folded into its slots.
/// The lockstep below drives both stores through one op stream and
/// demands identical answers to every query after every op.
#[derive(Default)]
struct RefJobStore {
    jobs: HashMap<JobId, Job>,
    last_interrupt: HashMap<JobId, JobStatus>,
}

impl RefJobStore {
    fn insert(&mut self, job: Job) {
        let prev = self.jobs.insert(job.spec.id, job);
        assert!(prev.is_none(), "duplicate id in reference store");
    }
    fn remove(&mut self, id: JobId) -> Option<Job> {
        // Eviction drops the sidecar state too, like an arena slot.
        self.last_interrupt.remove(&id);
        self.jobs.remove(&id)
    }
    fn set_last_interrupt(&mut self, id: JobId, status: JobStatus) {
        if self.jobs.contains_key(&id) {
            self.last_interrupt.insert(id, status);
        }
    }
}

/// Drives a [`JobArena`] and the [`RefJobStore`] reference through one
/// stream of `(op, id, extra)` commands — submit / interrupt / complete
/// (mutate in place) / evict on a small id universe so slots actually
/// recycle — checking every query agrees after every op, which proves
/// slot recycling is invisible to callers.
fn run_arena_lockstep(ops: &[(u8, u8, u8)]) {
    let ids: Vec<JobId> = (1..=24).map(JobId::new).collect();
    let mut arena = JobArena::new();
    let mut reference = RefJobStore::default();
    for (step, &(op, id_idx, extra)) in ops.iter().enumerate() {
        let id = ids[id_idx as usize % ids.len()];
        match op % 4 {
            // Submit: insert a fresh job (both stores reject
            // duplicates, so guard on liveness).
            0 => {
                if !arena.contains(id) {
                    let job = Job::new(spec(
                        id.raw(),
                        extra as u32 % 16 + 1,
                        qos_from(extra),
                        step as u64,
                    ));
                    arena.insert(job.clone());
                    reference.insert(job);
                }
            }
            // Interrupt: record the last-interrupt sidecar status.
            1 => {
                let status = if extra % 2 == 0 {
                    JobStatus::NodeFail
                } else {
                    JobStatus::Preempted
                };
                arena.set_last_interrupt(id, status);
                reference.set_last_interrupt(id, status);
            }
            // Complete a step of work: mutate the record in place.
            2 => {
                let a = arena.get_mut(id);
                let b = reference.jobs.get_mut(&id);
                assert_eq!(a.is_some(), b.is_some(), "step {step}: presence diverges");
                if let (Some(a), Some(b)) = (a, b) {
                    a.attempt += 1;
                    a.queue_time += SimDuration::from_mins(extra as u64);
                    b.attempt += 1;
                    b.queue_time += SimDuration::from_mins(extra as u64);
                }
            }
            // Evict: remove and compare the returned record.
            _ => {
                assert_eq!(
                    arena.remove(id),
                    reference.remove(id),
                    "step {step}: evicted records diverge"
                );
            }
        }
        // Full-store agreement after every op.
        assert_eq!(arena.len(), reference.jobs.len(), "step {step}: len");
        assert_eq!(arena.stats().live, reference.jobs.len());
        for &probe in &ids {
            assert_eq!(
                arena.get(probe),
                reference.jobs.get(&probe),
                "step {step}: get({probe}) diverges"
            );
            assert_eq!(arena.contains(probe), reference.jobs.contains_key(&probe));
            assert_eq!(
                arena.last_interrupt(probe),
                reference.last_interrupt.get(&probe).copied(),
                "step {step}: last_interrupt({probe}) diverges"
            );
        }
        // Iteration is order-insensitive by contract; compare as sets.
        let mut a: Vec<&Job> = arena.iter_jobs().collect();
        let mut b: Vec<&Job> = reference.jobs.values().collect();
        a.sort_by_key(|j| j.spec.id);
        b.sort_by_key(|j| j.spec.id);
        assert_eq!(a, b, "step {step}: live sets diverge");
    }
}

/// Deterministic pseudo-random lockstep runs (always executed, even where
/// the proptest harness is unavailable): 16 streams of 120 commands each.
#[test]
fn indexed_matches_naive_lockstep_deterministic() {
    for seed in 0u64..16 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 16
        };
        let cmds: Vec<(u8, u32, u8, u32)> = (0..120)
            .map(|_| {
                (
                    (step() % 6) as u8,
                    (step() % 79 + 1) as u32,
                    (step() % 3) as u8,
                    (step() % 24) as u32,
                )
            })
            .collect();
        run_lockstep(&cmds);
    }
}

/// Deterministic pseudo-random arena-vs-hashmap lockstep runs (always
/// executed, even where the proptest harness is unavailable).
#[test]
fn arena_matches_hashmap_lockstep_deterministic() {
    for seed in 0u64..16 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 16
        };
        let ops: Vec<(u8, u8, u8)> = (0..200)
            .map(|_| ((step() % 4) as u8, (step() % 24) as u8, (step() % 64) as u8))
            .collect();
        run_arena_lockstep(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every start is a whole gang allocation, and a node interrupt after
    /// any interleaving of submits and cycles applies without a panic.
    #[test]
    fn accounting_is_conserved(
        sizes in prop::collection::vec((1u32..64, 0u8..3), 1..40),
        interrupt_node in 0u32..16,
    ) {
        let topo = Topology::new(&ClusterSpec::new("p", 16));
        let mut sched = Scheduler::new(topo, SchedConfig::rsc_default());
        let mut t = 1u64;
        for (i, (gpus, qos)) in sizes.iter().enumerate() {
            sched.submit(spec(i as u64 + 1, (*gpus).min(128), qos_from(*qos), t));
            t += 1;
            let started = sched.cycle(SimTime::from_mins(t));
            for s in &started {
                // Gang property: whole allocation or nothing.
                prop_assert!(!s.nodes.is_empty());
            }
        }
        sched.interrupt_node(
            NodeId::new(interrupt_node),
            InterruptCause::NodeHang,
            SimTime::from_mins(t + 1),
        );
    }

    /// Records are well-formed: start ≥ enqueue, end ≥ start, node count
    /// matches the job's gang size.
    #[test]
    fn records_are_well_formed(
        sizes in prop::collection::vec((1u32..32, 0u8..3), 1..30),
    ) {
        let topo = Topology::new(&ClusterSpec::new("p", 8));
        let mut sched = Scheduler::new(topo, SchedConfig::rsc_default());
        let mut t = 1u64;
        let mut started_ids = Vec::new();
        for (i, (gpus, qos)) in sizes.iter().enumerate() {
            sched.submit(spec(i as u64 + 1, (*gpus).min(64), qos_from(*qos), t));
            for s in sched.cycle(SimTime::from_mins(t)) {
                started_ids.push((s.job, s.attempt));
            }
            t += 2;
        }
        for (id, attempt) in started_ids {
            sched.finish(id, attempt, JobStatus::Completed, SimTime::from_mins(t + 60));
        }
        for r in sched.records() {
            let start = r.started_at.expect("completed records started");
            prop_assert!(start >= r.enqueued_at);
            prop_assert!(r.ended_at >= start);
            if r.gpus >= 8 {
                prop_assert_eq!(r.nodes.len() as u32, r.gpus.div_ceil(8));
            } else {
                prop_assert_eq!(r.nodes.len(), 1);
            }
        }
    }

    /// Node interruption requeues every affected job exactly once with a
    /// bumped attempt, and the node ends up empty.
    #[test]
    fn interrupts_requeue_once(
        njobs in 1usize..10,
        cause_idx in 0u8..3,
    ) {
        let topo = Topology::new(&ClusterSpec::new("p", 1));
        let mut sched = Scheduler::new(topo, SchedConfig::rsc_default());
        for i in 0..njobs {
            // 1-GPU jobs share the single node (8 slots).
            sched.submit(spec(i as u64 + 1, 1, QosClass::Normal, 1));
        }
        let started = sched.cycle(SimTime::from_mins(1));
        let expected = njobs.min(8);
        prop_assert_eq!(started.len(), expected);
        let cause = match cause_idx % 3 {
            0 => InterruptCause::NodeHang,
            1 => InterruptCause::HealthCheck,
            _ => InterruptCause::AppCrash,
        };
        let victims = sched.interrupt_node(NodeId::new(0), cause, SimTime::from_hours(1));
        prop_assert_eq!(victims.len(), expected);
        prop_assert!(sched.jobs_on_node(NodeId::new(0)).is_empty());
        for v in victims {
            let job = sched.job(v).expect("requeued job exists");
            prop_assert!(job.is_pending());
            prop_assert_eq!(job.attempt, 1);
        }
    }

    /// The indexed hot path is a pure optimization: after every step of a
    /// random command stream, drains and returns included, each indexed
    /// query — allocation, the conservative-backfill reservation time and
    /// memoised preemption plans at three sizes and every QoS tier —
    /// answers exactly as its naive O(nodes) oracle does on the same state.
    #[test]
    fn indexed_scheduler_matches_naive_reference(
        cmds in prop::collection::vec((0u8..6, 1u32..80, 0u8..3, 0u32..24), 1..60),
    ) {
        run_lockstep(&cmds);
    }

    /// The slab arena is observationally a `HashMap<JobId, Job>` plus a
    /// last-interrupt map: random submit / interrupt / complete / evict
    /// streams produce identical answers to every query while slots
    /// recycle.
    #[test]
    fn arena_matches_hashmap_reference(
        ops in prop::collection::vec((0u8..4, 0u8..24, 0u8..64), 1..120),
    ) {
        run_arena_lockstep(&ops);
    }

    /// Priority ordering: when capacity suffices for exactly one job, the
    /// higher QoS submission always wins regardless of submission order.
    #[test]
    fn higher_qos_wins(flip in any::<bool>()) {
        let topo = Topology::new(&ClusterSpec::new("p", 1));
        let mut sched = Scheduler::new(topo, SchedConfig::rsc_default());
        let (first, second) = if flip {
            (QosClass::High, QosClass::Low)
        } else {
            (QosClass::Low, QosClass::High)
        };
        sched.submit(spec(1, 8, first, 1));
        sched.submit(spec(2, 8, second, 1));
        let started = sched.cycle(SimTime::from_mins(2));
        prop_assert_eq!(started.len(), 1);
        let winner = sched.job(started[0].job).expect("winner exists");
        prop_assert_eq!(winner.spec.qos, QosClass::High);
    }
}
