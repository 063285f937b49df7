//! The immutable, fully-indexed read side of the telemetry pipeline.
//!
//! [`TelemetryStore`](crate::store::TelemetryStore) is the append-only
//! writer the simulation driver fills; sealing it produces a
//! [`TelemetryView`]: a frozen copy of every stream plus per-node,
//! time-sorted indexes built exactly once. Window queries on the view are
//! `&self` binary searches, so any number of analyses — or threads, the
//! view is `Send + Sync` — can share one sealed run.

use std::collections::HashMap;

use rsc_cluster::ids::NodeId;
use rsc_failure::injector::FailureEvent;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sim_core::time::SimTime;

use crate::chain::chain_digest;
use crate::store::{CheckpointFallbackEvent, ControlActionEvent, ExclusionEvent, NodeEvent};

/// An immutable, sealed view over one run's telemetry.
///
/// Constructed by [`TelemetryStore::seal`](crate::store::TelemetryStore::seal)
/// or by loading a snapshot ([`crate::snapshot`]). All accessors take
/// `&self`; the per-node health index is built once at seal time and never
/// invalidated.
#[derive(Debug, Clone)]
pub struct TelemetryView {
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
    /// Per node: indices into `health_events`, sorted by (time, position).
    node_health_index: HashMap<NodeId, Vec<usize>>,
}

/// Builds the per-node health index: for each node, its indices into
/// `health_events` sorted by (time, position).
fn build_health_index(health_events: &[HealthEvent]) -> HashMap<NodeId, Vec<usize>> {
    let mut index: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, e) in health_events.iter().enumerate() {
        index.entry(e.node).or_default().push(i);
    }
    for idxs in index.values_mut() {
        // Stable by (time, insertion position) so equal timestamps keep
        // their detection order and the sort is deterministic.
        idxs.sort_by_key(|&i| (health_events[i].at, i));
    }
    index
}

impl TelemetryView {
    /// Builds a view from the parts of a consumed store.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
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
    ) -> Self {
        let index = build_health_index(&health_events);
        TelemetryView {
            cluster_name,
            num_nodes,
            horizon,
            jobs,
            health_events,
            node_events,
            exclusions,
            ground_truth_failures,
            ckpt_fallbacks,
            control_actions,
            gpu_swaps,
            node_health_index: index,
        }
    }

    /// Chain heads of the seven streams, in snapshot section order: jobs,
    /// health, node events, exclusions, failures, ckpt fallbacks, control
    /// actions. Folded from the records on every call, never stored, so
    /// two views of the same records have the same heads.
    pub fn chain_heads(&self) -> [u64; 7] {
        [
            chain_digest(&self.jobs),
            chain_digest(&self.health_events),
            chain_digest(&self.node_events),
            chain_digest(&self.exclusions),
            chain_digest(&self.ground_truth_failures),
            chain_digest(&self.ckpt_fallbacks),
            chain_digest(&self.control_actions),
        ]
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

    /// Total GPU swaps performed by repairs over the run.
    pub fn gpu_swaps(&self) -> u64 {
        self.gpu_swaps
    }

    /// All job accounting records, in completion order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// All health events, in detection order.
    pub fn health_events(&self) -> &[HealthEvent] {
        &self.health_events
    }

    /// All node lifecycle events.
    pub fn node_events(&self) -> &[NodeEvent] {
        &self.node_events
    }

    /// All user node exclusions.
    pub fn exclusions(&self) -> &[ExclusionEvent] {
        &self.exclusions
    }

    /// Ground-truth failure injections (not available to "operators";
    /// used to validate attribution and detection).
    pub fn ground_truth_failures(&self) -> &[FailureEvent] {
        &self.ground_truth_failures
    }

    /// All checkpoint-fallback events, in occurrence order.
    pub fn ckpt_fallbacks(&self) -> &[CheckpointFallbackEvent] {
        &self.ckpt_fallbacks
    }

    /// All closed-loop control actions, in drain order. Empty for every
    /// open-loop (controller-free) run.
    pub fn control_actions(&self) -> &[ControlActionEvent] {
        &self.control_actions
    }

    /// Health events on `node` within `[from, to]`, in time order.
    ///
    /// A binary search over the per-node index built at seal time — no
    /// mutation, no lazy state, no allocation, safe to call from many
    /// threads at once. Ask `.next().is_none()` to test for an empty
    /// window, or `.len()` to count it.
    pub fn health_events_for_node(
        &self,
        node: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> impl ExactSizeIterator<Item = &HealthEvent> + '_ {
        let idxs = self.node_health_index.get(&node).map_or(&[][..], |v| v);
        let lo = idxs.partition_point(|&i| self.health_events[i].at < from);
        let hi = idxs.partition_point(|&i| self.health_events[i].at <= to);
        idxs[lo..hi].iter().map(|&i| &self.health_events[i])
    }

    /// Total node-days of job runtime across all records (the failure-rate
    /// denominator), restricted to jobs using more than `min_gpus` GPUs.
    pub fn node_days_of_runtime(&self, min_gpus: u32) -> f64 {
        self.jobs
            .iter()
            .filter(|r| r.gpus > min_gpus)
            .map(|r| r.node_days())
            .sum()
    }

    /// Copies the view's streams back into an append-only store, so tests
    /// can derive a modified scenario from a sealed one.
    #[cfg(test)]
    pub(crate) fn to_store(&self) -> crate::store::TelemetryStore {
        let mut store =
            crate::store::TelemetryStore::new(self.cluster_name.clone(), self.num_nodes);
        store.set_horizon(self.horizon);
        store.set_gpu_swaps(self.gpu_swaps);
        store.extend_jobs(self.jobs.iter().cloned());
        for e in &self.health_events {
            store.push_health_event(*e);
        }
        for e in &self.node_events {
            store.push_node_event(*e);
        }
        for e in &self.exclusions {
            store.push_exclusion(*e);
        }
        for e in &self.ground_truth_failures {
            store.push_ground_truth(*e);
        }
        for e in &self.ckpt_fallbacks {
            store.push_ckpt_fallback(*e);
        }
        for e in &self.control_actions {
            store.push_control_action(*e);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TelemetryStore;
    use rsc_cluster::ids::JobId;
    use rsc_failure::modes::Severity;
    use rsc_health::check::CheckKind;
    use rsc_sched::job::{JobStatus, QosClass};

    fn health_event(node: u32, at_secs: u64) -> HealthEvent {
        HealthEvent {
            at: SimTime::from_secs(at_secs),
            node: NodeId::new(node),
            check: CheckKind::IbLink,
            severity: Severity::High,
            signal: None,
            false_positive: false,
        }
    }

    fn job_record(gpus: u32, nodes: u32, hours: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(1),
            attempt: 0,
            run: None,
            gpus,
            qos: QosClass::Normal,
            nodes: (0..nodes).map(NodeId::new).collect(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            ended_at: SimTime::from_hours(hours),
            status: JobStatus::Completed,
            preempted_by: None,
            instigator: None,
        }
    }

    /// Linear-scan oracle for [`TelemetryView::health_events_for_node`]:
    /// filter by node and window, then a stable sort by time, so equal
    /// timestamps keep their stream position.
    fn scan(events: &[HealthEvent], node: u32, from: u64, to: u64) -> Vec<HealthEvent> {
        let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
        let mut hits: Vec<HealthEvent> = events
            .iter()
            .filter(|e| e.node == NodeId::new(node) && e.at >= from && e.at <= to)
            .copied()
            .collect();
        hits.sort_by_key(|e| e.at);
        hits
    }

    fn query(view: &TelemetryView, node: u32, from: u64, to: u64) -> Vec<HealthEvent> {
        view.health_events_for_node(
            NodeId::new(node),
            SimTime::from_secs(from),
            SimTime::from_secs(to),
        )
        .copied()
        .collect()
    }

    #[test]
    fn sealed_window_query_matches_oracle() {
        let mut store = TelemetryStore::new("t", 4);
        store.push_health_event(health_event(1, 100));
        store.push_health_event(health_event(1, 200));
        store.push_health_event(health_event(2, 150));
        store.push_health_event(health_event(1, 150));
        let view = store.seal();
        let got = query(&view, 1, 120, 300);
        // The index is time-sorted even where detection order is not.
        let ats: Vec<u64> = got.iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(ats, [150, 200]);
        assert_eq!(got, scan(view.health_events(), 1, 120, 300));
    }

    #[test]
    fn window_query_filters_by_node_and_time() {
        let mut store = TelemetryStore::new("t", 4);
        store.push_health_event(health_event(1, 100));
        store.push_health_event(health_event(1, 200));
        store.push_health_event(health_event(2, 150));
        let view = store.seal();
        let hits = query(&view, 1, 150, 300);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].at, SimTime::from_secs(200));
        assert_eq!(hits, scan(view.health_events(), 1, 150, 300));
    }

    #[test]
    fn window_queries_match_oracle_on_a_shuffled_stream() {
        // Duplicate timestamps, interleaved nodes, and ids beyond
        // `num_nodes` (accepted by the store, never produced by the driver).
        // Alternating `false_positive` makes tie order visible.
        let num_nodes = 64u32;
        let mut store = TelemetryStore::new("t", num_nodes);
        let mut x: u64 = 9;
        for i in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let node = (x >> 33) % (num_nodes as u64 + 2);
            let mut event = health_event(node as u32, (x >> 11) % 512);
            event.false_positive = i % 2 == 1;
            store.push_health_event(event);
        }
        let view = store.seal();
        for node in 0..num_nodes + 3 {
            for (from, to) in [(0, u64::MAX), (0, 0), (100, 300), (511, 511)] {
                assert_eq!(
                    query(&view, node, from, to),
                    scan(view.health_events(), node, from, to),
                    "node {node}, window [{from}, {to}]"
                );
            }
        }
    }

    #[test]
    fn window_bounds_are_inclusive() {
        let mut store = TelemetryStore::new("t", 4);
        store.push_health_event(health_event(3, 100));
        store.push_health_event(health_event(3, 200));
        store.push_health_event(health_event(3, 300));
        let view = store.seal();
        let hits = view.health_events_for_node(
            NodeId::new(3),
            SimTime::from_secs(100),
            SimTime::from_secs(300),
        );
        assert_eq!(hits.len(), 3);
        let hits = view.health_events_for_node(
            NodeId::new(3),
            SimTime::from_secs(101),
            SimTime::from_secs(299),
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn unknown_node_query_is_empty() {
        let view = TelemetryStore::new("t", 4).seal();
        assert!(view
            .health_events_for_node(NodeId::new(3), SimTime::ZERO, SimTime::MAX)
            .next()
            .is_none());
    }

    #[test]
    fn scalars_and_streams_survive_sealing() {
        let mut store = TelemetryStore::new("rsc-test", 8);
        store.set_horizon(SimTime::from_hours(10));
        store.set_gpu_swaps(3);
        store.push_job(job_record(8, 1, 24)); // 1 node-day
        store.push_job(job_record(256, 32, 24)); // 32 node-days
        store.push_health_event(health_event(1, 60));
        let view = store.seal();
        assert_eq!(view.cluster_name(), "rsc-test");
        assert_eq!(view.num_nodes(), 8);
        assert_eq!(view.horizon(), SimTime::from_hours(10));
        assert_eq!(view.gpu_swaps(), 3);
        assert_eq!(view.jobs().len(), 2);
        assert_eq!(view.health_events().len(), 1);
        assert!((view.node_days_of_runtime(0) - 33.0).abs() < 1e-12);
        assert!((view.node_days_of_runtime(128) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn to_store_round_trips_all_streams() {
        let mut store = TelemetryStore::new("t", 4);
        store.set_horizon(SimTime::from_hours(1));
        store.push_job(job_record(8, 1, 1));
        store.push_health_event(health_event(1, 10));
        let view = store.clone().seal();
        let back = view.to_store();
        assert_eq!(back.jobs(), store.jobs());
        assert_eq!(back.health_events(), store.health_events());
        assert_eq!(back.horizon(), store.horizon());
    }

    #[test]
    fn view_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TelemetryView>();
    }
}
