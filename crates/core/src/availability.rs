//! Node availability and repair-time analysis.
//!
//! Derives per-node downtime from the remediation enter/exit event stream:
//! measured MTTR distributions, fleet availability, and the worst
//! offenders — the operational view behind the paper's Obs. 1 ("cluster
//! uptime is critical") and the capacity cost of remediation.

use rsc_cluster::ids::NodeId;
use rsc_sim_core::stats::StreamingStats;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::{NodeEvent, NodeEventKind};
use rsc_telemetry::view::TelemetryView;

/// One node's availability summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAvailability {
    /// The node.
    pub node: NodeId,
    /// Completed remediation visits.
    pub repairs: u32,
    /// Total time out of service.
    pub downtime: SimDuration,
    /// Fraction of the measurement window the node was in service.
    pub availability: f64,
}

/// Fleet-wide availability summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAvailability {
    /// Per-node rows, ascending by node id.
    pub nodes: Vec<NodeAvailability>,
    /// Mean time to repair across completed visits, hours.
    pub mttr_hours: f64,
    /// 90th-percentile repair time, hours.
    pub mttr_p90_hours: f64,
    /// Fleet availability: in-service node-time / total node-time.
    pub fleet_availability: f64,
    /// Capacity lost to remediation, node-days.
    pub lost_node_days: f64,
}

/// Computes fleet availability from a sealed view's node events.
///
/// Remediation intervals still open at the horizon are charged up to the
/// horizon. The view's node events go through one [`RemediationVisits`]
/// fold; the 90th-percentile repair time is exact, over every closed
/// visit.
pub fn fleet_availability(view: &TelemetryView) -> FleetAvailability {
    let horizon = view.horizon();
    let mut visits = RemediationVisits::new(view.num_nodes());
    let mut repair_times: Vec<f64> = view
        .node_events()
        .iter()
        .filter_map(|e| visits.observe(e))
        .map(|d| d.as_hours())
        .collect();
    repair_times.sort_by(|a, b| a.partial_cmp(b).expect("finite repair times"));
    let p90 = rsc_sim_core::stats::quantile_sorted(&repair_times, 0.90).unwrap_or(0.0);
    let fleet = visits.snapshot(horizon, p90);

    let window = horizon.as_days().max(f64::MIN_POSITIVE);
    let nodes: Vec<NodeAvailability> = (0..visits.down_since.len())
        .map(|i| {
            let downtime = visits.downtime(i, horizon);
            NodeAvailability {
                node: NodeId::new(i as u32),
                repairs: visits.repairs[i],
                downtime,
                availability: 1.0 - (downtime.as_days() / window).min(1.0),
            }
        })
        .collect();

    FleetAvailability {
        nodes,
        mttr_hours: fleet.mttr_hours,
        mttr_p90_hours: p90,
        fleet_availability: fleet.fleet_availability,
        lost_node_days: fleet.lost_node_days,
    }
}

/// Fleet availability and repair time at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilitySnapshot {
    /// In-service node-time over total node-time up to the snapshot
    /// instant.
    pub fleet_availability: f64,
    /// Mean time to repair across completed visits, hours.
    pub mttr_hours: f64,
    /// 90th-percentile repair time, hours, as the caller measured it.
    pub mttr_p90_hours: f64,
    /// Capacity lost to remediation so far, node-days.
    pub lost_node_days: f64,
    /// Completed remediation visits.
    pub completed_repairs: u64,
    /// Remediation intervals still open.
    pub open_intervals: u32,
}

/// The remediation-visit fold: pairs each node's `EnterRemediation` with
/// its next `ExitRemediation`, one node event at a time, and charges a
/// visit still open to the instant asked about.
///
/// [`fleet_availability`] folds a sealed view's node events through it
/// and `rsc-monitor` feeds it live, so availability, MTTR and lost
/// node-days have this one implementation. Each caller keeps the closed
/// visits' durations ([`Self::observe`] returns them) in its own form for
/// the 90th percentile: the batch pass keeps every one, the monitor a
/// log histogram.
#[derive(Debug, Clone)]
pub struct RemediationVisits {
    down_since: Vec<Option<SimTime>>,
    downtime: Vec<SimDuration>,
    repairs: Vec<u32>,
    repair_stats: StreamingStats,
}

impl RemediationVisits {
    /// An empty fold over a fleet of `num_nodes`.
    pub fn new(num_nodes: u32) -> Self {
        let n = num_nodes as usize;
        RemediationVisits {
            down_since: vec![None; n],
            downtime: vec![SimDuration::ZERO; n],
            repairs: vec![0; n],
            repair_stats: StreamingStats::new(),
        }
    }

    /// Folds one node lifecycle event in and returns the duration of the
    /// visit it closes, if it closes one.
    ///
    /// Drains and the fallible-remediation transitions (failed attempts,
    /// escalations, probation) all happen while the node's visit is
    /// already open; quarantine simply never closes it, so the open visit
    /// is charged to the snapshot instant.
    pub fn observe(&mut self, e: &NodeEvent) -> Option<SimDuration> {
        let i = e.node.as_usize();
        if i >= self.down_since.len() {
            return None;
        }
        match e.kind {
            NodeEventKind::EnterRemediation if self.down_since[i].is_none() => {
                self.down_since[i] = Some(e.at);
                None
            }
            NodeEventKind::ExitRemediation => {
                let d = e.at.saturating_since(self.down_since[i].take()?);
                self.downtime[i] += d;
                self.repairs[i] += 1;
                self.repair_stats.push(d.as_hours());
                Some(d)
            }
            _ => None,
        }
    }

    /// Node `i`'s time out of service up to `now`, its open visit charged
    /// to `now`.
    fn downtime(&self, i: usize, now: SimTime) -> SimDuration {
        let open =
            self.down_since[i].map_or(SimDuration::ZERO, |start| now.saturating_since(start));
        self.downtime[i] + open
    }

    /// The fleet at `now`, with the caller's 90th-percentile repair time.
    pub fn snapshot(&self, now: SimTime, mttr_p90_hours: f64) -> AvailabilitySnapshot {
        let n = self.down_since.len();
        let window = now.as_days().max(f64::MIN_POSITIVE);
        let lost_node_days: f64 = (0..n).map(|i| self.downtime(i, now).as_days()).sum();
        AvailabilitySnapshot {
            fleet_availability: 1.0 - lost_node_days / (window * n.max(1) as f64),
            mttr_hours: self.repair_stats.mean(),
            mttr_p90_hours,
            lost_node_days,
            completed_repairs: self.repair_stats.count(),
            open_intervals: self.down_since.iter().filter(|d| d.is_some()).count() as u32,
        }
    }
}

/// The `k` nodes with the most downtime, descending.
pub fn worst_nodes(fleet: &FleetAvailability, k: usize) -> Vec<&NodeAvailability> {
    let mut refs: Vec<&NodeAvailability> = fleet.nodes.iter().collect();
    refs.sort_by(|a, b| b.downtime.cmp(&a.downtime).then(a.node.cmp(&b.node)));
    refs.truncate(k);
    refs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_telemetry::store::NodeEvent;
    use rsc_telemetry::TelemetryStore;

    fn store_with(events: Vec<(u32, u64, NodeEventKind)>, horizon_h: u64) -> TelemetryStore {
        let mut store = TelemetryStore::new("t", 4);
        for (node, at_h, kind) in events {
            store.push_node_event(NodeEvent {
                node: NodeId::new(node),
                at: SimTime::from_hours(at_h),
                kind,
            });
        }
        store.set_horizon(SimTime::from_hours(horizon_h));
        store
    }

    #[test]
    fn downtime_accumulates_per_visit() {
        use NodeEventKind::*;
        let store = store_with(
            vec![
                (1, 10, EnterRemediation),
                (1, 14, ExitRemediation),
                (1, 50, EnterRemediation),
                (1, 56, ExitRemediation),
            ],
            100,
        );
        let fleet = fleet_availability(&store.seal());
        let node1 = &fleet.nodes[1];
        assert_eq!(node1.repairs, 2);
        assert_eq!(node1.downtime, SimDuration::from_hours(10));
        assert!((node1.availability - (1.0 - 10.0 / 100.0)).abs() < 1e-9);
        assert!((fleet.mttr_hours - 5.0).abs() < 1e-9);
    }

    #[test]
    fn open_interval_charged_to_horizon() {
        use NodeEventKind::*;
        let store = store_with(vec![(2, 90, EnterRemediation)], 100);
        let fleet = fleet_availability(&store.seal());
        assert_eq!(fleet.nodes[2].downtime, SimDuration::from_hours(10));
        assert_eq!(fleet.nodes[2].repairs, 0); // visit never completed
    }

    #[test]
    fn fleet_availability_aggregates() {
        use NodeEventKind::*;
        // One of four nodes down for the whole 100 h window.
        let store = store_with(vec![(0, 0, EnterRemediation)], 100);
        let fleet = fleet_availability(&store.seal());
        assert!((fleet.fleet_availability - 0.75).abs() < 1e-9);
        assert!((fleet.lost_node_days - 100.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn worst_nodes_ordering() {
        use NodeEventKind::*;
        let store = store_with(
            vec![
                (0, 0, EnterRemediation),
                (0, 10, ExitRemediation),
                (3, 0, EnterRemediation),
                (3, 50, ExitRemediation),
            ],
            100,
        );
        let fleet = fleet_availability(&store.seal());
        let worst = worst_nodes(&fleet, 2);
        assert_eq!(worst[0].node, NodeId::new(3));
        assert_eq!(worst[1].node, NodeId::new(0));
    }

    #[test]
    fn empty_store_is_fully_available() {
        let mut store = TelemetryStore::new("t", 4);
        store.set_horizon(SimTime::from_days(10));
        let fleet = fleet_availability(&store.seal());
        assert_eq!(fleet.fleet_availability, 1.0);
        assert_eq!(fleet.mttr_hours, 0.0);
    }
}
