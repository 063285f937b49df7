//! Queue-wait analysis.
//!
//! Fig. 9's one systematic deviation — the largest RSC-1 job runs beating
//! their ETTR prediction — traces to "actual wait times for these larger
//! job runs being shorter than average". This module computes the
//! wait-time statistics by job size and QoS tier that make such effects
//! visible.

use std::collections::BTreeMap;

use rsc_sched::job::QosClass;
use rsc_sim_core::stats::StreamingStats;
use rsc_telemetry::view::TelemetryView;

use crate::mttf::size_bucket;

/// Queue-wait summary for one (size bucket, QoS) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitBucket {
    /// The GPU count's [`size_bucket`].
    pub gpus_lo: u32,
    /// Scheduling tier.
    pub qos: QosClass,
    /// Number of started attempts in the cell.
    pub count: u64,
    /// Mean wait, hours.
    pub mean_wait_hours: f64,
    /// Maximum wait observed, hours.
    pub max_wait_hours: f64,
}

/// Computes wait statistics per (size, QoS) over all started attempts.
pub fn wait_by_size_and_qos(view: &TelemetryView) -> Vec<WaitBucket> {
    let mut cells: BTreeMap<(u32, u8), StreamingStats> = BTreeMap::new();
    for r in view.jobs() {
        if r.started_at.is_none() {
            continue;
        }
        let bucket = size_bucket(r.gpus);
        let qos_key = match r.qos {
            QosClass::Low => 0u8,
            QosClass::Normal => 1,
            QosClass::High => 2,
        };
        cells
            .entry((bucket, qos_key))
            .or_default()
            .push(r.queue_wait().as_hours());
    }
    cells
        .into_iter()
        .map(|((gpus_lo, qos_key), stats)| WaitBucket {
            gpus_lo,
            qos: match qos_key {
                0 => QosClass::Low,
                1 => QosClass::Normal,
                _ => QosClass::High,
            },
            count: stats.count(),
            mean_wait_hours: stats.mean(),
            max_wait_hours: stats.max(),
        })
        .collect()
}

/// The mean queue wait (hours) across every started attempt — the `q`
/// parameter the analytical ETTR model wants.
pub fn mean_wait_hours(view: &TelemetryView) -> f64 {
    let mut stats = StreamingStats::new();
    for r in view.jobs() {
        if r.started_at.is_some() {
            stats.push(r.queue_wait().as_hours());
        }
    }
    stats.mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, NodeId};
    use rsc_sched::accounting::JobRecord;
    use rsc_sched::job::JobStatus;
    use rsc_sim_core::time::SimTime;
    use rsc_telemetry::TelemetryStore;

    fn record(id: u64, gpus: u32, qos: QosClass, wait_hours: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(id),
            attempt: 0,
            run: None,
            gpus,
            qos,
            nodes: vec![NodeId::new(0)].into(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::from_hours(wait_hours)),
            ended_at: SimTime::from_hours(wait_hours + 2),
            status: JobStatus::Completed,
            preempted_by: None,
            instigator: None,
        }
    }

    #[test]
    fn cells_partition_by_size_and_qos() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, 8, QosClass::Low, 4));
        store.push(record(2, 8, QosClass::Low, 2));
        store.push(record(3, 8, QosClass::High, 0));
        store.push(record(4, 256, QosClass::High, 1));
        let buckets = wait_by_size_and_qos(&store.seal());
        assert_eq!(buckets.len(), 3);
        let low8 = buckets
            .iter()
            .find(|b| b.gpus_lo == 8 && b.qos == QosClass::Low)
            .unwrap();
        assert_eq!(low8.count, 2);
        assert!((low8.mean_wait_hours - 3.0).abs() < 1e-9);
        assert!((low8.max_wait_hours - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mean_wait_over_all() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, 8, QosClass::Low, 4));
        store.push(record(2, 8, QosClass::High, 0));
        assert!((mean_wait_hours(&store.seal()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn never_started_records_skipped() {
        let mut store = TelemetryStore::new("t", 4);
        let mut r = record(1, 8, QosClass::Low, 4);
        r.started_at = None;
        store.push(r);
        let view = store.seal();
        assert!(wait_by_size_and_qos(&view).is_empty());
        assert_eq!(mean_wait_hours(&view), 0.0);
    }
}
