//! Figure/table data builders: the aggregations behind Figs. 3 and 6 and
//! the Table I printer.

use std::collections::BTreeMap;

use rsc_failure::taxonomy::FailureSymptom;
use rsc_sched::job::JobStatus;
use rsc_telemetry::view::TelemetryView;

/// One Fig. 3 row: a scheduler status with its share of jobs and GPU-time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatusShare {
    /// The status.
    pub status: JobStatus,
    /// Fraction of job records with this status.
    pub job_fraction: f64,
    /// Fraction of total GPU-time consumed by records with this status.
    pub gpu_time_fraction: f64,
}

/// Computes the Fig. 3 scheduler status breakdown.
pub fn status_breakdown(view: &TelemetryView) -> Vec<StatusShare> {
    let total_jobs = view.jobs().len() as f64;
    let total_gpu_time: f64 = view.jobs().iter().map(|r| r.gpu_time().as_hours()).sum();
    JobStatus::ALL
        .iter()
        .map(|&status| {
            let records = view.jobs().iter().filter(|r| r.status == status);
            let (count, gpu_time) = records.fold((0u64, 0.0f64), |(c, g), r| {
                (c + 1, g + r.gpu_time().as_hours())
            });
            StatusShare {
                status,
                job_fraction: if total_jobs > 0.0 {
                    count as f64 / total_jobs
                } else {
                    0.0
                },
                gpu_time_fraction: if total_gpu_time > 0.0 {
                    gpu_time / total_gpu_time
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// One Fig. 6 row: a job-size bucket with its share of jobs and compute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeShare {
    /// Job size bucket (exact GPU count as submitted).
    pub gpus: u32,
    /// Fraction of jobs at this size.
    pub job_fraction: f64,
    /// Fraction of GPU-time at this size.
    pub gpu_time_fraction: f64,
}

/// Computes the Fig. 6 job-size distribution (by jobs and by compute).
pub fn size_distribution(view: &TelemetryView) -> Vec<SizeShare> {
    let mut jobs: BTreeMap<u32, u64> = BTreeMap::new();
    let mut gpu_time: BTreeMap<u32, f64> = BTreeMap::new();
    // Count logical jobs once (attempt 0) but credit GPU-time from every
    // attempt.
    let mut total_jobs = 0u64;
    let mut total_gpu_time = 0.0f64;
    for r in view.jobs() {
        if r.attempt == 0 {
            *jobs.entry(r.gpus).or_insert(0) += 1;
            total_jobs += 1;
        }
        let g = r.gpu_time().as_hours();
        *gpu_time.entry(r.gpus).or_insert(0.0) += g;
        total_gpu_time += g;
    }
    jobs.keys()
        .map(|&gpus| SizeShare {
            gpus,
            job_fraction: jobs[&gpus] as f64 / total_jobs.max(1) as f64,
            gpu_time_fraction: gpu_time.get(&gpus).copied().unwrap_or(0.0)
                / total_gpu_time.max(f64::MIN_POSITIVE),
        })
        .collect()
}

/// Renders the paper's Table I as aligned text rows:
/// `(symptom, user?, system?, hardware?, likely causes)`.
pub fn taxonomy_table() -> Vec<(String, bool, bool, bool, String)> {
    use rsc_failure::taxonomy::FailureDomain::*;
    FailureSymptom::ALL
        .iter()
        .map(|&s| {
            let domains = s.domains();
            (
                s.label().to_string(),
                domains.contains(&UserProgram),
                domains.contains(&SystemSoftware),
                domains.contains(&HardwareInfra),
                s.likely_causes().to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, NodeId};
    use rsc_sched::accounting::JobRecord;
    use rsc_sched::job::QosClass;
    use rsc_sim_core::time::SimTime;
    use rsc_telemetry::TelemetryStore;

    fn record(id: u64, attempt: u32, gpus: u32, hours: u64, status: JobStatus) -> JobRecord {
        JobRecord {
            job: JobId::new(id),
            attempt,
            run: None,
            gpus,
            qos: QosClass::Normal,
            nodes: vec![NodeId::new(0)].into(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            ended_at: SimTime::from_hours(hours),
            status,
            preempted_by: None,
            instigator: None,
        }
    }

    #[test]
    fn status_breakdown_fractions_sum_to_one() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, 0, 8, 2, JobStatus::Completed));
        store.push(record(2, 0, 8, 2, JobStatus::Failed));
        store.push(record(3, 0, 16, 4, JobStatus::Completed));
        let shares = status_breakdown(&store.seal());
        let total_jobs: f64 = shares.iter().map(|s| s.job_fraction).sum();
        let total_gpu: f64 = shares.iter().map(|s| s.gpu_time_fraction).sum();
        assert!((total_jobs - 1.0).abs() < 1e-9);
        assert!((total_gpu - 1.0).abs() < 1e-9);
        let completed = shares
            .iter()
            .find(|s| s.status == JobStatus::Completed)
            .unwrap();
        assert!((completed.job_fraction - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn size_distribution_counts_logical_jobs_once() {
        let mut store = TelemetryStore::new("t", 4);
        store.push(record(1, 0, 8, 2, JobStatus::NodeFail));
        store.push(record(1, 1, 8, 3, JobStatus::Completed));
        store.push(record(2, 0, 16, 1, JobStatus::Completed));
        let dist = size_distribution(&store.seal());
        let eight = dist.iter().find(|s| s.gpus == 8).unwrap();
        assert!((eight.job_fraction - 0.5).abs() < 1e-9);
        // GPU-time for size 8 counts both attempts: (2+3)×8 = 40 of 56.
        assert!((eight.gpu_time_fraction - 40.0 / 56.0).abs() < 1e-9);
    }

    #[test]
    fn taxonomy_matches_table_one() {
        let table = taxonomy_table();
        assert_eq!(table.len(), FailureSymptom::ALL.len());
        let oom = table.iter().find(|r| r.0 == "oom").unwrap();
        assert!(oom.1 && !oom.2 && !oom.3);
        let nccl = table.iter().find(|r| r.0 == "nccl_timeout").unwrap();
        assert!(nccl.1 && nccl.2 && nccl.3);
    }
}
