//! Property-based tests of the analysis estimators.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use rsc_cluster::gpu::XidError;
use rsc_cluster::ids::{JobId, JobRunId, NodeId, NodeList};
use rsc_core::attribution::{
    attribute_failures, is_failure_status, primary_cause, Attribution, AttributionConfig,
};
use rsc_core::availability::{fleet_availability, FleetAvailability, NodeAvailability};
use rsc_core::ettr::analytical::{expected_ettr, expected_ettr_simplified, EttrParams};
use rsc_core::ettr::jobrun::{ettr_by_size_bucket, reconstruct_job_runs, JobRun};
use rsc_core::ettr::requirements::max_coupled_interval_mins;
use rsc_core::goodput::{goodput_loss, GoodputLoss, GoodputLossPoint};
use rsc_core::lemon::{compute_features, LemonFeatures, WindowedLemon};
use rsc_core::mttf::{
    estimate_node_failure_rate, estimate_status_only_failure_rate, gamma_mttf_ci, mttf_by_job_size,
    power_of_two_bucket, round_up_to_server, size_bucket, FailureScope, MttfPoint, MttfProjection,
    TOP_SIZE_BUCKET,
};
use rsc_failure::modes::Severity;
use rsc_failure::signals::SignalKind;
use rsc_health::check::CheckKind;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::stats::{quantile_sorted, StreamingStats};
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::{CheckpointFallbackEvent, ExclusionEvent, NodeEvent, NodeEventKind};
use rsc_telemetry::view::TelemetryView;
use rsc_telemetry::TelemetryStore;

fn params(nodes: u32, r_f: f64, q: f64, u0: f64, cp: f64, r: f64) -> EttrParams {
    EttrParams {
        nodes,
        r_f,
        queue_time: q,
        restart_overhead: u0,
        checkpoint_interval: cp,
        productive_time: r,
    }
}

proptest! {
    /// ETTR stays in [0, 1] and is monotone: worse failure rates, longer
    /// checkpoints, longer queues all reduce it.
    #[test]
    fn ettr_bounded_and_monotone(
        nodes in 1u32..20_000,
        r_f in 1e-5f64..2e-2,
        q in 0.0f64..0.2,
        u0 in 0.0f64..0.05,
        cp in 1e-4f64..0.2,
        r in 0.5f64..30.0,
    ) {
        let p = params(nodes, r_f, q, u0, cp, r);
        let e = expected_ettr(&p);
        prop_assert!((0.0..=1.0).contains(&e));
        let worse_rate = expected_ettr(&params(nodes, r_f * 2.0, q, u0, cp, r));
        prop_assert!(worse_rate <= e + 1e-12);
        let worse_cp = expected_ettr(&params(nodes, r_f, q, u0, cp * 2.0, r));
        prop_assert!(worse_cp <= e + 1e-12);
        let worse_q = expected_ettr(&params(nodes, r_f, q + 0.1, u0, cp, r));
        prop_assert!(worse_q <= e + 1e-12);
        // The simplified form ignores queueing, so it upper-bounds the
        // full formula.
        prop_assert!(expected_ettr_simplified(&p) >= e - 1e-12);
    }

    /// The requirement solver is consistent: the solved interval achieves
    /// the target, and a 2x longer interval does not.
    #[test]
    fn requirement_solver_consistent(
        gpus in 1_000u32..200_000,
        r_f in 5e-4f64..1e-2,
        target in 0.3f64..0.95,
    ) {
        if let Some(mins) = max_coupled_interval_mins(gpus, r_f, target, 1.0, 7.0) {
            let eval = |cp: f64| {
                expected_ettr(&params(
                    gpus.div_ceil(8),
                    r_f,
                    1.0 / 60.0 / 24.0,
                    cp / 60.0 / 24.0,
                    cp / 60.0 / 24.0,
                    7.0,
                ))
            };
            prop_assert!(eval(mins) >= target - 1e-6, "solved interval misses target");
            if mins < 12.0 * 60.0 {
                prop_assert!(eval(mins * 2.0) < target + 1e-6);
            }
        }
    }

    /// Gamma CIs bracket the point estimate and shrink with more data.
    #[test]
    fn gamma_ci_brackets(failures in 1u64..5000, mttf in 0.1f64..1000.0) {
        let exposure = failures as f64 * mttf;
        let (lo, hi) = gamma_mttf_ci(failures, exposure, 0.90).expect("valid inputs");
        prop_assert!(lo <= mttf && mttf <= hi, "({lo}, {mttf}, {hi})");
        let (lo4, hi4) = gamma_mttf_ci(failures * 4, exposure * 4.0, 0.90).expect("valid");
        prop_assert!((hi4 - lo4) <= (hi - lo) * 1.01);
    }

    /// MTTF projection is inverse in node count (up to the 1-second
    /// quantization of `SimDuration`).
    #[test]
    fn projection_inverse_scaling(r_f in 1e-4f64..1e-2, servers in 1u32..10_000) {
        let proj = MttfProjection::new(r_f);
        let one = proj.mttf_hours(8);
        let many = proj.mttf_hours(8 * servers);
        // The small-side MTTF is quantized to whole seconds; allow that.
        let quantization = 1.0 / (many * 3600.0);
        let tol = servers as f64 * (1e-6 + 2.0 * quantization);
        prop_assert!((one / many - servers as f64).abs() < tol);
    }

    /// Size bucketing: the bucket always contains the rounded size and is
    /// a power-of-two number of servers.
    #[test]
    fn buckets_contain_size(gpus in 1u32..100_000) {
        let rounded = round_up_to_server(gpus);
        prop_assert!(rounded >= gpus && rounded.is_multiple_of(8));
        let bucket = power_of_two_bucket(gpus);
        prop_assert!(bucket >= rounded);
        prop_assert!((bucket / 8).is_power_of_two());
    }

    /// Measured job-run ETTR is in [0, 1] for any run shape.
    #[test]
    fn measured_ettr_bounded(
        attempts in 1u32..50,
        sched_hours in 1u64..2000,
        queued_hours in 0u64..500,
        cp_mins in 1u64..240,
        u0_mins in 0u64..60,
    ) {
        let run = JobRun {
            gpus: 256,
            qos: QosClass::High,
            attempts,
            scheduled: SimDuration::from_hours(sched_hours),
            queued: SimDuration::from_hours(queued_hours),
            final_status: JobStatus::Completed,
        };
        let e = run.measured_ettr(
            SimDuration::from_mins(cp_mins),
            SimDuration::from_mins(u0_mins),
        );
        prop_assert!((0.0..=1.0).contains(&e));
        // More interruptions never increase measured ETTR.
        let worse = JobRun { attempts: attempts + 5, ..run };
        let e2 = worse.measured_ettr(
            SimDuration::from_mins(cp_mins),
            SimDuration::from_mins(u0_mins),
        );
        prop_assert!(e2 <= e + 1e-12);
    }
}

/// `projection_inverse_scaling` at a point outside its range: at
/// r_f = 0.083 per node-day, 3,239 servers fail every ~320 s, so the
/// 1-second quantization is coarser than anywhere inside the range
/// (at least 864 s there), and the bound still holds.
#[test]
fn projection_inverse_scaling_at_coarse_quantization() {
    let (r_f, servers) = (0.0834571556881998, 3239u32);
    let proj = MttfProjection::new(r_f);
    let one = proj.mttf_hours(8);
    let many = proj.mttf_hours(8 * servers);
    let quantization = 1.0 / (many * 3600.0);
    let tol = servers as f64 * (1e-6 + 2.0 * quantization);
    assert!((one / many - servers as f64).abs() < tol);
}

/// The keyed-map grouping `reconstruct_job_runs` is specified by: records
/// grouped by run id (else job id), groups in key order, each group
/// stably sorted by (enqueued_at, attempt), then the size-first sort.
fn reference_job_runs(jobs: &[JobRecord]) -> Vec<JobRun> {
    let mut groups: BTreeMap<(u8, u64), Vec<&JobRecord>> = BTreeMap::new();
    for r in jobs {
        let key = match r.run {
            Some(run) => (0u8, run.raw()),
            None => (1u8, r.job.raw()),
        };
        groups.entry(key).or_default().push(r);
    }
    let mut runs: Vec<JobRun> = groups
        .into_values()
        .map(|mut records| {
            records.sort_by_key(|r| (r.enqueued_at, r.attempt));
            let last = records.last().expect("non-empty group");
            JobRun {
                gpus: records.iter().map(|r| r.gpus).max().unwrap_or(0),
                qos: last.qos,
                attempts: records.len() as u32,
                scheduled: records.iter().map(|r| r.runtime()).sum(),
                queued: records.iter().map(|r| r.queue_wait()).sum(),
                final_status: last.status,
            }
        })
        .collect();
    runs.sort_by(|a, b| {
        b.gpus
            .cmp(&a.gpus)
            .then(b.scheduled.cmp(&a.scheduled))
            .then(b.attempts.cmp(&a.attempts))
    });
    runs
}

prop_compose! {
    /// Small id and time ranges so run ids collide with job ids, `None`
    /// runs mix with `Some`, and enqueue times and attempts tie often.
    fn arb_job_record()(
        job in 0u64..6,
        run in prop::option::of(0u64..6),
        attempt in 0u32..3,
        gpus in 1u32..5,
        qos_idx in 0u8..3,
        enq in 0u64..4,
        start in prop::option::of(0u64..3),
        runtime in 0u64..3,
        status_idx in 0u8..8,
    ) -> JobRecord {
        let started_at = start.map(|s| SimTime::from_hours(enq + s));
        JobRecord {
            job: JobId::new(job),
            attempt,
            run: run.map(JobRunId::new),
            gpus: gpus * 8,
            qos: [QosClass::Low, QosClass::Normal, QosClass::High][qos_idx as usize],
            nodes: Default::default(),
            enqueued_at: SimTime::from_hours(enq),
            started_at,
            ended_at: started_at.unwrap_or(SimTime::from_hours(enq))
                + SimDuration::from_hours(runtime),
            status: JobStatus::ALL[status_idx as usize % JobStatus::ALL.len()],
            preempted_by: None,
            instigator: None,
        }
    }
}

proptest! {
    /// Job-run reconstruction equals the keyed-map grouping run for run,
    /// in the same order, including which record counts as a run's last.
    #[test]
    fn job_runs_match_keyed_map_grouping(
        jobs in prop::collection::vec(arb_job_record(), 0..40),
    ) {
        let mut store = TelemetryStore::new("t", 8);
        store.extend(jobs.iter().cloned());
        prop_assert_eq!(reconstruct_job_runs(&store.seal()), reference_job_runs(&jobs));
    }
}

prop_compose! {
    /// Job ids and run ids spread over several key bytes, GPU counts over
    /// several bytes up to 2^31, and runtimes up to months, so the
    /// reconstruction's sorts see keys that differ in many bytes at once.
    fn arb_wide_job_record()(
        job in 0u64..6,
        job_shift in 0u32..8,
        run in prop::option::of(0u64..6),
        run_shift in 0u32..8,
        attempt in 0u32..3,
        gpus_raw in 0u32..4,
        gpus_shift in 0u32..29,
        enq in 0u64..4,
        start in prop::option::of(0u64..3),
        runtime in 0u64..3,
        runtime_shift in 0u32..24,
        status_idx in 0u8..8,
    ) -> JobRecord {
        let started_at = start.map(|s| SimTime::from_hours(enq + s));
        JobRecord {
            job: JobId::new(job << (8 * job_shift)),
            attempt,
            run: run.map(|r| JobRunId::new(r << (8 * run_shift))),
            gpus: gpus_raw << gpus_shift,
            qos: QosClass::ALL[attempt as usize],
            nodes: Default::default(),
            enqueued_at: SimTime::from_hours(enq),
            started_at,
            ended_at: started_at.unwrap_or(SimTime::from_hours(enq))
                + SimDuration::from_secs(runtime << runtime_shift),
            status: JobStatus::ALL[status_idx as usize % JobStatus::ALL.len()],
            preempted_by: None,
            instigator: None,
        }
    }
}

proptest! {
    /// The reconstruction's order holds however many key bytes vary.
    #[test]
    fn job_runs_match_keyed_map_grouping_on_wide_keys(
        jobs in prop::collection::vec(arb_wide_job_record(), 0..60),
    ) {
        let mut store = TelemetryStore::new("t", 8);
        store.extend(jobs.iter().cloned());
        prop_assert_eq!(reconstruct_job_runs(&store.seal()), reference_job_runs(&jobs));
    }
}

/// Nodes 0..NODES host the jobs; health events also land on the two nodes
/// above, which no job uses.
const NODES: u32 = 6;

/// A view's streams, before sealing, and the window to attribute with.
#[derive(Debug, Clone)]
struct Scenario {
    jobs: Vec<JobRecord>,
    health: Vec<HealthEvent>,
    fallbacks: Vec<CheckpointFallbackEvent>,
    config: AttributionConfig,
}

impl Scenario {
    fn seal(&self) -> TelemetryView {
        let mut store = TelemetryStore::new("t", NODES + 2);
        store.extend(self.jobs.iter().cloned());
        for &e in &self.health {
            store.push(e);
        }
        for &e in &self.fallbacks {
            store.push(e);
        }
        store.seal()
    }
}

/// GPU counts the buckets care about: small sizes, whole servers, and
/// sizes up to 2^31 (above it the pre-array references overflow).
fn gpus_of(kind: u8, raw: u32) -> u32 {
    match kind % 4 {
        0 => raw % 17,
        1 => 8 * (1 + raw % 512),
        2 => TOP_SIZE_BUCKET - raw % 9,
        _ => 1 << (raw % 32),
    }
}

prop_compose! {
    fn arb_attributed_job()(
        job in 0u64..1_000,
        status_idx in 0u8..8,
        gpus in (0u8..4, any::<u32>()),
        nodes in prop::collection::vec(0u32..NODES, 0..4),
        end_mins in 0u64..240,
        runtime_mins in prop::option::of(0u64..90),
        instigated in any::<bool>(),
    ) -> JobRecord {
        let ended_at = SimTime::from_secs(end_mins * 60);
        let status = JobStatus::ALL[status_idx as usize % JobStatus::ALL.len()];
        JobRecord {
            job: JobId::new(job),
            attempt: 0,
            run: None,
            gpus: gpus_of(gpus.0, gpus.1),
            qos: QosClass::Normal,
            nodes: nodes.into_iter().map(NodeId::new).collect(),
            enqueued_at: SimTime::ZERO,
            started_at: runtime_mins.map(|m| ended_at - SimDuration::from_mins(m)),
            ended_at,
            status,
            preempted_by: None,
            instigator: (instigated && status == JobStatus::Preempted).then(|| JobId::new(9)),
        }
    }
}

prop_compose! {
    /// Random views in which health events sit exactly on both window
    /// edges, one second outside them, at the job's end and anywhere;
    /// on the job's nodes and on nodes no job uses; pushed in no time
    /// order.
    fn arb_scenario()(
        jobs in prop::collection::vec(arb_attributed_job(), 0..24),
        events in prop::collection::vec(
            (any::<u16>(), 0u8..6, any::<u16>(), 0usize..12, 0u64..300), 0..40),
        fallbacks in prop::collection::vec((0u64..240, (0u8..4, any::<u32>()), 0u64..300), 0..4),
        before_mins in 0u64..15,
        after_mins in 0u64..8,
    ) -> Scenario {
        let config = AttributionConfig {
            window_before: SimDuration::from_mins(before_mins),
            window_after: SimDuration::from_mins(after_mins),
        };
        let health = events
            .into_iter()
            .map(|(pick, edge, node, check, anywhere_mins)| {
                let job = (!jobs.is_empty()).then(|| &jobs[pick as usize % jobs.len()]);
                let end = job.map_or(SimTime::ZERO, |r| r.ended_at);
                let (from, to) = (end - config.window_before, end + config.window_after);
                let at = match edge {
                    0 => from,
                    1 => to,
                    2 => from - SimDuration::from_secs(1),
                    3 => to + SimDuration::from_secs(1),
                    4 => end,
                    _ => SimTime::from_secs(anywhere_mins * 60),
                };
                let node = match job {
                    Some(r) if !r.nodes.is_empty() && node % 3 != 0 => {
                        r.nodes[node as usize % r.nodes.len()]
                    }
                    _ => NodeId::new(u32::from(node) % (NODES + 2)),
                };
                HealthEvent {
                    at,
                    node,
                    check: CheckKind::ALL[check],
                    severity: Severity::High,
                    signal: None,
                    false_positive: false,
                }
            })
            .collect();
        let fallbacks = fallbacks
            .into_iter()
            .map(|(at_mins, gpus, lost_mins)| CheckpointFallbackEvent {
                at: SimTime::from_secs(at_mins * 60),
                job: JobId::new(1),
                gpus: gpus_of(gpus.0, gpus.1),
                intervals: 1,
                lost: SimDuration::from_mins(lost_mins),
            })
            .collect();
        Scenario { jobs, health, fallbacks, config }
    }
}

/// Attribution by brute force: every health event on one of the job's
/// nodes with `from <= at <= to`, nodes in record order, each node's
/// events in time order with ties in stream order.
fn brute_force_attributions(view: &TelemetryView, config: &AttributionConfig) -> Vec<Attribution> {
    let mut out = Vec::new();
    for (record_index, r) in view.jobs().iter().enumerate() {
        if !is_failure_status(r.status) {
            continue;
        }
        let (from, to) = (
            r.ended_at - config.window_before,
            r.ended_at + config.window_after,
        );
        let mut checks = Vec::new();
        for &node in &r.nodes {
            let mut hits: Vec<&HealthEvent> = view
                .health_events()
                .iter()
                .filter(|e| e.node == node && from <= e.at && e.at <= to)
                .collect();
            hits.sort_by_key(|e| e.at);
            for e in hits {
                if !checks.contains(&e.check) {
                    checks.push(e.check);
                }
            }
        }
        out.push(Attribution {
            record_index,
            cause: primary_cause(&checks),
            checks,
        });
    }
    out
}

/// Record indices of infrastructure failures, as the pre-array MTTF code
/// collected them.
fn reference_infra(view: &TelemetryView, config: &AttributionConfig) -> HashSet<usize> {
    brute_force_attributions(view, config)
        .into_iter()
        .filter(|a| {
            let status = view.jobs()[a.record_index].status;
            matches!(status, JobStatus::NodeFail | JobStatus::Requeued)
                || (status == JobStatus::Failed && a.is_attributed())
        })
        .map(|a| a.record_index)
        .collect()
}

/// The pre-array `mttf_by_job_size`: a `HashSet` of infra indices and
/// `BTreeMap` buckets.
fn reference_mttf(
    view: &TelemetryView,
    scope: FailureScope,
    config: &AttributionConfig,
) -> Vec<MttfPoint> {
    let infra = match scope {
        FailureScope::AllFailures => HashSet::new(),
        FailureScope::InfraOnly => reference_infra(view, config),
    };
    let mut buckets: BTreeMap<u32, (u64, f64)> = BTreeMap::new();
    for (i, r) in view.jobs().iter().enumerate() {
        if r.started_at.is_none() {
            continue;
        }
        let servers = r.gpus.div_ceil(8);
        let entry = buckets
            .entry(8 * servers.next_power_of_two())
            .or_insert((0, 0.0));
        entry.1 += r.runtime().as_hours();
        let failed = match scope {
            FailureScope::AllFailures => matches!(
                r.status,
                JobStatus::Failed | JobStatus::NodeFail | JobStatus::Requeued
            ),
            FailureScope::InfraOnly => infra.contains(&i),
        };
        if failed {
            entry.0 += 1;
        }
    }
    buckets
        .into_iter()
        .filter(|(_, (_, exposure))| *exposure > 0.0)
        .map(|(gpus, (failures, exposure_hours))| MttfPoint {
            gpus,
            failures,
            exposure_hours,
            mttf_hours: if failures > 0 {
                exposure_hours / failures as f64
            } else {
                f64::INFINITY
            },
            ci90: gamma_mttf_ci(failures, exposure_hours, 0.90),
        })
        .collect()
}

/// The pre-change `estimate_node_failure_rate`.
fn reference_rf(view: &TelemetryView, config: &AttributionConfig, min_gpus: u32) -> f64 {
    let infra = reference_infra(view, config);
    let failures = infra
        .iter()
        .filter(|&&i| view.jobs()[i].gpus > min_gpus)
        .count();
    let node_days = view.node_days_of_runtime(min_gpus);
    if node_days <= 0.0 {
        return 0.0;
    }
    failures as f64 / node_days
}

/// The pre-array `goodput_loss`: per-stream loss vectors folded into
/// `BTreeMap` buckets.
fn reference_goodput(view: &TelemetryView, config: &AttributionConfig) -> GoodputLoss {
    let lost =
        |r: &JobRecord| r.runtime().min(SimDuration::from_mins(30)).as_hours() * r.gpus as f64;
    let infra = reference_infra(view, config);
    let first_order: Vec<(u32, f64)> = view
        .jobs()
        .iter()
        .enumerate()
        .filter(|(i, _)| infra.contains(i))
        .map(|(_, r)| (r.gpus, lost(r)))
        .collect();
    let second_order: Vec<(u32, f64)> = view
        .jobs()
        .iter()
        .filter(|r| r.status == JobStatus::Preempted && r.instigator.is_some())
        .map(|r| (r.gpus, lost(r)))
        .collect();
    let mut buckets: BTreeMap<u32, GoodputLossPoint> = BTreeMap::new();
    for (gpus, loss) in first_order {
        bucket_entry(&mut buckets, gpus).failure_loss_gpu_hours += loss;
    }
    for (gpus, loss) in second_order {
        bucket_entry(&mut buckets, gpus).preemption_loss_gpu_hours += loss;
    }
    for e in view.ckpt_fallbacks() {
        bucket_entry(&mut buckets, e.gpus).fallback_loss_gpu_hours +=
            e.lost.as_hours() * e.gpus as f64;
    }
    let by_size: Vec<GoodputLossPoint> = buckets.into_values().collect();
    GoodputLoss {
        total_failure_loss: by_size.iter().map(|p| p.failure_loss_gpu_hours).sum(),
        total_preemption_loss: by_size.iter().map(|p| p.preemption_loss_gpu_hours).sum(),
        total_fallback_loss: by_size.iter().map(|p| p.fallback_loss_gpu_hours).sum(),
        by_size,
    }
}

/// The pre-array goodput bucket of `gpus`, created empty on first use.
fn bucket_entry(buckets: &mut BTreeMap<u32, GoodputLossPoint>, gpus: u32) -> &mut GoodputLossPoint {
    let b = gpus.max(1).next_power_of_two();
    buckets.entry(b).or_insert(GoodputLossPoint {
        gpus: b,
        failure_loss_gpu_hours: 0.0,
        preemption_loss_gpu_hours: 0.0,
        fallback_loss_gpu_hours: 0.0,
    })
}

/// An [`MttfPoint`] with every `f64` as its bits, so equality is bit
/// equality.
type MttfBits = (u32, u64, u64, u64, Option<(u64, u64)>);

fn mttf_bits(points: &[MttfPoint]) -> Vec<MttfBits> {
    points
        .iter()
        .map(|p| {
            (
                p.gpus,
                p.failures,
                p.exposure_hours.to_bits(),
                p.mttf_hours.to_bits(),
                p.ci90.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
            )
        })
        .collect()
}

/// A [`GoodputLossPoint`] with every `f64` as its bits.
type PointBits = (u32, u64, u64, u64);

/// Goodput loss with every `f64` as its bits.
fn goodput_bits(loss: &GoodputLoss) -> (Vec<PointBits>, [u64; 3]) {
    (
        loss.by_size
            .iter()
            .map(|p| {
                (
                    p.gpus,
                    p.failure_loss_gpu_hours.to_bits(),
                    p.preemption_loss_gpu_hours.to_bits(),
                    p.fallback_loss_gpu_hours.to_bits(),
                )
            })
            .collect(),
        [
            loss.total_failure_loss.to_bits(),
            loss.total_preemption_loss.to_bits(),
            loss.total_fallback_loss.to_bits(),
        ],
    )
}

proptest! {
    /// Attribution equals a brute-force scan of every health event.
    #[test]
    fn attribution_matches_brute_force_scan(scenario in arb_scenario()) {
        let view = scenario.seal();
        prop_assert_eq!(
            attribute_failures(&view, &scenario.config),
            brute_force_attributions(&view, &scenario.config)
        );
    }

    /// MTTF (both scopes), r_f and goodput loss equal the pre-array code
    /// over brute-force attributions, bit for bit.
    #[test]
    fn failure_analyses_match_references_bit_for_bit(scenario in arb_scenario()) {
        let view = scenario.seal();
        let config = &scenario.config;
        for scope in [FailureScope::AllFailures, FailureScope::InfraOnly] {
            prop_assert_eq!(
                mttf_bits(&mttf_by_job_size(&view, scope, config)),
                mttf_bits(&reference_mttf(&view, scope, config))
            );
        }
        for min_gpus in [0, 8, 128] {
            prop_assert_eq!(
                estimate_node_failure_rate(&view, config, min_gpus).to_bits(),
                reference_rf(&view, config, min_gpus).to_bits()
            );
        }
        prop_assert_eq!(
            goodput_bits(&goodput_loss(&view, config)),
            goodput_bits(&reference_goodput(&view, config))
        );
    }
}

/// Every size above 2^31 lands in the 2^31 bucket of all three bucketed
/// analyses, and the bucket edges never wrap.
#[test]
fn bucket_helpers_are_total_at_u32_max() {
    assert_eq!(round_up_to_server((1 << 31) + 1), (1 << 31) + 8);
    assert_eq!(round_up_to_server(u32::MAX), u32::MAX);
    for gpus in [1 << 31, (1 << 31) + 1, u32::MAX] {
        assert_eq!(size_bucket(gpus), TOP_SIZE_BUCKET);
        assert_eq!(power_of_two_bucket(gpus), TOP_SIZE_BUCKET);

        let mut store = TelemetryStore::new("t", 1);
        store.push(JobRecord {
            job: JobId::new(1),
            attempt: 0,
            run: None,
            gpus,
            qos: QosClass::High,
            nodes: vec![NodeId::new(0)].into(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            ended_at: SimTime::from_hours(48),
            status: JobStatus::NodeFail,
            preempted_by: None,
            instigator: None,
        });
        let view = store.seal();
        let config = AttributionConfig::paper_default();
        for scope in [FailureScope::AllFailures, FailureScope::InfraOnly] {
            let points = mttf_by_job_size(&view, scope, &config);
            assert_eq!(points.len(), 1);
            assert_eq!((points[0].gpus, points[0].failures), (TOP_SIZE_BUCKET, 1));
        }
        let loss = goodput_loss(&view, &config);
        assert_eq!(loss.by_size.len(), 1);
        assert_eq!(loss.by_size[0].gpus, TOP_SIZE_BUCKET);

        let runs = reconstruct_job_runs(&view);
        let selected: Vec<&JobRun> = runs.iter().collect();
        let buckets = ettr_by_size_bucket(
            &selected,
            SimDuration::from_mins(60),
            SimDuration::from_mins(5),
        );
        assert_eq!(buckets.len(), 1);
        assert_eq!(
            (buckets[0].gpus_lo, buckets[0].gpus_hi),
            (TOP_SIZE_BUCKET, u32::MAX)
        );
    }
    // Just below the top, the helpers still round up as before.
    assert_eq!(power_of_two_bucket((1 << 30) + 1), TOP_SIZE_BUCKET);
    assert_eq!(size_bucket((1 << 30) + 1), TOP_SIZE_BUCKET);
    assert_eq!(size_bucket(0), 1);
    assert_eq!(power_of_two_bucket(0), 8);
}

/// Fleet size of the lemon and availability streams.
const FOLD_NODES: u32 = 6;
/// Their run length, minutes.
const FOLD_MINS: u64 = 2 * 24 * 60;

/// A view's lemon-signal streams and the `[from, to]` range to read.
#[derive(Debug, Clone)]
struct LemonScenario {
    jobs: Vec<JobRecord>,
    health: Vec<HealthEvent>,
    node_events: Vec<NodeEvent>,
    exclusions: Vec<ExclusionEvent>,
    from: SimTime,
    to: SimTime,
}

impl LemonScenario {
    fn seal(&self) -> TelemetryView {
        let mut store = TelemetryStore::new("lemon", FOLD_NODES);
        store.extend(self.jobs.iter().cloned());
        for &e in &self.health {
            store.push(e);
        }
        for &e in &self.node_events {
            store.push(e);
        }
        for &e in &self.exclusions {
            store.push(e);
        }
        store.set_horizon(SimTime::from_mins(FOLD_MINS));
        store.seal()
    }
}

prop_compose! {
    /// Random lemon streams read over the whole run, a window narrower
    /// than it, `from == to` or `from > to`. Records sit exactly on both
    /// window edges, one second outside them, and where a multi-node
    /// failure ending just before `to` has its blame window straddle
    /// `to` (an implicating event up to five minutes after it); pushed
    /// in no time order.
    fn arb_lemon_scenario()(
        range in (0u8..4, 0u64..FOLD_MINS, 0u64..FOLD_MINS),
        records in prop::collection::vec(
            (0u8..6, 0u32..FOLD_NODES, 0u8..10, 0u64..FOLD_MINS, 0u32..64), 0..60),
    ) -> LemonScenario {
        let (kind, a, b) = range;
        let (from, to) = match kind {
            0 => (0, FOLD_MINS),
            1 => (a.min(b), a.max(b)),
            2 => (a, a),
            _ => (a.max(b) + 1, a.min(b)),
        };
        let (from, to) = (SimTime::from_mins(from), SimTime::from_mins(to));
        let mut scenario = LemonScenario {
            jobs: Vec::new(),
            health: Vec::new(),
            node_events: Vec::new(),
            exclusions: Vec::new(),
            from,
            to,
        };
        for (i, (kind, node, edge, anywhere, detail)) in records.into_iter().enumerate() {
            let at = match edge {
                0 => from,
                1 => to,
                2 => from - SimDuration::from_secs(1),
                3 => to + SimDuration::from_secs(1),
                4 => to - SimDuration::from_mins(2),
                5 => to + SimDuration::from_mins(3),
                6 => to - SimDuration::from_mins(10),
                _ => SimTime::from_mins(anywhere),
            };
            let job = |nodes: Vec<u32>| {
                let started_at = at - SimDuration::from_hours(1);
                JobRecord {
                    job: JobId::new(i as u64),
                    attempt: 0,
                    run: None,
                    gpus: 8 * nodes.len() as u32,
                    qos: QosClass::Normal,
                    nodes: nodes.into_iter().map(NodeId::new).collect(),
                    enqueued_at: started_at,
                    started_at: (detail % 7 != 6).then_some(started_at),
                    ended_at: at,
                    status: [
                        JobStatus::Completed,
                        JobStatus::NodeFail,
                        JobStatus::Requeued,
                        JobStatus::Failed,
                    ][detail as usize % 4],
                    preempted_by: None,
                    instigator: None,
                }
            };
            let node_id = NodeId::new(node);
            match kind {
                0 | 1 => scenario.health.push(HealthEvent {
                    at,
                    node: node_id,
                    check: CheckKind::ALL[detail as usize % CheckKind::ALL.len()],
                    severity: Severity::High,
                    signal: (kind == 0)
                        .then(|| SignalKind::Xid(XidError::Other(40 + (detail % 4) as u16))),
                    false_positive: detail % 2 == 0,
                }),
                2 => scenario.node_events.push(NodeEvent {
                    node: node_id,
                    at,
                    kind: NodeEventKind::ALL[detail as usize % NodeEventKind::ALL.len()],
                }),
                3 => scenario.exclusions.push(ExclusionEvent {
                    node: node_id,
                    job: JobId::new(u64::from(detail % 5)),
                    at,
                }),
                4 => scenario.jobs.push(job(vec![node])),
                _ => scenario.jobs.push(job(
                    (0..2 + detail % 2).map(|k| (node + k) % FOLD_NODES).collect(),
                )),
            }
        }
        scenario
    }
}

/// The per-stream batch pass `compute_features` made before it became a
/// fold: each feature by its own walk over `[from, to]`, multi-node blame
/// from per-node sorted event times.
fn reference_features(view: &TelemetryView, from: SimTime, to: SimTime) -> Vec<LemonFeatures> {
    let n = view.num_nodes() as usize;
    let mut features: Vec<LemonFeatures> = (0..n)
        .map(|i| LemonFeatures::new(NodeId::new(i as u32)))
        .collect();
    let in_range = |at: SimTime| from <= at && at <= to;

    let mut excluders: Vec<HashSet<u64>> = vec![HashSet::new(); n];
    for e in view.exclusions().iter().filter(|e| in_range(e.at)) {
        excluders[e.node.as_usize()].insert(e.job.raw());
    }
    let mut xids: Vec<HashSet<u16>> = vec![HashSet::new(); n];
    for e in view.health_events().iter().filter(|e| in_range(e.at)) {
        if let Some(SignalKind::Xid(x)) = e.signal {
            xids[e.node.as_usize()].insert(x.code());
        }
    }
    for (i, f) in features.iter_mut().enumerate() {
        f.excl_jobid_count = excluders[i].len() as u32;
        f.xid_cnt = xids[i].len() as u32;
    }
    for e in view.node_events().iter().filter(|e| in_range(e.at)) {
        let f = &mut features[e.node.as_usize()];
        match e.kind {
            NodeEventKind::EnterRemediation | NodeEventKind::Quarantined => {
                f.tickets += 1;
                f.out_count += 1;
            }
            NodeEventKind::Drain => f.out_count += 1,
            NodeEventKind::RepairAttemptFailed | NodeEventKind::ProbationFailed => f.tickets += 1,
            _ => {}
        }
    }

    let mut event_times: Vec<Vec<SimTime>> = vec![Vec::new(); n];
    for e in view.health_events() {
        event_times[e.node.as_usize()].push(e.at);
    }
    for e in view.node_events() {
        if matches!(
            e.kind,
            NodeEventKind::EnterRemediation | NodeEventKind::Drain
        ) {
            event_times[e.node.as_usize()].push(e.at);
        }
    }
    let implicated = |node: usize, end: SimTime| {
        let (lo, hi) = (
            end - SimDuration::from_mins(10),
            end + SimDuration::from_mins(5),
        );
        event_times[node].iter().any(|&t| lo <= t && t <= hi)
    };

    let mut single_jobs: Vec<u32> = vec![0; n];
    for r in view.jobs() {
        if !in_range(r.ended_at) || r.started_at.is_none() {
            continue;
        }
        let infra_failed = matches!(r.status, JobStatus::NodeFail | JobStatus::Requeued);
        if r.nodes.len() == 1 {
            let i = r.nodes[0].as_usize();
            single_jobs[i] += 1;
            if infra_failed {
                features[i].single_node_node_fails += 1;
            }
        } else if infra_failed {
            let blamed: Vec<usize> = r
                .nodes
                .iter()
                .map(|nd| nd.as_usize())
                .filter(|&i| implicated(i, r.ended_at))
                .collect();
            let blamed = if blamed.is_empty() {
                r.nodes.iter().map(|nd| nd.as_usize()).collect()
            } else {
                blamed
            };
            for i in blamed {
                features[i].multi_node_node_fails += 1;
            }
        }
    }
    for (f, &total) in features.iter_mut().zip(&single_jobs) {
        if total > 0 {
            f.single_node_node_failure_rate = f.single_node_node_fails as f64 / total as f64;
        }
    }
    features
}

/// Lemon features with the failure rate as its bits.
fn feature_bits(features: &[LemonFeatures]) -> Vec<(u32, [u32; 6], u64)> {
    features
        .iter()
        .map(|f| {
            (
                f.node.index(),
                [
                    f.excl_jobid_count,
                    f.xid_cnt,
                    f.tickets,
                    f.out_count,
                    f.multi_node_node_fails,
                    f.single_node_node_fails,
                ],
                f.single_node_node_failure_rate.to_bits(),
            )
        })
        .collect()
}

/// The status-only rate as a filtered count over the view's node-days.
fn reference_status_only_rf(view: &TelemetryView, min_gpus: u32) -> f64 {
    let failures = view
        .jobs()
        .iter()
        .filter(|r| r.gpus > min_gpus)
        .filter(|r| matches!(r.status, JobStatus::NodeFail | JobStatus::Requeued))
        .count();
    let node_days = view.node_days_of_runtime(min_gpus);
    if node_days <= 0.0 {
        return 0.0;
    }
    failures as f64 / node_days
}

/// The batch availability pass `fleet_availability` made before it became
/// a fold: per-node arrays, open visits charged to the horizon after the
/// walk.
fn reference_availability(view: &TelemetryView) -> FleetAvailability {
    let n = view.num_nodes() as usize;
    let horizon = view.horizon();
    let mut down_since: Vec<Option<SimTime>> = vec![None; n];
    let mut downtime = vec![SimDuration::ZERO; n];
    let mut repairs = vec![0u32; n];
    let mut repair_times: Vec<f64> = Vec::new();
    for e in view.node_events() {
        let i = e.node.as_usize();
        match e.kind {
            NodeEventKind::EnterRemediation if down_since[i].is_none() => {
                down_since[i] = Some(e.at);
            }
            NodeEventKind::ExitRemediation => {
                if let Some(start) = down_since[i].take() {
                    let d = e.at.saturating_since(start);
                    downtime[i] += d;
                    repairs[i] += 1;
                    repair_times.push(d.as_hours());
                }
            }
            _ => {}
        }
    }
    for (i, open) in down_since.iter().enumerate() {
        if let Some(start) = open {
            downtime[i] += horizon.saturating_since(*start);
        }
    }
    let window = horizon.as_days().max(f64::MIN_POSITIVE);
    let nodes: Vec<NodeAvailability> = (0..n)
        .map(|i| NodeAvailability {
            node: NodeId::new(i as u32),
            repairs: repairs[i],
            downtime: downtime[i],
            availability: 1.0 - (downtime[i].as_days() / window).min(1.0),
        })
        .collect();
    let stats: StreamingStats = repair_times.iter().copied().collect();
    let mut sorted = repair_times;
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite repair times"));
    let lost_node_days: f64 = nodes.iter().map(|a| a.downtime.as_days()).sum();
    FleetAvailability {
        nodes,
        mttr_hours: stats.mean(),
        mttr_p90_hours: quantile_sorted(&sorted, 0.90).unwrap_or(0.0),
        fleet_availability: 1.0 - lost_node_days / (window * n.max(1) as f64),
        lost_node_days,
    }
}

/// Per-node rows and fleet readouts with every `f64` as its bits.
type AvailabilityBits = (Vec<(u32, u32, SimDuration, u64)>, [u64; 4]);

fn availability_bits(a: &FleetAvailability) -> AvailabilityBits {
    (
        a.nodes
            .iter()
            .map(|n| {
                (
                    n.node.index(),
                    n.repairs,
                    n.downtime,
                    n.availability.to_bits(),
                )
            })
            .collect(),
        [
            a.mttr_hours.to_bits(),
            a.mttr_p90_hours.to_bits(),
            a.fleet_availability.to_bits(),
            a.lost_node_days.to_bits(),
        ],
    )
}

prop_compose! {
    /// Random lifecycle streams: every event kind, on every node, in no
    /// time order, some after the horizon; enters that repeat and exits
    /// with no open visit.
    fn arb_node_events()(
        events in prop::collection::vec((0u32..FOLD_NODES, 0u64..FOLD_MINS, 0usize..9), 0..60),
        horizon_mins in 0u64..FOLD_MINS,
    ) -> (Vec<NodeEvent>, SimTime) {
        let events = events
            .into_iter()
            .map(|(node, mins, kind)| NodeEvent {
                node: NodeId::new(node),
                at: SimTime::from_mins(mins),
                kind: NodeEventKind::ALL[kind],
            })
            .collect();
        (events, SimTime::from_mins(horizon_mins))
    }
}

proptest! {
    /// `compute_features` (the lemon fold) equals the per-stream batch
    /// pass bit for bit, whatever the range.
    #[test]
    fn lemon_fold_matches_batch_oracle(scenario in arb_lemon_scenario()) {
        let view = scenario.seal();
        let (from, to) = (scenario.from, scenario.to);
        prop_assert_eq!(
            feature_bits(&compute_features(&view, from, to)),
            feature_bits(&reference_features(&view, from, to))
        );
    }

    /// The status-only rate fold equals the filtered count bit for bit.
    #[test]
    fn status_only_rate_fold_matches_batch_oracle(scenario in arb_scenario()) {
        let view = scenario.seal();
        for min_gpus in [0, 8, 128] {
            prop_assert_eq!(
                estimate_status_only_failure_rate(&view, min_gpus).to_bits(),
                reference_status_only_rf(&view, min_gpus).to_bits()
            );
        }
    }

    /// `fleet_availability` (the remediation-visit fold) equals the
    /// per-node batch pass bit for bit.
    #[test]
    fn availability_fold_matches_batch_oracle(stream in arb_node_events()) {
        let (events, horizon) = stream;
        let mut store = TelemetryStore::new("visits", FOLD_NODES);
        for e in events {
            store.push(e);
        }
        store.set_horizon(horizon);
        let view = store.seal();
        prop_assert_eq!(
            availability_bits(&fleet_availability(&view)),
            availability_bits(&reference_availability(&view))
        );
    }
}

/// One step of a single-node job stream through a lemon fold.
#[derive(Debug, Clone, Copy)]
enum SingleOp {
    /// A started single-node job ends on `node`.
    Job { node: u32, at: SimTime, infra: bool },
    /// The fold evicts behind `now`.
    Evict(SimTime),
    /// The fold's single-node features are read at `now`.
    Read(SimTime),
}

prop_compose! {
    /// A window and a stream of job ends, evictions and reads. The clock
    /// advances; none, a quarter or half of the job ends land anywhere
    /// (out of order), some reads come before the newest end, and a batch
    /// stream never evicts, where a live one evicts before most reads.
    fn arb_single_ops()(
        window_mins in 0u64..FOLD_MINS / 2,
        batch in any::<bool>(),
        scatter in 0u8..3,
        steps in prop::collection::vec(
            (0u8..10, 0u32..FOLD_NODES, 0u64..180, 0u64..FOLD_MINS, 0u8..4), 0..80),
    ) -> (SimDuration, Vec<SingleOp>) {
        let mut clock = 0;
        let mut ops = Vec::new();
        for (kind, node, step, anywhere, detail) in steps {
            clock += step;
            let now = SimTime::from_mins(clock);
            match kind {
                0..=5 => ops.push(SingleOp::Job {
                    node,
                    at: if detail < scatter { SimTime::from_mins(anywhere) } else { now },
                    infra: detail % 2 == 1,
                }),
                6 | 7 if !batch => {
                    ops.push(SingleOp::Evict(now));
                    ops.push(SingleOp::Read(now));
                }
                8 if !batch => ops.push(SingleOp::Evict(SimTime::from_mins(anywhere))),
                _ => ops.push(SingleOp::Read(if detail == 0 {
                    SimTime::from_mins(anywhere)
                } else {
                    now
                })),
            }
        }
        (SimDuration::from_mins(window_mins), ops)
    }
}

/// The scan `WindowedLemon::signalled` made over its single-node jobs
/// before it kept running counts: each ring entry tested against the
/// window, node by node rows, rate from the two counts.
fn reference_single_features(
    ring: &std::collections::VecDeque<(SimTime, u32, bool)>,
    now: SimTime,
    window: SimDuration,
) -> Vec<LemonFeatures> {
    let mut per_node: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    for &(at, node, infra) in ring {
        if at <= now && now.saturating_since(at) <= window {
            let c = per_node.entry(node).or_default();
            c.0 += 1;
            c.1 += u32::from(infra);
        }
    }
    per_node
        .into_iter()
        .map(|(node, (total, fails))| LemonFeatures {
            single_node_node_fails: fails,
            single_node_node_failure_rate: fails as f64 / total as f64,
            ..LemonFeatures::new(NodeId::new(node))
        })
        .collect()
}

proptest! {
    /// `signalled`'s running single-node counts equal the old per-entry
    /// scan bit for bit, for entries out of order, reads before the newest
    /// end, windows that never evict and live evict/read sequences.
    #[test]
    fn single_node_counts_match_ring_scan(stream in arb_single_ops()) {
        let (window, ops) = stream;
        let mut fold = WindowedLemon::new(FOLD_NODES, window);
        let mut ring = std::collections::VecDeque::new();
        for op in ops {
            match op {
                SingleOp::Job { node, at, infra } => {
                    fold.observe_job(&JobRecord {
                        job: JobId::new(1),
                        attempt: 0,
                        run: None,
                        gpus: 8,
                        qos: QosClass::Normal,
                        nodes: NodeList::one(NodeId::new(node)),
                        enqueued_at: SimTime::ZERO,
                        started_at: Some(SimTime::ZERO),
                        ended_at: at,
                        status: if infra { JobStatus::NodeFail } else { JobStatus::Completed },
                        preempted_by: None,
                        instigator: None,
                    });
                    ring.push_back((at, node, infra));
                }
                SingleOp::Evict(now) => {
                    fold.evict(now);
                    while ring.front().is_some_and(|e: &(SimTime, u32, bool)| {
                        now.saturating_since(e.0) > window
                    }) {
                        ring.pop_front();
                    }
                }
                SingleOp::Read(now) => prop_assert_eq!(
                    feature_bits(&fold.signalled(now)),
                    feature_bits(&reference_single_features(&ring, now, window))
                ),
            }
        }
    }
}
