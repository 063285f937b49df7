//! Property-based tests of the analysis estimators.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use rsc_cluster::ids::{JobId, JobRunId, NodeId};
use rsc_core::attribution::{
    attribute_failures, is_failure_status, primary_cause, Attribution, AttributionConfig,
};
use rsc_core::ettr::analytical::{expected_ettr, expected_ettr_simplified, EttrParams};
use rsc_core::ettr::jobrun::{ettr_by_size_bucket, reconstruct_job_runs, JobRun};
use rsc_core::ettr::requirements::max_coupled_interval_mins;
use rsc_core::goodput::{goodput_loss, GoodputLoss, GoodputLossPoint};
use rsc_core::mttf::{
    estimate_node_failure_rate, gamma_mttf_ci, mttf_by_job_size, power_of_two_bucket,
    round_up_to_server, size_bucket, FailureScope, MttfPoint, MttfProjection, TOP_SIZE_BUCKET,
};
use rsc_failure::modes::Severity;
use rsc_health::check::CheckKind;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::CheckpointFallbackEvent;
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
            nodes: Vec::new(),
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
        store.extend_jobs(jobs.iter().cloned());
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
            nodes: Vec::new(),
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
        store.extend_jobs(jobs.iter().cloned());
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
        store.extend_jobs(self.jobs.iter().cloned());
        for &e in &self.health {
            store.push_health_event(e);
        }
        for &e in &self.fallbacks {
            store.push_ckpt_fallback(e);
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
        store.push_job(JobRecord {
            job: JobId::new(1),
            attempt: 0,
            run: None,
            gpus,
            qos: QosClass::High,
            nodes: vec![NodeId::new(0)],
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
