//! Property tests for the streaming estimators and the alert engine.
//!
//! Two invariants, each checked both by `proptest` strategies and by a
//! plain deterministic mirror (the mirrors run in minimal environments
//! where the proptest harness is stubbed out):
//!
//! 1. **streaming equals batch** — for arbitrary synthetic telemetry,
//!    replaying the sealed view through a [`ReliabilityMonitor`] yields
//!    cumulative MTTF points, failure rate, and availability identical to
//!    the `rsc-core` batch analyses;
//! 2. **alerts never flap inside the debounce window** — for arbitrary
//!    raise/clear/hold signal sequences at arbitrary times, consecutive
//!    transitions of one key are at least the debounce apart;
//! 3. **sparse lemon evaluation equals dense** — for arbitrary health,
//!    node, exclusion and job streams under arbitrary detector thresholds,
//!    the monitor's suspect alerts and reported suspects equal a reference
//!    that scores every node each tick and feeds an engine in node order.

use proptest::prelude::*;

use rsc_cluster::gpu::XidError;
use rsc_cluster::ids::{JobId, NodeId};
use rsc_core::availability::fleet_availability;
use rsc_core::lemon::{LemonDetector, WindowedLemon};
use rsc_core::mttf::{estimate_status_only_failure_rate, mttf_by_job_size, FailureScope};
use rsc_core::AttributionConfig;
use rsc_failure::modes::Severity;
use rsc_failure::signals::SignalKind;
use rsc_health::check::CheckKind;
use rsc_health::monitor::HealthEvent;
use rsc_monitor::alerts::{Alert, AlertEngine, AlertKey, AlertSignal};
use rsc_monitor::config::MonitorConfig;
use rsc_monitor::monitor::ReliabilityMonitor;
use rsc_monitor::replay::replay_view;
use rsc_monitor::report::LemonSuspect;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim::bus::{SimEvent, SimObserver};
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::{ExclusionEvent, NodeEvent, NodeEventKind, TelemetryStore};
use rsc_telemetry::view::TelemetryView;

const NODES: u32 = 8;
const HORIZON_DAYS: u64 = 20;

/// A tiny deterministic generator so the plain mirrors can sweep many
/// synthetic cases without the proptest runtime.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One synthetic job: (start_hours, runtime_hours, gpus, status_pick).
type JobCase = (u32, u32, u32, u8);
/// One synthetic remediation visit: (node, enter_hours, repair_hours).
type VisitCase = (u32, u32, u32);

fn status_from(pick: u8) -> JobStatus {
    match pick % 5 {
        0 => JobStatus::Completed,
        1 => JobStatus::Failed,
        2 => JobStatus::NodeFail,
        3 => JobStatus::Requeued,
        _ => JobStatus::Cancelled,
    }
}

fn synthetic_view(jobs: &[JobCase], visits: &[VisitCase]) -> TelemetryView {
    let mut store = TelemetryStore::new("prop", NODES);
    let horizon = SimTime::from_days(HORIZON_DAYS);
    let horizon_hours = HORIZON_DAYS * 24;
    // Chronological by end time so the store matches the driver's
    // flush-ordered layout (grouped under daily sweeps).
    let mut ordered: Vec<&JobCase> = jobs.iter().collect();
    ordered.sort_by_key(|&&(start, runtime, _, _)| start as u64 + runtime as u64);
    for (i, &&(start_h, runtime_h, gpus, pick)) in ordered.iter().enumerate() {
        let started_at = SimTime::from_hours(start_h as u64 % horizon_hours);
        let ended_at = started_at + SimDuration::from_hours(1 + runtime_h as u64 % 72);
        store.push(JobRecord {
            job: JobId::new(i as u64),
            attempt: 0,
            run: None,
            gpus: 1 + gpus % 64,
            qos: QosClass::Normal,
            nodes: vec![NodeId::new(i as u32 % NODES)].into(),
            enqueued_at: started_at,
            started_at: Some(started_at),
            ended_at,
            status: status_from(pick),
            preempted_by: None,
            instigator: None,
        });
    }
    let mut node_events: Vec<NodeEvent> = Vec::new();
    for &(node, enter_h, repair_h) in visits {
        let at = SimTime::from_hours(enter_h as u64 % (horizon_hours - 48));
        let exit = at + SimDuration::from_hours(1 + repair_h as u64 % 48);
        node_events.push(NodeEvent {
            node: NodeId::new(node % NODES),
            at,
            kind: NodeEventKind::EnterRemediation,
        });
        node_events.push(NodeEvent {
            node: NodeId::new(node % NODES),
            at: exit,
            kind: NodeEventKind::ExitRemediation,
        });
    }
    node_events.sort_by_key(|e| e.at);
    for e in node_events {
        store.push(e);
    }
    store.set_horizon(horizon);
    store.seal()
}

fn assert_streaming_equals_batch(view: &TelemetryView) {
    let config = MonitorConfig::unwindowed(HORIZON_DAYS);
    let min_gpus = config.min_gpus;
    let mut monitor = ReliabilityMonitor::new(config);
    replay_view(view, &mut monitor);

    assert_eq!(
        monitor.mttf().points(),
        mttf_by_job_size(
            view,
            FailureScope::AllFailures,
            &AttributionConfig::default()
        )
    );
    assert_eq!(
        monitor.failure_rate().rate(),
        estimate_status_only_failure_rate(view, min_gpus)
    );
    let batch = fleet_availability(view);
    let snap = monitor.availability().snapshot(view.horizon());
    assert_eq!(snap.fleet_availability, batch.fleet_availability);
    assert_eq!(snap.mttr_hours, batch.mttr_hours);
    assert_eq!(snap.lost_node_days, batch.lost_node_days);
    assert_eq!(monitor.counters().jobs as usize, view.jobs().len());
    assert_eq!(
        monitor.counters().node_events as usize,
        view.node_events().len()
    );
}

/// Replays one signal schedule through an engine and asserts the no-flap
/// invariants: per key, consecutive transitions are >= debounce apart,
/// and no raise lands within the re-raise cooldown of the preceding clear
/// of the same key.
fn assert_no_flap_with_cooldown(
    debounce_days: u64,
    cooldown_days: u64,
    schedule: &[(u32, u8, bool)],
) {
    let debounce = SimDuration::from_days(debounce_days);
    let cooldown = SimDuration::from_days(cooldown_days);
    let mut engine = AlertEngine::with_cooldowns(debounce, cooldown);
    let mut last_transition: std::collections::BTreeMap<AlertKey, SimTime> =
        std::collections::BTreeMap::new();
    let mut last_clear: std::collections::BTreeMap<AlertKey, SimTime> =
        std::collections::BTreeMap::new();
    let mut t = SimTime::ZERO;
    for &(advance_mins, key_pick, raise) in schedule {
        t += SimDuration::from_mins(advance_mins as u64 % (5 * 24 * 60));
        let key = match key_pick % 3 {
            0 => AlertKey::MttfRegression,
            1 => AlertKey::QuarantineSurge,
            _ => AlertKey::LemonSuspect(NodeId::new(key_pick as u32 % 4)),
        };
        let signal = if raise {
            AlertSignal::Raise {
                value: 1.0,
                threshold: 1.0,
                message: String::new(),
            }
        } else {
            AlertSignal::Clear
        };
        if engine.evaluate(t, key, signal) {
            if let Some(&prev) = last_transition.get(&key) {
                assert!(
                    t.saturating_since(prev) >= debounce,
                    "key {key:?} flapped: transitions at {prev:?} and {t:?} < {debounce:?} apart"
                );
            }
            if raise {
                if let Some(&cleared) = last_clear.get(&key) {
                    assert!(
                        t.saturating_since(cleared) >= cooldown,
                        "key {key:?} re-raised at {t:?}, inside the {cooldown:?} cooldown \
                         after clearing at {cleared:?}"
                    );
                }
            } else {
                last_clear.insert(key, t);
            }
            last_transition.insert(key, t);
        }
    }
    // Structural sanity: every alert in the log that cleared did so at or
    // after its raise.
    for a in engine.log() {
        if let Some(cleared) = a.cleared_at {
            assert!(cleared >= a.raised_at);
        }
    }
}

/// The cooldown-free engine (`AlertEngine::new`) is the zero-cooldown
/// special case.
fn assert_no_flap(debounce_days: u64, schedule: &[(u32, u8, bool)]) {
    assert_no_flap_with_cooldown(debounce_days, 0, schedule);
}

/// Fleet size and horizon of the lemon streams.
const LEMON_NODES: u32 = 6;
const LEMON_DAYS: u64 = 10;

/// One synthetic lemon-signal record: (kind, node, minute, detail).
type SignalCase = (u8, u32, u32, u32);
/// Detector thresholds: (xid, tickets, out-count, multi-node fails,
/// single-node fails, single-node rate in quarters).
type DetectorCase = (u32, u32, u32, u32, u32, u32);
/// Alerting: (min criteria, clear margin, debounce days, window days).
type PolicyCase = (u32, u32, u64, u64);

/// A record the stream carries, owned so events can borrow it.
enum Record {
    Job(JobRecord),
    Health(HealthEvent),
    Node(NodeEvent),
    Exclusion(ExclusionEvent),
}

impl Record {
    fn at(&self) -> SimTime {
        match self {
            Record::Job(r) => r.ended_at,
            Record::Health(e) => e.at,
            Record::Node(e) => e.at,
            Record::Exclusion(e) => e.at,
        }
    }
}

fn lemon_record(i: usize, &(kind, node, minute, detail): &SignalCase) -> Record {
    let node = node % LEMON_NODES;
    let at = SimTime::from_mins(minute as u64 % (LEMON_DAYS * 24 * 60));
    let job = |nodes: Vec<u32>| {
        let status = match detail % 4 {
            0 => JobStatus::Completed,
            1 => JobStatus::NodeFail,
            2 => JobStatus::Requeued,
            _ => JobStatus::Failed,
        };
        let started_at = at - SimDuration::from_hours(1);
        Record::Job(JobRecord {
            job: JobId::new(i as u64),
            attempt: 0,
            run: None,
            gpus: 8 * nodes.len() as u32,
            qos: QosClass::Normal,
            nodes: nodes.into_iter().map(NodeId::new).collect(),
            enqueued_at: started_at,
            started_at: (detail % 7 != 6).then_some(started_at),
            ended_at: at,
            status,
            preempted_by: None,
            instigator: None,
        })
    };
    let health = |signal: Option<SignalKind>| {
        Record::Health(HealthEvent {
            at,
            node: NodeId::new(node),
            check: CheckKind::IbLink,
            severity: Severity::High,
            signal,
            false_positive: signal.is_none() && detail % 2 == 0,
        })
    };
    match kind % 6 {
        0 => health(Some(SignalKind::Xid(XidError::Other(
            40 + (detail % 4) as u16,
        )))),
        1 => health(None),
        2 => Record::Node(NodeEvent {
            node: NodeId::new(node),
            at,
            kind: match detail % 6 {
                0 => NodeEventKind::EnterRemediation,
                1 => NodeEventKind::Drain,
                2 => NodeEventKind::RepairAttemptFailed,
                3 => NodeEventKind::ProbationFailed,
                4 => NodeEventKind::Quarantined,
                _ => NodeEventKind::ExitRemediation,
            },
        }),
        3 => Record::Exclusion(ExclusionEvent {
            node: NodeId::new(node),
            job: JobId::new(detail as u64 % 5),
            at,
        }),
        4 => job(vec![node]),
        _ => job((0..2 + detail % 2)
            .map(|k| (node + k) % LEMON_NODES)
            .collect()),
    }
}

fn lemon_config(detector: DetectorCase, policy: PolicyCase) -> MonitorConfig {
    let (xid, tickets, out, multi, single, rate) = detector;
    let (min_criteria, margin, debounce_days, window_days) = policy;
    let mut config = MonitorConfig::rsc_default();
    config.detector = LemonDetector {
        min_xid_cnt: xid,
        min_tickets: tickets,
        min_out_count: out,
        min_multi_node_fails: multi,
        min_single_node_fails: single,
        min_single_node_rate: rate as f64 / 4.0,
        min_criteria,
    };
    config.alerts.lemon_clear_margin = margin;
    config.alerts.debounce = SimDuration::from_days(debounce_days);
    config.lemon_window = SimDuration::from_days(window_days);
    config
}

/// Delivers `records` in time order with a tick at every whole day and
/// `Finish` at the horizon; a record at a tick's instant precedes it.
fn drive(records: &[Record], mut deliver: impl FnMut(&SimEvent<'_>)) {
    let mut order: Vec<&Record> = records.iter().collect();
    order.sort_by_key(|r| r.at());
    deliver(&SimEvent::Start {
        cluster: "lemon",
        num_nodes: LEMON_NODES,
    });
    let mut day = 1;
    for r in order {
        while day < LEMON_DAYS && SimTime::from_days(day) < r.at() {
            deliver(&SimEvent::Tick {
                now: SimTime::from_days(day),
            });
            day += 1;
        }
        deliver(&match r {
            Record::Job(j) => SimEvent::Job(j),
            Record::Health(e) => SimEvent::Health(e),
            Record::Node(e) => SimEvent::Node(e),
            Record::Exclusion(e) => SimEvent::Exclusion(e),
        });
    }
    for day in day..LEMON_DAYS {
        deliver(&SimEvent::Tick {
            now: SimTime::from_days(day),
        });
    }
    deliver(&SimEvent::Finish {
        horizon: SimTime::from_days(LEMON_DAYS),
        gpu_swaps: 0,
    });
}

/// The dense reference: every node scored on every tick from
/// [`WindowedLemon::features`], signals fed to a fresh engine in node order.
fn dense_reference(records: &[Record], config: &MonitorConfig) -> (Vec<Alert>, Vec<LemonSuspect>) {
    let detector = config.detector;
    let margin = config.alerts.lemon_clear_margin;
    let mut lemon = WindowedLemon::new(LEMON_NODES, config.lemon_window);
    let mut engine =
        AlertEngine::with_cooldowns(config.alerts.debounce, config.alerts.reraise_cooldown);
    let mut tick = |lemon: &mut WindowedLemon, now: SimTime, finished: bool| {
        lemon.resolve(now, finished);
        lemon.evict(now);
        for f in lemon.features(now) {
            let score = detector.score(&f);
            let signal = if score >= detector.min_criteria {
                AlertSignal::Raise {
                    value: score as f64,
                    threshold: detector.min_criteria as f64,
                    message: format!(
                        "node {} meets {score} lemon criteria over the trailing window",
                        f.node.index()
                    ),
                }
            } else if score + margin < detector.min_criteria {
                AlertSignal::Clear
            } else {
                AlertSignal::Hold
            };
            engine.evaluate(now, AlertKey::LemonSuspect(f.node), signal);
        }
    };
    drive(records, |event| match event {
        SimEvent::Job(r) => lemon.observe_job(r),
        SimEvent::Health(e) => lemon.observe_health(e),
        SimEvent::Node(e) => lemon.observe_node_event(e),
        SimEvent::Exclusion(e) => lemon.observe_exclusion(e),
        SimEvent::Tick { now } => tick(&mut lemon, *now, false),
        SimEvent::Finish { horizon, .. } => tick(&mut lemon, *horizon, true),
        _ => {}
    });
    let mut suspects: Vec<LemonSuspect> = lemon
        .features(SimTime::from_days(LEMON_DAYS))
        .iter()
        .map(|f| {
            let score = detector.score(f);
            LemonSuspect {
                node: f.node.index(),
                score,
                flagged: score >= detector.min_criteria,
            }
        })
        .filter(|s| s.score > 0)
        .collect();
    suspects.sort_by(|a, b| b.score.cmp(&a.score).then(a.node.cmp(&b.node)));
    (engine.log().to_vec(), suspects)
}

fn assert_sparse_equals_dense(signals: &[SignalCase], detector: DetectorCase, policy: PolicyCase) {
    let records: Vec<Record> = signals
        .iter()
        .enumerate()
        .map(|(i, c)| lemon_record(i, c))
        .collect();
    let config = lemon_config(detector, policy);
    let (alerts, suspects) = dense_reference(&records, &config);
    let mut monitor = ReliabilityMonitor::new(config);
    drive(&records, |event| monitor.on_event(event));
    let lemon_alerts: Vec<Alert> = monitor
        .alerts()
        .iter()
        .filter(|a| matches!(a.key, AlertKey::LemonSuspect(_)))
        .cloned()
        .collect();
    assert_eq!(
        lemon_alerts, alerts,
        "detector {detector:?}, policy {policy:?}"
    );
    assert_eq!(monitor.report().lemon_suspects, suspects);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_streaming_equals_batch(
        jobs in proptest::collection::vec((0u32..480, 0u32..96, 0u32..64, 0u8..8), 0..60),
        visits in proptest::collection::vec((0u32..8, 0u32..400, 0u32..60), 0..20),
    ) {
        assert_streaming_equals_batch(&synthetic_view(&jobs, &visits));
    }

    #[test]
    fn prop_alerts_never_flap(
        debounce_days in 0u64..4,
        schedule in proptest::collection::vec((0u32..4000, 0u8..8, 0u8..2), 0..200),
    ) {
        let schedule: Vec<(u32, u8, bool)> =
            schedule.into_iter().map(|(a, k, r)| (a, k, r == 1)).collect();
        assert_no_flap(debounce_days, &schedule);
    }

    #[test]
    fn prop_reraise_cooldown_holds(
        debounce_days in 0u64..4,
        cooldown_days in 0u64..7,
        schedule in proptest::collection::vec((0u32..4000, 0u8..8, 0u8..2), 0..200),
    ) {
        let schedule: Vec<(u32, u8, bool)> =
            schedule.into_iter().map(|(a, k, r)| (a, k, r == 1)).collect();
        assert_no_flap_with_cooldown(debounce_days, cooldown_days, &schedule);
    }

    #[test]
    fn prop_sparse_lemon_alerts_equal_dense(
        signals in proptest::collection::vec((0u8..6, 0u32..6, 0u32..14_400, 0u32..64), 0..120),
        detector in (0u32..3, 0u32..4, 0u32..5, 0u32..3, 0u32..3, 0u32..5),
        policy in (0u32..4, 0u32..5, 0u64..3, 1u64..4),
    ) {
        assert_sparse_equals_dense(&signals, detector, policy);
    }
}

#[test]
fn mirror_streaming_equals_batch() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    for _ in 0..48 {
        let jobs: Vec<JobCase> = (0..rng.below(60))
            .map(|_| {
                (
                    rng.below(480) as u32,
                    rng.below(96) as u32,
                    rng.below(64) as u32,
                    rng.below(8) as u8,
                )
            })
            .collect();
        let visits: Vec<VisitCase> = (0..rng.below(20))
            .map(|_| {
                (
                    rng.below(8) as u32,
                    rng.below(400) as u32,
                    rng.below(60) as u32,
                )
            })
            .collect();
        assert_streaming_equals_batch(&synthetic_view(&jobs, &visits));
    }
}

#[test]
fn mirror_alerts_never_flap() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0002);
    for _ in 0..48 {
        let debounce_days = rng.below(4);
        let schedule: Vec<(u32, u8, bool)> = (0..rng.below(200))
            .map(|_| {
                (
                    rng.below(4000) as u32,
                    rng.below(8) as u8,
                    rng.below(2) == 0,
                )
            })
            .collect();
        assert_no_flap(debounce_days, &schedule);
    }
}

#[test]
fn mirror_reraise_cooldown_holds() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0003);
    for _ in 0..48 {
        let debounce_days = rng.below(4);
        let cooldown_days = rng.below(7);
        let schedule: Vec<(u32, u8, bool)> = (0..rng.below(200))
            .map(|_| {
                (
                    rng.below(4000) as u32,
                    rng.below(8) as u8,
                    rng.below(2) == 0,
                )
            })
            .collect();
        assert_no_flap_with_cooldown(debounce_days, cooldown_days, &schedule);
    }
}

#[test]
fn mirror_empty_view_is_all_zero() {
    let view = synthetic_view(&[], &[]);
    let mut monitor = ReliabilityMonitor::new(MonitorConfig::unwindowed(HORIZON_DAYS));
    replay_view(&view, &mut monitor);
    assert_eq!(monitor.counters().jobs, 0);
    assert!(monitor.mttf().points().is_empty());
    assert_eq!(monitor.failure_rate().rate(), 0.0);
    assert!(monitor.expected_ettr().is_none());
    let snap = monitor.availability().snapshot(view.horizon());
    assert_eq!(snap.fleet_availability, 1.0);
    assert_eq!(snap.completed_repairs, 0);
}

#[test]
fn mirror_sparse_lemon_alerts_equal_dense() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0004);
    for case in 0..64u32 {
        let signals: Vec<SignalCase> = (0..rng.below(120))
            .map(|_| {
                (
                    rng.below(6) as u8,
                    rng.below(6) as u32,
                    rng.below(14_400) as u32,
                    rng.below(64) as u32,
                )
            })
            .collect();
        let detector: DetectorCase = (
            rng.below(3) as u32,
            rng.below(4) as u32,
            rng.below(5) as u32,
            rng.below(3) as u32,
            rng.below(3) as u32,
            rng.below(5) as u32,
        );
        // Cycle the raise threshold through 0 (every node raises on a zero
        // score) and make every other case's clear margin reach it.
        let min_criteria = case % 4;
        let margin = if case % 2 == 0 {
            min_criteria + rng.below(2) as u32
        } else {
            rng.below(3) as u32
        };
        let policy: PolicyCase = (min_criteria, margin, rng.below(3), 1 + rng.below(3));
        assert_sparse_equals_dense(&signals, detector, policy);
    }
}
