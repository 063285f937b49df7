//! Row-codec parity: the snapshot and trace writers emit exactly the rows
//! the `String`-building encoders below produced, every row decodes back
//! to its record, each section's last frame checkpoint is the view's
//! chain head for that stream, and every non-canonical spelling of a row
//! is a parse error at that row's line.
//!
//! The reference encoders are a frozen copy of the original per-field
//! `format!` implementations; everything else goes through the public
//! snapshot and trace APIs.

use proptest::prelude::*;

use rsc_cluster::gpu::XidError;
use rsc_cluster::ids::{JobId, JobRunId, NodeId};
use rsc_failure::injector::FailureEvent;
use rsc_failure::modes::{ModeId, Severity};
use rsc_failure::signals::SignalKind;
use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::check::CheckKind;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::csv::format_row;
use rsc_telemetry::snapshot::{write_snapshot, write_snapshot_legacy, SnapshotError};
use rsc_telemetry::store::{
    CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger, ExclusionEvent,
    NodeEvent, NodeEventKind, TelemetryStore,
};
use rsc_telemetry::trace::{export_jobs, TRACE_HEADER};
use rsc_telemetry::view::TelemetryView;
use rsc_telemetry::{ChainHasher, GENESIS};

mod common;
use common::{import_jobs_canonical as import_jobs, read_snapshot_canonical as read_snapshot};

// ---- reference encoders (the original `String`-building rows) ----------

fn ref_job(r: &JobRecord) -> String {
    let qos = match r.qos {
        QosClass::Low => "low",
        QosClass::Normal => "normal",
        QosClass::High => "high",
    };
    let nodes = r
        .nodes
        .iter()
        .map(|n| n.index().to_string())
        .collect::<Vec<_>>()
        .join(";");
    let row = [
        r.job.raw().to_string(),
        r.attempt.to_string(),
        r.run.map(|x| x.raw().to_string()).unwrap_or_default(),
        r.gpus.to_string(),
        qos.to_string(),
        nodes,
        r.enqueued_at.as_secs().to_string(),
        r.started_at
            .map(|t| t.as_secs().to_string())
            .unwrap_or_default(),
        r.ended_at.as_secs().to_string(),
        r.status.label().to_string(),
        r.preempted_by
            .map(|x| x.raw().to_string())
            .unwrap_or_default(),
        r.instigator
            .map(|x| x.raw().to_string())
            .unwrap_or_default(),
    ];
    format_row(row.iter().map(|s| s.as_str()))
}

fn ref_signal_tag(s: SignalKind) -> String {
    match s {
        SignalKind::Xid(XidError::Other(code)) => format!("xido{code}"),
        SignalKind::Xid(x) => format!("xid{}", x.code()),
        other => other.label(),
    }
}

fn ref_severity(s: Severity) -> &'static str {
    match s {
        Severity::High => "high",
        Severity::Low => "low",
    }
}

fn ref_health(e: &HealthEvent) -> String {
    format!(
        "{},{},{},{},{},{}",
        e.at.as_secs(),
        e.node.index(),
        e.check.label(),
        ref_severity(e.severity),
        e.signal.map(ref_signal_tag).unwrap_or_default(),
        u8::from(e.false_positive),
    )
}

fn ref_node_event_kind(k: NodeEventKind) -> &'static str {
    match k {
        NodeEventKind::Drain => "drain",
        NodeEventKind::EnterRemediation => "enter_remediation",
        NodeEventKind::ExitRemediation => "exit_remediation",
        NodeEventKind::RepairAttemptFailed => "repair_attempt_failed",
        NodeEventKind::RepairEscalated => "repair_escalated",
        NodeEventKind::EnterProbation => "enter_probation",
        NodeEventKind::ProbationPassed => "probation_passed",
        NodeEventKind::ProbationFailed => "probation_failed",
        NodeEventKind::Quarantined => "quarantined",
    }
}

fn ref_node_event(e: &NodeEvent) -> String {
    format!(
        "{},{},{}",
        e.at.as_secs(),
        e.node.index(),
        ref_node_event_kind(e.kind),
    )
}

fn ref_exclusion(e: &ExclusionEvent) -> String {
    format!("{},{},{}", e.at.as_secs(), e.node.index(), e.job.raw())
}

fn ref_failure(e: &FailureEvent) -> String {
    format!(
        "{},{},{},{},{}",
        e.at.as_secs(),
        e.node.index(),
        e.mode.0,
        e.symptom.label(),
        u8::from(e.permanent),
    )
}

fn ref_ckpt_fallback(e: &CheckpointFallbackEvent) -> String {
    format!(
        "{},{},{},{},{}",
        e.at.as_secs(),
        e.job.raw(),
        e.gpus,
        e.intervals,
        e.lost.as_secs(),
    )
}

fn ref_control_action(e: &ControlActionEvent) -> String {
    format!(
        "{},{},{},{},{},{},{}",
        e.at.as_secs(),
        e.kind.label(),
        e.trigger.label(),
        e.node.map(|n| n.index().to_string()).unwrap_or_default(),
        e.job.map(|j| j.raw().to_string()).unwrap_or_default(),
        u8::from(e.accepted),
        e.value,
    )
}

// ---- strategies ---------------------------------------------------------

/// `raw`, or one of the extremes a fixed-width integer field can hold.
fn edge_u64(raw: u64, pick: u8) -> u64 {
    match pick % 4 {
        0 => 0,
        1 => u64::MAX,
        _ => raw,
    }
}

fn edge_u32(raw: u32, pick: u8) -> u32 {
    match pick % 4 {
        0 => 0,
        1 => u32::MAX,
        _ => raw,
    }
}

/// A node id: `raw`, 0, or the largest id a fleet can hold. The snapshot
/// reader refuses an id at or above the header's node count, and
/// [`Streams::seal`] declares a fleet of `u32::MAX` nodes.
fn edge_node(raw: u32, pick: u8) -> NodeId {
    NodeId::new(edge_u32(raw, pick).min(u32::MAX - 1))
}

fn arb_signal(idx: u8, code: u16) -> SignalKind {
    const NAMED: [XidError; 6] = [
        XidError::DoubleBitEcc,
        XidError::RowRemapFailure,
        XidError::NvlinkError,
        XidError::FallenOffBus,
        XidError::GspTimeout,
        XidError::MemoryPageFault,
    ];
    match idx % 14 {
        0 => SignalKind::Xid(NAMED[code as usize % NAMED.len()]),
        1 => SignalKind::Xid(XidError::Other(code)),
        // `Other(48)` shares its code with `DoubleBitEcc`.
        2 => SignalKind::Xid(XidError::Other(48)),
        3 => SignalKind::PcieError,
        4 => SignalKind::IpmiCriticalInterrupt,
        5 => SignalKind::IbLinkError,
        6 => SignalKind::EthLinkError,
        7 => SignalKind::FsMountMissing,
        8 => SignalKind::MainMemoryError,
        9 => SignalKind::ServiceFailure,
        10 => SignalKind::BlockDeviceError,
        11 => SignalKind::NodeUnresponsive,
        12 => SignalKind::PowerFault,
        _ => SignalKind::ThermalWarning,
    }
}

prop_compose! {
    fn arb_job()(
        ids in (any::<u64>(), any::<u8>(), any::<u32>(), any::<u8>()),
        run in prop::option::of((any::<u64>(), any::<u8>())),
        gpus in (any::<u32>(), any::<u8>()),
        qos_idx in 0usize..3,
        nodes in prop::collection::vec((any::<u32>(), any::<u8>()), 0..5),
        times in (any::<u64>(), any::<u8>(), any::<u64>(), any::<u8>()),
        started in prop::option::of((any::<u64>(), any::<u8>())),
        status_idx in 0usize..JobStatus::ALL.len(),
        preempted_by in prop::option::of((any::<u64>(), any::<u8>())),
        instigator in prop::option::of((any::<u64>(), any::<u8>())),
    ) -> JobRecord {
        JobRecord {
            job: JobId::new(edge_u64(ids.0, ids.1)),
            attempt: edge_u32(ids.2, ids.3),
            run: run.map(|(v, p)| JobRunId::new(edge_u64(v, p))),
            gpus: edge_u32(gpus.0, gpus.1),
            qos: [QosClass::Low, QosClass::Normal, QosClass::High][qos_idx],
            nodes: nodes.into_iter().map(|(v, p)| edge_node(v, p)).collect(),
            enqueued_at: SimTime::from_secs(edge_u64(times.0, times.1)),
            started_at: started.map(|(v, p)| SimTime::from_secs(edge_u64(v, p))),
            ended_at: SimTime::from_secs(edge_u64(times.2, times.3)),
            status: JobStatus::ALL[status_idx],
            preempted_by: preempted_by.map(|(v, p)| JobId::new(edge_u64(v, p))),
            instigator: instigator.map(|(v, p)| JobId::new(edge_u64(v, p))),
        }
    }
}

prop_compose! {
    fn arb_health()(
        at in (any::<u64>(), any::<u8>()),
        node in (any::<u32>(), any::<u8>()),
        check_idx in 0usize..CheckKind::ALL.len(),
        high in any::<bool>(),
        signal in prop::option::of((any::<u8>(), any::<u16>())),
        false_positive in any::<bool>(),
    ) -> HealthEvent {
        HealthEvent {
            at: SimTime::from_secs(edge_u64(at.0, at.1)),
            node: edge_node(node.0, node.1),
            check: CheckKind::ALL[check_idx],
            severity: if high { Severity::High } else { Severity::Low },
            signal: signal.map(|(idx, code)| arb_signal(idx, code)),
            false_positive,
        }
    }
}

prop_compose! {
    fn arb_node_event()(
        at in (any::<u64>(), any::<u8>()),
        node in (any::<u32>(), any::<u8>()),
        kind_idx in 0usize..NodeEventKind::ALL.len(),
    ) -> NodeEvent {
        NodeEvent {
            node: edge_node(node.0, node.1),
            at: SimTime::from_secs(edge_u64(at.0, at.1)),
            kind: NodeEventKind::ALL[kind_idx],
        }
    }
}

prop_compose! {
    fn arb_exclusion()(
        at in (any::<u64>(), any::<u8>()),
        node in (any::<u32>(), any::<u8>()),
        job in (any::<u64>(), any::<u8>()),
    ) -> ExclusionEvent {
        ExclusionEvent {
            node: edge_node(node.0, node.1),
            job: JobId::new(edge_u64(job.0, job.1)),
            at: SimTime::from_secs(edge_u64(at.0, at.1)),
        }
    }
}

prop_compose! {
    fn arb_failure()(
        at in (any::<u64>(), any::<u8>()),
        node in (any::<u32>(), any::<u8>()),
        mode in (any::<u64>(), any::<u8>()),
        symptom_idx in 0usize..FailureSymptom::ALL.len(),
        permanent in any::<bool>(),
    ) -> FailureEvent {
        FailureEvent {
            at: SimTime::from_secs(edge_u64(at.0, at.1)),
            node: edge_node(node.0, node.1),
            mode: ModeId(edge_u64(mode.0, mode.1) as usize),
            symptom: FailureSymptom::ALL[symptom_idx],
            permanent,
        }
    }
}

prop_compose! {
    fn arb_ckpt_fallback()(
        at in (any::<u64>(), any::<u8>()),
        job in (any::<u64>(), any::<u8>()),
        gpus in (any::<u32>(), any::<u8>()),
        intervals in (any::<u32>(), any::<u8>()),
        lost in (any::<u64>(), any::<u8>()),
    ) -> CheckpointFallbackEvent {
        CheckpointFallbackEvent {
            at: SimTime::from_secs(edge_u64(at.0, at.1)),
            job: JobId::new(edge_u64(job.0, job.1)),
            gpus: edge_u32(gpus.0, gpus.1),
            intervals: edge_u32(intervals.0, intervals.1),
            lost: SimDuration::from_secs(edge_u64(lost.0, lost.1)),
        }
    }
}

prop_compose! {
    fn arb_control_action()(
        at in (any::<u64>(), any::<u8>()),
        kind_idx in 0usize..ControlActionKind::ALL.len(),
        trigger_idx in 0usize..ControlTrigger::ALL.len(),
        node in prop::option::of((any::<u32>(), any::<u8>())),
        job in prop::option::of((any::<u64>(), any::<u8>())),
        accepted in any::<bool>(),
        value in (any::<u64>(), any::<u8>()),
    ) -> ControlActionEvent {
        ControlActionEvent {
            at: SimTime::from_secs(edge_u64(at.0, at.1)),
            kind: ControlActionKind::ALL[kind_idx],
            trigger: ControlTrigger::ALL[trigger_idx],
            node: node.map(|(v, p)| edge_node(v, p)),
            job: job.map(|(v, p)| JobId::new(edge_u64(v, p))),
            accepted,
            value: edge_u64(value.0, value.1),
        }
    }
}

/// One run's worth of records for every stream.
#[derive(Debug, Clone, Default)]
struct Streams {
    jobs: Vec<JobRecord>,
    health: Vec<HealthEvent>,
    node_events: Vec<NodeEvent>,
    exclusions: Vec<ExclusionEvent>,
    failures: Vec<FailureEvent>,
    ckpt_fallbacks: Vec<CheckpointFallbackEvent>,
    control_actions: Vec<ControlActionEvent>,
}

impl Streams {
    fn seal(&self) -> TelemetryView {
        let mut store = TelemetryStore::new("parity", u32::MAX);
        store.set_horizon(SimTime::from_days(30));
        store.set_gpu_swaps(3);
        store.extend_jobs(self.jobs.iter().cloned());
        self.health.iter().for_each(|e| store.push_health_event(*e));
        self.node_events
            .iter()
            .for_each(|e| store.push_node_event(*e));
        self.exclusions
            .iter()
            .for_each(|e| store.push_exclusion(*e));
        self.failures
            .iter()
            .for_each(|e| store.push_ground_truth(*e));
        self.ckpt_fallbacks
            .iter()
            .for_each(|e| store.push_ckpt_fallback(*e));
        self.control_actions
            .iter()
            .for_each(|e| store.push_control_action(*e));
        store.seal()
    }

    /// Every section's rows as the reference encoders write them, in
    /// snapshot section order.
    fn reference_rows(&self) -> Vec<(&'static str, Vec<String>)> {
        vec![
            ("jobs", self.jobs.iter().map(ref_job).collect()),
            ("health", self.health.iter().map(ref_health).collect()),
            (
                "node_events",
                self.node_events.iter().map(ref_node_event).collect(),
            ),
            (
                "exclusions",
                self.exclusions.iter().map(ref_exclusion).collect(),
            ),
            ("failures", self.failures.iter().map(ref_failure).collect()),
            (
                "ckpt_fallbacks",
                self.ckpt_fallbacks.iter().map(ref_ckpt_fallback).collect(),
            ),
            (
                "control_actions",
                self.control_actions
                    .iter()
                    .map(ref_control_action)
                    .collect(),
            ),
        ]
    }
}

/// One section of a framed snapshot: its name, its record rows (frame
/// lines dropped) and its last frame checkpoint — the empty stream's head
/// when the section has no frames.
type Section = (String, Vec<String>, u64);

/// Splits a framed snapshot into its sections, in file order.
fn framed_sections(bytes: &[u8]) -> Vec<Section> {
    let text = std::str::from_utf8(bytes).expect("snapshot is UTF-8");
    let mut lines = text.lines().skip(6); // magic + five header lines
    let mut sections = Vec::new();
    while let Some(line) = lines.next() {
        let Some((name, count)) = line.split_once(' ') else {
            break; // `end`
        };
        if name == "chain" {
            continue;
        }
        let count: usize = count.parse().expect("section count");
        let mut rows = Vec::with_capacity(count);
        let mut head = ChainHasher::new(GENESIS).digest();
        while rows.len() < count {
            let frame = lines.next().expect("frame line");
            let [_, n, hash] = frame.split(' ').collect::<Vec<_>>()[..] else {
                panic!("not a frame line: {frame:?}");
            };
            head = u64::from_str_radix(hash, 16).expect("frame checkpoint");
            let n: usize = n.parse().expect("frame row count");
            rows.extend(lines.by_ref().take(n).map(str::to_string));
        }
        sections.push((name.to_string(), rows, head));
    }
    sections
}

fn snapshot(view: &TelemetryView) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, view).expect("in-memory write");
    bytes
}

fn assert_round_trip(streams: &Streams, back: &TelemetryView) {
    assert_eq!(back.jobs(), streams.jobs.as_slice());
    assert_eq!(back.health_events(), streams.health.as_slice());
    assert_eq!(back.node_events(), streams.node_events.as_slice());
    assert_eq!(back.exclusions(), streams.exclusions.as_slice());
    assert_eq!(back.ground_truth_failures(), streams.failures.as_slice());
    assert_eq!(back.ckpt_fallbacks(), streams.ckpt_fallbacks.as_slice());
    assert_eq!(back.control_actions(), streams.control_actions.as_slice());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The snapshot writer's rows equal the reference encoders' byte for
    /// byte, every section ends on the checkpoint `chain_heads()` gives
    /// its stream, every stream decodes back to its records, and the trace
    /// export matches the reference job rows.
    #[test]
    fn rows_match_reference_encoders_and_round_trip(
        jobs in prop::collection::vec(arb_job(), 0..12),
        health in prop::collection::vec(arb_health(), 0..12),
        node_events in prop::collection::vec(arb_node_event(), 0..12),
        exclusions in prop::collection::vec(arb_exclusion(), 0..12),
        failures in prop::collection::vec(arb_failure(), 0..12),
        ckpt_fallbacks in prop::collection::vec(arb_ckpt_fallback(), 0..12),
        control_actions in prop::collection::vec(arb_control_action(), 0..12),
    ) {
        let streams = Streams {
            jobs,
            health,
            node_events,
            exclusions,
            failures,
            ckpt_fallbacks,
            control_actions,
        };
        let view = streams.seal();
        let bytes = snapshot(&view);

        let mut want = streams.reference_rows();
        if streams.control_actions.is_empty() {
            want.pop(); // version 3: no control_actions section
        }
        let got = framed_sections(&bytes);
        prop_assert_eq!(got.len(), want.len());
        for ((name, rows, _), (want_name, want_rows)) in got.iter().zip(&want) {
            prop_assert_eq!(name.as_str(), *want_name);
            prop_assert_eq!(rows, want_rows);
        }

        // The heads `chain_heads()` folds are the ones the writer
        // checkpointed, section by section; v3's missing control_actions
        // section has the empty stream's head.
        let heads = view.chain_heads();
        for (i, (name, _, head)) in got.iter().enumerate() {
            prop_assert_eq!(*head, heads[i], "section {}", name);
        }
        if got.len() == 6 {
            prop_assert_eq!(heads[6], ChainHasher::new(GENESIS).digest());
        }

        let back = read_snapshot(bytes.as_slice()).expect("read own snapshot");
        assert_round_trip(&streams, &back);
        prop_assert_eq!(back.chain_heads(), view.chain_heads());

        let mut legacy = Vec::new();
        write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
        let back = read_snapshot(legacy.as_slice()).expect("read own legacy snapshot");
        prop_assert_eq!(back.jobs(), streams.jobs.as_slice());
        prop_assert_eq!(back.health_events(), streams.health.as_slice());
        prop_assert_eq!(back.chain_heads()[..5], view.chain_heads()[..5]);

        let mut trace = Vec::new();
        export_jobs(&mut trace, &streams.jobs).expect("in-memory write");
        let mut want_trace = format_row(TRACE_HEADER.iter().copied());
        want_trace.push('\n');
        for r in &streams.jobs {
            want_trace.push_str(&ref_job(r));
            want_trace.push('\n');
        }
        prop_assert_eq!(String::from_utf8(trace.clone()).unwrap(), want_trace);
        let jobs_back = import_jobs(trace.as_slice()).expect("import own trace");
        prop_assert_eq!(jobs_back, streams.jobs.clone());
    }
}

/// One record per stream, with the named/`Other` XID pair side by side.
fn sample() -> Streams {
    Streams {
        jobs: vec![JobRecord {
            job: JobId::new(7),
            attempt: 1,
            run: Some(JobRunId::new(3)),
            gpus: 16,
            qos: QosClass::High,
            nodes: vec![NodeId::new(0), NodeId::new(4)].into(),
            enqueued_at: SimTime::from_secs(10),
            started_at: Some(SimTime::from_secs(60)),
            ended_at: SimTime::from_secs(5000),
            status: JobStatus::NodeFail,
            preempted_by: None,
            instigator: Some(JobId::new(2)),
        }],
        health: vec![
            HealthEvent {
                at: SimTime::from_secs(120),
                node: NodeId::new(4),
                check: CheckKind::GpuMemory,
                severity: Severity::High,
                signal: Some(SignalKind::Xid(XidError::DoubleBitEcc)),
                false_positive: false,
            },
            HealthEvent {
                at: SimTime::from_secs(121),
                node: NodeId::new(4),
                check: CheckKind::GpuDriver,
                severity: Severity::Low,
                signal: Some(SignalKind::Xid(XidError::Other(48))),
                false_positive: true,
            },
        ],
        node_events: vec![NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(140),
            kind: NodeEventKind::RepairEscalated,
        }],
        exclusions: vec![ExclusionEvent {
            node: NodeId::new(4),
            job: JobId::new(7),
            at: SimTime::from_secs(150),
        }],
        failures: vec![FailureEvent {
            at: SimTime::from_secs(115),
            node: NodeId::new(4),
            mode: ModeId(2),
            symptom: FailureSymptom::GpuMemoryError,
            permanent: true,
        }],
        ckpt_fallbacks: vec![CheckpointFallbackEvent {
            at: SimTime::from_secs(600),
            job: JobId::new(7),
            gpus: 16,
            intervals: 2,
            lost: SimDuration::from_hours(2),
        }],
        control_actions: vec![ControlActionEvent {
            at: SimTime::from_secs(700),
            kind: ControlActionKind::RetuneCheckpoint,
            trigger: ControlTrigger::MttfRegression,
            node: None,
            job: Some(JobId::new(7)),
            accepted: false,
            value: 1800,
        }],
    }
}

#[test]
fn named_and_other_xid_rows_stay_distinct() {
    let streams = sample();
    let bytes = snapshot(&streams.seal());
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(text.contains("\n120,4,gpu_memory,high,xid48,0\n"), "{text}");
    assert!(text.contains("\n121,4,gpu_driver,low,xido48,1\n"), "{text}");
    assert_round_trip(&streams, &read_snapshot(bytes.as_slice()).unwrap());
}

/// Replaces the first full line equal to `row` with `with` (which carries
/// its own line ending); returns the new bytes and the row's 1-based line
/// number.
fn replace_row(bytes: &[u8], row: &str, with: &[u8]) -> (Vec<u8>, usize) {
    let needle = format!("\n{row}\n");
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())
        .unwrap_or_else(|| panic!("row {row:?} not in snapshot"));
    let mut out = bytes[..=at].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&bytes[at + needle.len()..]);
    let line = bytes[..=at].iter().filter(|&&b| b == b'\n').count() + 1;
    (out, line)
}

/// `row` with a `0` before its first numeric field after the first.
fn zero_in_middle(row: &str) -> String {
    let mut fields: Vec<String> = row.split(',').map(str::to_string).collect();
    let i = (1..fields.len() - 1)
        .find(|&i| !fields[i].is_empty() && fields[i].bytes().all(|b| b.is_ascii_digit()))
        .expect("a numeric middle field");
    fields[i].insert(0, '0');
    fields.join(",")
}

/// Spellings of `row` that the encoders never write. Each decodes to
/// nothing: the decoder refuses a `\r` before the `\n`, a sign, a leading
/// zero, a missing or extra field and a non-UTF-8 byte alike.
fn variants(row: &str) -> Vec<(&'static str, Vec<u8>)> {
    let (head, _) = row.rsplit_once(',').unwrap();
    let mut non_utf8 = row.as_bytes().to_vec();
    non_utf8.insert(1, 0xff);
    non_utf8.push(b'\n');
    vec![
        ("crlf", format!("{row}\r\n").into_bytes()),
        ("leading plus", format!("+{row}\n").into_bytes()),
        ("leading zero", format!("0{row}\n").into_bytes()),
        (
            "leading zero in a middle field",
            format!("{}\n", zero_in_middle(row)).into_bytes(),
        ),
        ("missing field", format!("{head}\n").into_bytes()),
        ("extra field", format!("{row},0\n").into_bytes()),
        ("non-utf8 byte", non_utf8),
    ]
}

#[test]
fn non_canonical_rows_are_parse_errors_at_their_line() {
    let streams = sample();
    let view = streams.seal();
    let framed = snapshot(&view);
    let mut legacy = Vec::new();
    write_snapshot_legacy(&mut legacy, &view).unwrap();

    for (name, rows) in streams.reference_rows() {
        let row = &rows[0];
        for (what, with) in variants(row) {
            // The legacy (v2) layout has no control_actions section.
            for (layout, bytes) in [("framed", &framed), ("legacy", &legacy)] {
                if layout == "legacy" && name == "control_actions" {
                    continue;
                }
                let (edited, row_line) = replace_row(bytes, row, &with);
                match read_snapshot(edited.as_slice()) {
                    Err(SnapshotError::Parse { line, .. }) => {
                        assert_eq!(line, row_line, "{layout} {name} row, {what}")
                    }
                    other => panic!("{layout} {name} row, {what}: {:?}", other.map(|_| ())),
                }
            }
        }
    }
}

#[test]
fn non_canonical_trace_rows_are_parse_errors_at_their_line() {
    let jobs = sample().jobs;
    let mut trace = Vec::new();
    export_jobs(&mut trace, &jobs).unwrap();
    let row = ref_job(&jobs[0]);
    for (what, with) in variants(&row) {
        let (edited, row_line) = replace_row(&trace, &row, &with);
        match import_jobs(edited.as_slice()) {
            Err(e) => assert_eq!(e.line, row_line, "trace row, {what}: {e}"),
            Ok(back) => panic!("trace row, {what}: read as {back:?}"),
        }
    }
}

/// The job record as it was while its nodes were a `Vec<NodeId>`: same
/// name, fields and order, so its derived `Debug` text is the old one.
mod vec_built {
    use super::*;

    #[derive(Debug)]
    pub struct JobRecord {
        pub job: JobId,
        pub attempt: u32,
        pub run: Option<JobRunId>,
        pub gpus: u32,
        pub qos: QosClass,
        pub nodes: Vec<NodeId>,
        pub enqueued_at: SimTime,
        pub started_at: Option<SimTime>,
        pub ended_at: SimTime,
        pub status: JobStatus,
        pub preempted_by: Option<JobId>,
        pub instigator: Option<JobId>,
    }
}

/// A record with 0, 1, 2 or 300 nodes prints, encodes and chains exactly as
/// the `Vec`-built record did, and its row decodes back to the same slice.
#[test]
fn node_lists_print_encode_and_chain_as_vec_built_records() {
    // `chain_digest` of each record, taken while `nodes` was a `Vec`.
    let vec_digests = [
        (0, 0x96c2_eb80_a473_4b92),
        (1, 0x24d4_bfb4_e6c2_742f),
        (2, 0xb085_1235_ea66_9260),
        (300, 0x8b0c_aef2_abee_1d31),
    ];
    for (n, vec_digest) in vec_digests {
        let nodes: Vec<NodeId> = (0..n).map(|i| NodeId::new(i * 3 + 1)).collect();
        let old = vec_built::JobRecord {
            job: JobId::new(40 + u64::from(n)),
            attempt: 2,
            run: Some(JobRunId::new(9)),
            gpus: 8 * n,
            qos: QosClass::Low,
            nodes,
            enqueued_at: SimTime::from_secs(100),
            started_at: (n > 0).then(|| SimTime::from_secs(160)),
            ended_at: SimTime::from_secs(4_000),
            status: JobStatus::Requeued,
            preempted_by: None,
            instigator: Some(JobId::new(5)),
        };
        let record = JobRecord {
            job: old.job,
            attempt: old.attempt,
            run: old.run,
            gpus: old.gpus,
            qos: old.qos,
            nodes: old.nodes.clone().into(),
            enqueued_at: old.enqueued_at,
            started_at: old.started_at,
            ended_at: old.ended_at,
            status: old.status,
            preempted_by: old.preempted_by,
            instigator: old.instigator,
        };
        assert_eq!(*record.nodes, *old.nodes, "{n} nodes");
        assert_eq!(format!("{record:?}"), format!("{old:?}"), "{n} nodes");
        assert_eq!(
            rsc_telemetry::chain::chain_digest(std::slice::from_ref(&record)),
            vec_digest,
            "{n} nodes"
        );

        let mut trace = Vec::new();
        export_jobs(&mut trace, std::slice::from_ref(&record)).unwrap();
        let node_field: Vec<String> = old.nodes.iter().map(|n| n.index().to_string()).collect();
        let row = format!(
            "{},2,9,{},low,{},100,{},4000,REQUEUED,,5",
            40 + n,
            8 * n,
            node_field.join(";"),
            if n > 0 { "160" } else { "" }
        );
        let header = format_row(TRACE_HEADER.iter().copied());
        assert_eq!(
            String::from_utf8(trace.clone()).unwrap(),
            format!("{header}\n{row}\n")
        );
        let back = import_jobs(trace.as_slice()).unwrap();
        assert_eq!(*back[0].nodes, *old.nodes, "{n} nodes");
        assert_eq!(back, [record]);
    }
}
