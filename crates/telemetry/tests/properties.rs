//! Property-based tests for telemetry: trace and snapshot roundtrips,
//! rolling rates, and the re-encode property — every input the snapshot
//! reader or the trace importer accepts re-encodes to the same bytes
//! (`common`), here over round trips, garbage and single-byte edits.

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
use rsc_telemetry::rolling::{bin_counts, rolling_rate};
use rsc_telemetry::snapshot::{write_snapshot, write_snapshot_with_frame_rows};
use rsc_telemetry::store::{
    CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger, ExclusionEvent,
    NodeEvent, NodeEventKind, TelemetryStore,
};
use rsc_telemetry::trace::export_jobs;

mod common;
use common::{import_jobs_canonical as import_jobs, read_snapshot_canonical as read_snapshot};

fn arb_status(idx: u8) -> JobStatus {
    JobStatus::ALL[idx as usize % JobStatus::ALL.len()]
}

fn arb_qos(idx: u8) -> QosClass {
    match idx % 3 {
        0 => QosClass::Low,
        1 => QosClass::Normal,
        _ => QosClass::High,
    }
}

prop_compose! {
    fn arb_record()(
        job in 1u64..1_000_000,
        attempt in 0u32..50,
        run in prop::option::of(1u64..1000),
        gpus in 1u32..4096,
        qos_idx in 0u8..3,
        node_count in 0usize..8,
        enq in 0u64..1_000_000,
        start_offset in prop::option::of(0u64..100_000),
        runtime in 0u64..1_000_000,
        status_idx in 0u8..8,
        preempted_by in prop::option::of(1u64..1000),
        instigator in prop::option::of(1u64..1000),
    ) -> JobRecord {
        let started_at = start_offset.map(|o| SimTime::from_secs(enq + o));
        let ended_at = match started_at {
            Some(s) => s + SimDuration::from_secs(runtime),
            None => SimTime::from_secs(enq + runtime),
        };
        JobRecord {
            job: JobId::new(job),
            attempt,
            run: run.map(JobRunId::new),
            gpus,
            qos: arb_qos(qos_idx),
            nodes: (0..node_count as u32).map(NodeId::new).collect(),
            enqueued_at: SimTime::from_secs(enq),
            started_at,
            ended_at,
            status: arb_status(status_idx),
            preempted_by: preempted_by.map(JobId::new),
            instigator: instigator.map(JobId::new),
        }
    }
}

proptest! {
    /// Any set of records survives a CSV export/import roundtrip exactly.
    #[test]
    fn trace_roundtrip(records in prop::collection::vec(arb_record(), 0..50)) {
        let mut buf = Vec::new();
        export_jobs(&mut buf, &records).expect("in-memory write");
        let back = import_jobs(buf.as_slice()).expect("parse");
        prop_assert_eq!(back, records);
    }

    /// Rolling rates are non-negative and conserve events against the
    /// direct bin counts.
    #[test]
    fn rolling_rate_consistency(
        times_raw in prop::collection::vec(0u64..100u64, 0..200),
        window_days in 1u64..30,
        nodes in 1u32..100,
    ) {
        let mut times: Vec<SimTime> = times_raw.iter().map(|&d| SimTime::from_days(d)).collect();
        times.sort();
        let horizon = SimTime::from_days(100);
        let series = rolling_rate(
            &times,
            horizon,
            SimDuration::from_days(window_days),
            SimDuration::from_days(1),
            nodes,
        );
        for p in &series {
            prop_assert!(p.value >= 0.0);
            // A window can never hold more than every event.
            prop_assert!(
                p.value <= times.len() as f64 / (window_days as f64 * nodes as f64) + 1e-9
            );
        }
        let counts = bin_counts(&times, horizon, SimDuration::from_days(1));
        prop_assert_eq!(counts.iter().sum::<u64>() as usize, times.len());
    }
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
    match idx % 13 {
        0 => SignalKind::Xid(NAMED[code as usize % NAMED.len()]),
        1 => SignalKind::Xid(XidError::Other(code)),
        2 => SignalKind::PcieError,
        3 => SignalKind::IpmiCriticalInterrupt,
        4 => SignalKind::IbLinkError,
        5 => SignalKind::EthLinkError,
        6 => SignalKind::FsMountMissing,
        7 => SignalKind::MainMemoryError,
        8 => SignalKind::ServiceFailure,
        9 => SignalKind::BlockDeviceError,
        10 => SignalKind::NodeUnresponsive,
        11 => SignalKind::PowerFault,
        _ => SignalKind::ThermalWarning,
    }
}

prop_compose! {
    fn arb_health()(
        at in 0u64..10_000_000,
        node in 0u32..4096,
        check_idx in 0usize..CheckKind::ALL.len(),
        high in any::<bool>(),
        signal in prop::option::of((0u8..13, 0u16..200)),
        false_positive in any::<bool>(),
    ) -> HealthEvent {
        HealthEvent {
            at: SimTime::from_secs(at),
            node: NodeId::new(node),
            check: CheckKind::ALL[check_idx],
            severity: if high { Severity::High } else { Severity::Low },
            signal: signal.map(|(idx, code)| arb_signal(idx, code)),
            false_positive,
        }
    }
}

prop_compose! {
    fn arb_node_event()(
        at in 0u64..10_000_000,
        node in 0u32..4096,
        kind_idx in 0u8..3,
    ) -> NodeEvent {
        NodeEvent {
            node: NodeId::new(node),
            at: SimTime::from_secs(at),
            kind: match kind_idx {
                0 => NodeEventKind::Drain,
                1 => NodeEventKind::EnterRemediation,
                _ => NodeEventKind::ExitRemediation,
            },
        }
    }
}

prop_compose! {
    fn arb_exclusion()(
        at in 0u64..10_000_000,
        node in 0u32..4096,
        job in 1u64..1_000_000,
    ) -> ExclusionEvent {
        ExclusionEvent {
            node: NodeId::new(node),
            job: JobId::new(job),
            at: SimTime::from_secs(at),
        }
    }
}

prop_compose! {
    fn arb_failure()(
        at in 0u64..10_000_000,
        node in 0u32..4096,
        mode in 0usize..40,
        symptom_idx in 0usize..FailureSymptom::ALL.len(),
        permanent in any::<bool>(),
    ) -> FailureEvent {
        FailureEvent {
            at: SimTime::from_secs(at),
            node: NodeId::new(node),
            mode: ModeId(mode),
            symptom: FailureSymptom::ALL[symptom_idx],
            permanent,
        }
    }
}

proptest! {
    /// Any telemetry content — all five streams plus the scalars —
    /// survives a snapshot write/read roundtrip exactly, and the
    /// serialization is canonical (write → read → write is byte-stable).
    #[test]
    fn snapshot_roundtrip_all_streams(
        name in "[a-zA-Z0-9_/.-]{0,24}",
        num_nodes in 1u32..5000,
        horizon in 0u64..100_000_000,
        gpu_swaps in 0u64..10_000,
        jobs in prop::collection::vec(arb_record(), 0..20),
        health in prop::collection::vec(arb_health(), 0..30),
        node_events in prop::collection::vec(arb_node_event(), 0..20),
        exclusions in prop::collection::vec(arb_exclusion(), 0..20),
        failures in prop::collection::vec(arb_failure(), 0..20),
    ) {
        // The reader refuses a node id at or above the header's count, so
        // every drawn id folds into the fleet.
        let fleet = |node: NodeId| NodeId::new(node.index() % num_nodes);
        let mut store = TelemetryStore::new(&name, num_nodes);
        store.extend(jobs.into_iter().map(|mut r| {
            r.nodes = r.nodes.iter().map(|&n| fleet(n)).collect();
            r
        }));
        for e in health { store.push(HealthEvent { node: fleet(e.node), ..e }); }
        for e in node_events { store.push(NodeEvent { node: fleet(e.node), ..e }); }
        for e in exclusions { store.push(ExclusionEvent { node: fleet(e.node), ..e }); }
        for e in failures { store.push(FailureEvent { node: fleet(e.node), ..e }); }
        store.set_horizon(SimTime::from_secs(horizon));
        store.set_gpu_swaps(gpu_swaps);
        let view = store.seal();

        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &view).expect("in-memory write");
        let back = read_snapshot(bytes.as_slice()).expect("parse own output");

        prop_assert_eq!(back.cluster_name(), view.cluster_name());
        prop_assert_eq!(back.num_nodes(), view.num_nodes());
        prop_assert_eq!(back.horizon(), view.horizon());
        prop_assert_eq!(back.gpu_swaps(), view.gpu_swaps());
        prop_assert_eq!(back.jobs(), view.jobs());
        prop_assert_eq!(back.health_events(), view.health_events());
        prop_assert_eq!(back.node_events(), view.node_events());
        prop_assert_eq!(back.exclusions(), view.exclusions());
        prop_assert_eq!(back.ground_truth_failures(), view.ground_truth_failures());

        let mut again = Vec::new();
        write_snapshot(&mut again, &back).expect("rewrite");
        prop_assert_eq!(again, bytes);
    }

    /// Arbitrary garbage — including mutated valid snapshots — must parse
    /// to a clean error or a view, never panic.
    #[test]
    fn snapshot_reader_never_panics(
        prefix_len in 0usize..400,
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut store = TelemetryStore::new("fuzz", 8);
        store.set_horizon(SimTime::from_days(1));
        let view = store.seal();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &view).expect("in-memory write");
        bytes.truncate(prefix_len.min(bytes.len()));
        bytes.extend_from_slice(&garbage);
        let _ = read_snapshot(bytes.as_slice());
    }
}

/// A small view with rows in every stream — named and `Other` XIDs, an
/// empty and a two-node job, both node/job spellings of a control action
/// — and, when `v4`, control actions (which make it a version-4 snapshot).
fn edit_sample(v4: bool) -> Vec<u8> {
    let mut store = TelemetryStore::new("RSC-E", 64);
    store.set_horizon(SimTime::from_days(2));
    store.set_gpu_swaps(3);
    for (i, nodes) in [
        vec![],
        vec![NodeId::new(0), NodeId::new(17)],
        vec![NodeId::new(9)],
    ]
    .into_iter()
    .enumerate()
    {
        let i = i as u64;
        store.push(JobRecord {
            job: JobId::new(10 + i),
            attempt: i as u32,
            run: (i > 0).then(|| JobRunId::new(i)),
            gpus: 8 * nodes.len() as u32,
            qos: arb_qos(i as u8),
            nodes: nodes.into(),
            enqueued_at: SimTime::from_secs(100 * i),
            started_at: (i > 0).then(|| SimTime::from_secs(100 * i + 30)),
            ended_at: SimTime::from_secs(100 * i + 5_000),
            status: arb_status(i as u8),
            preempted_by: (i == 2).then(|| JobId::new(10)),
            instigator: (i == 1).then(|| JobId::new(11)),
        });
    }
    for (i, signal) in [None, Some((0, 48)), Some((1, 48)), Some((5, 0))]
        .into_iter()
        .enumerate()
    {
        store.push(HealthEvent {
            at: SimTime::from_secs(200 + i as u64),
            node: NodeId::new(i as u32),
            check: CheckKind::ALL[i],
            severity: if i % 2 == 0 {
                Severity::High
            } else {
                Severity::Low
            },
            signal: signal.map(|(idx, code)| arb_signal(idx, code)),
            false_positive: i == 1,
        });
    }
    store.push(NodeEvent {
        node: NodeId::new(3),
        at: SimTime::from_secs(300),
        kind: NodeEventKind::Quarantined,
    });
    store.push(ExclusionEvent {
        node: NodeId::new(3),
        job: JobId::new(11),
        at: SimTime::from_secs(310),
    });
    store.push(FailureEvent {
        at: SimTime::from_secs(290),
        node: NodeId::new(3),
        mode: ModeId(12),
        symptom: FailureSymptom::ALL[2],
        permanent: true,
    });
    store.push(CheckpointFallbackEvent {
        at: SimTime::from_secs(320),
        job: JobId::new(11),
        gpus: 16,
        intervals: 2,
        lost: SimDuration::from_secs(3_600),
    });
    if v4 {
        for (node, job) in [(Some(NodeId::new(3)), None), (None, Some(JobId::new(11)))] {
            store.push(ControlActionEvent {
                at: SimTime::from_secs(330),
                kind: ControlActionKind::QuarantineNode,
                trigger: ControlTrigger::LemonSuspect,
                node,
                job,
                accepted: job.is_none(),
                value: 1_800,
            });
        }
    }
    let mut bytes = Vec::new();
    write_snapshot_with_frame_rows(&mut bytes, &store.seal(), 2).expect("in-memory write");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Single-byte edits of a v3 and a v4 snapshot — a `+`, a `0` or a
    /// `\r` inserted anywhere (after the final newline too), a digit
    /// replaced by another digit, a comma replaced by another byte — never
    /// load as a view that re-encodes differently: the reader refuses every
    /// second spelling of a record, header or frame line.
    #[test]
    fn single_byte_edits_never_load_a_second_spelling(
        v4 in any::<bool>(),
        edit in 0u8..5,
        raw_pos in any::<usize>(),
        by in 1u8..10,
    ) {
        let original = edit_sample(v4);
        let mut bytes = original.clone();
        let of = |pick: fn(u8) -> bool| -> Vec<usize> {
            (0..original.len()).filter(|&i| pick(original[i])).collect()
        };
        match edit {
            0..=2 => bytes.insert(raw_pos % (bytes.len() + 1), [b'+', b'0', b'\r'][edit as usize]),
            3 => {
                let digits = of(|b| b.is_ascii_digit());
                let at = digits[raw_pos % digits.len()];
                bytes[at] = b'0' + (bytes[at] - b'0' + by) % 10;
            }
            _ => {
                let commas = of(|b| b == b',');
                bytes[commas[raw_pos % commas.len()]] = b";0+ \r\n;0+"[by as usize - 1];
            }
        }
        prop_assert_ne!(&bytes, &original);
        prop_assert!(read_snapshot(&bytes).is_err(), "edit {} at {} loaded", edit, raw_pos);
    }
}
