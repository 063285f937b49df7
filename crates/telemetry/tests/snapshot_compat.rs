//! Back-compat regression against the checked-in v1/v2 snapshot fixtures.
//!
//! The fixtures under `tests/fixtures/` at the workspace root are frozen
//! artifacts of the legacy encodings: older runs archived snapshots in
//! those formats, and the v3 codec must keep reading them forever. Each
//! test decodes a fixture, pins a sample of its content, proves the legacy
//! writer still reproduces the exact bytes, and re-encodes through v3 to
//! show legacy data survives a format upgrade byte-reproducibly.

use rsc_cluster::ids::NodeId;
use rsc_failure::modes::Severity;
use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::check::CheckKind;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::snapshot::{read_snapshot, write_snapshot, write_snapshot_legacy};
use rsc_telemetry::view::TelemetryView;

const V1_BYTES: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/snapshot_v1.snap"
));
const V2_BYTES: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/snapshot_v2.snap"
));

fn decode(bytes: &[u8]) -> TelemetryView {
    read_snapshot(bytes).expect("checked-in fixture decodes")
}

/// Content shared by both fixtures (v2 only appends to it).
fn assert_common_content(view: &TelemetryView) {
    assert_eq!(view.cluster_name(), "RSC-FIX");
    assert_eq!(view.num_nodes(), 32);
    assert_eq!(view.horizon(), SimTime::from_secs(259_200));
    assert_eq!(view.gpu_swaps(), 7);

    let jobs = view.jobs();
    assert_eq!(jobs.len(), 40);
    assert_eq!(jobs[5].gpus, 16);
    assert_eq!(jobs[5].enqueued_at, SimTime::from_secs(500));
    assert_eq!(
        *jobs[5].nodes,
        [NodeId::new(5), NodeId::new(6)],
        "job 5 spans two nodes starting at its own index"
    );

    let health = view.health_events();
    assert_eq!(health.len(), 60);
    assert_eq!(health[0].at, SimTime::from_secs(50));
    assert_eq!(health[0].check, CheckKind::GpuAccessible);
    assert_eq!(health[0].severity, Severity::High);
    assert!(health[0].false_positive);
    assert_eq!(health[13].check, CheckKind::GpuMemory);
    assert_eq!(health[13].severity, Severity::Low);
    assert!(!health[13].false_positive);

    assert_eq!(view.exclusions().len(), 8);
    assert_eq!(view.exclusions()[3].at, SimTime::from_secs(939));

    let failures = view.ground_truth_failures();
    assert_eq!(failures.len(), 12);
    assert_eq!(failures[0].symptom, FailureSymptom::Oom);
    assert_eq!(failures[11].symptom, FailureSymptom::NcclTimeout);
    assert!(failures[0].permanent);
    assert!(!failures[11].permanent);
}

fn legacy_bytes(view: &TelemetryView) -> Vec<u8> {
    let mut out = Vec::new();
    write_snapshot_legacy(&mut out, view).expect("in-memory write");
    out
}

fn v3_bytes(view: &TelemetryView) -> Vec<u8> {
    let mut out = Vec::new();
    write_snapshot(&mut out, view).expect("in-memory write");
    out
}

#[test]
fn v1_fixture_decodes_with_pinned_content() {
    let view = decode(V1_BYTES);
    assert_common_content(&view);
    // v1 predates the remediation-lifecycle kinds and checkpoint
    // fallbacks: only the three original node-event kinds appear.
    assert_eq!(view.node_events().len(), 10);
    assert!(view.ckpt_fallbacks().is_empty());
}

#[test]
fn v2_fixture_decodes_with_pinned_content() {
    let view = decode(V2_BYTES);
    assert_common_content(&view);
    assert_eq!(view.node_events().len(), 16);
    let fallbacks = view.ckpt_fallbacks();
    assert_eq!(fallbacks.len(), 5);
    assert_eq!(fallbacks[4].at, SimTime::from_secs(2664));
    assert_eq!(fallbacks[4].lost, SimDuration::from_secs(9000));
}

#[test]
fn legacy_writer_reproduces_fixture_bytes() {
    // The legacy writer chooses v1 when no v2 content is present and v2
    // otherwise, so a decode → re-encode cycle must reproduce each fixture
    // exactly: proof the legacy surface has not drifted.
    assert_eq!(legacy_bytes(&decode(V1_BYTES)), V1_BYTES);
    assert_eq!(legacy_bytes(&decode(V2_BYTES)), V2_BYTES);
}

#[test]
fn fixtures_upgrade_to_v3_byte_reproducibly() {
    for fixture in [V1_BYTES, V2_BYTES] {
        let view = decode(fixture);
        let upgraded = v3_bytes(&view);
        assert!(upgraded.starts_with(b"rsc-telemetry-snapshot v3"));
        let reread = read_snapshot(upgraded.as_slice()).expect("v3 re-encode reads back");
        // Byte-reproducible: encoding the re-read view again is identical,
        // and downgrading it reproduces the original fixture.
        assert_eq!(v3_bytes(&reread), upgraded);
        assert_eq!(legacy_bytes(&reread), fixture);
    }
}
