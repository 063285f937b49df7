//! The re-encode property the codec suites share: whatever the snapshot
//! reader or the trace importer accepts, the writer spells back byte for
//! byte. A decoder that also accepted a second spelling of some record
//! (a sign, a leading zero, a `\r`) would load a byte-altered artifact as
//! the original view; these readers make every accepted input prove it
//! is the one canonical spelling.

// Each suite uses the half it needs.
#![allow(dead_code)]

use rsc_sched::accounting::JobRecord;
use rsc_telemetry::snapshot::{
    read_snapshot, write_snapshot_legacy, write_snapshot_with_frame_rows, SnapshotError,
};
use rsc_telemetry::trace::{export_jobs, import_jobs, ParseTraceError};
use rsc_telemetry::view::TelemetryView;

/// Panics unless `again` equals `input`, naming the first differing byte.
fn assert_same_bytes(input: &[u8], again: &[u8], what: &str) {
    if input != again {
        let at = input
            .iter()
            .zip(again)
            .position(|(a, b)| a != b)
            .unwrap_or(input.len().min(again.len()));
        panic!(
            "an accepted {what} re-encodes differently from byte {at}: read {:?}, wrote {:?}",
            String::from_utf8_lossy(&input[at.saturating_sub(20)..(at + 20).min(input.len())]),
            String::from_utf8_lossy(&again[at.saturating_sub(20)..(at + 20).min(again.len())]),
        );
    }
}

/// [`read_snapshot`], plus the re-encode property: when the read succeeds,
/// writing the view back in the same layout and frame geometry must give
/// exactly `bytes`.
pub fn read_snapshot_canonical(bytes: &[u8]) -> Result<TelemetryView, SnapshotError> {
    let view = read_snapshot(bytes)?;
    let frame_rows = bytes
        .split(|&b| b == b'\n')
        .find_map(|line| line.strip_prefix(b"frame_rows "))
        .map(|n| std::str::from_utf8(n).unwrap().parse().unwrap());
    let mut again = Vec::new();
    match frame_rows {
        Some(frame_rows) => write_snapshot_with_frame_rows(&mut again, &view, frame_rows),
        None => write_snapshot_legacy(&mut again, &view),
    }
    .expect("in-memory write");
    assert_same_bytes(bytes, &again, "snapshot");
    Ok(view)
}

/// [`import_jobs`], plus the re-encode property: when the import succeeds,
/// exporting the records must give exactly `bytes`.
pub fn import_jobs_canonical(bytes: &[u8]) -> Result<Vec<JobRecord>, ParseTraceError> {
    let jobs = import_jobs(bytes)?;
    let mut again = Vec::new();
    export_jobs(&mut again, &jobs).expect("in-memory write");
    assert_same_bytes(bytes, &again, "job trace");
    Ok(jobs)
}
