//! Corruption-injection suite for the version-3 snapshot codec.
//!
//! The v3 format chains every stream from [`GENESIS`] with per-frame
//! checkpoints plus a combined trailing head, so any byte-level tampering
//! must surface as a typed [`SnapshotError`] — never a panic, and never a
//! silently-different view. Each property here injects one class of damage
//! the chain was designed to catch: single bit flips, truncation, frame
//! reordering, and cross-snapshot frame/chain splices. Forged section
//! counts — in the framed and the legacy layouts — must fail the same way,
//! never by aborting on an impossible allocation. So must numbers too
//! large for their field, in a row, in the header or in a job trace: a
//! decoder that truncated them would hand the chain the original value,
//! and the forged bytes would read as the original view. Every read here
//! also checks the re-encode property (`common`): an input the reader
//! accepts is the writer's own spelling of it. A row naming a node at or
//! above the header's node count fails typed too, chain-valid or not.
//!
//! [`GENESIS`]: rsc_telemetry::GENESIS

use proptest::prelude::*;

use rsc_cluster::ids::{JobId, NodeId};
use rsc_failure::injector::FailureEvent;
use rsc_failure::modes::{ModeId, Severity};
use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::check::CheckKind;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::snapshot::{
    write_snapshot_legacy, write_snapshot_with_frame_rows, SnapshotError,
};
use rsc_telemetry::store::{
    CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger, ExclusionEvent,
    NodeEvent, NodeEventKind, TelemetryStore,
};
use rsc_telemetry::trace::export_jobs;
use rsc_telemetry::view::TelemetryView;
use rsc_telemetry::{ChainHasher, GENESIS};

mod common;
use common::{import_jobs_canonical as import_jobs, read_snapshot_canonical as read_snapshot};

/// A view whose records are all distinct (strictly increasing timestamps
/// offset by `base`), so no two frames can ever hold identical bytes and a
/// reorder is always a real change.
fn build_view(base: u64, health: usize, failures: usize) -> TelemetryView {
    let mut store = TelemetryStore::new("corrupt-me", 64);
    for i in 0..health {
        store.push(HealthEvent {
            at: SimTime::from_secs(base + 7 * i as u64),
            node: NodeId::new((i % 64) as u32),
            check: CheckKind::ALL[i % CheckKind::ALL.len()],
            severity: if i % 3 == 0 {
                Severity::High
            } else {
                Severity::Low
            },
            signal: None,
            false_positive: i % 2 == 0,
        });
    }
    for i in 0..failures {
        store.push(FailureEvent {
            at: SimTime::from_secs(base + 11 * i as u64),
            node: NodeId::new((i % 64) as u32),
            mode: ModeId(i % 5),
            symptom: FailureSymptom::ALL[i % FailureSymptom::ALL.len()],
            permanent: i % 2 == 1,
        });
    }
    store.set_horizon(SimTime::from_secs(base + 1_000_000));
    store.seal()
}

fn snapshot_bytes(view: &TelemetryView, frame_rows: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_snapshot_with_frame_rows(&mut bytes, view, frame_rows).expect("in-memory write");
    bytes
}

/// The `health` section's frame blocks as `(first_line, line_count)` spans
/// over `lines` — each span covers one `frame` line plus its rows.
fn health_frame_blocks(lines: &[String]) -> Vec<(usize, usize)> {
    let header = lines
        .iter()
        .position(|l| l.starts_with("health "))
        .expect("health section header");
    let mut blocks = Vec::new();
    let mut i = header + 1;
    while i < lines.len() && lines[i].starts_with("frame ") {
        let rows: usize = lines[i]
            .split(' ')
            .nth(1)
            .expect("frame line has a row count")
            .parse()
            .expect("frame row count parses");
        blocks.push((i, rows + 1));
        i += rows + 1;
    }
    blocks
}

fn to_lines(bytes: &[u8]) -> Vec<String> {
    String::from_utf8(bytes.to_vec())
        .expect("snapshot is utf-8")
        .split('\n')
        .map(str::to_string)
        .collect()
}

fn from_lines(lines: &[String]) -> Vec<u8> {
    lines.join("\n").into_bytes()
}

proptest! {
    /// Flipping any single bit anywhere in a v3 snapshot yields a typed
    /// error: header bytes feed the combined chain, rows feed their frame
    /// checkpoint, and digest/keyword lines fail to parse. Never a panic,
    /// never a silently-accepted view.
    #[test]
    fn any_single_bit_flip_is_rejected(
        health in 1usize..40,
        failures in 0usize..20,
        frame_rows in 1usize..5,
        raw_pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let view = build_view(1_000, health, failures);
        let mut bytes = snapshot_bytes(&view, frame_rows);
        let pos = raw_pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match read_snapshot(bytes.as_slice()) {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(_) => prop_assert!(
                false,
                "bit {bit} of byte {pos} flipped without being detected"
            ),
        }
    }

    /// Any truncation is rejected, down to dropping only the final
    /// newline: every line, `end` included, must end in `\n`.
    #[test]
    fn truncation_is_rejected(
        health in 1usize..40,
        failures in 0usize..20,
        frame_rows in 1usize..5,
        raw_pos in any::<usize>(),
    ) {
        let view = build_view(1_000, health, failures);
        let mut bytes = snapshot_bytes(&view, frame_rows);
        bytes.truncate(raw_pos % bytes.len());
        prop_assert!(read_snapshot(bytes.as_slice()).is_err());
    }

    /// Swapping two frames of a stream breaks the running chain at the
    /// first swapped checkpoint: the digest stored with a frame covers the
    /// whole stream prefix, so frames are position-locked.
    #[test]
    fn frame_reorder_is_a_chain_error(
        frame_rows in 1usize..5,
        extra in 0usize..4,
        failures in 0usize..10,
    ) {
        let view = build_view(1_000, frame_rows * 2 + extra, failures);
        let lines = to_lines(&snapshot_bytes(&view, frame_rows));
        let blocks = health_frame_blocks(&lines);
        prop_assert!(blocks.len() >= 2);
        let (a_start, a_len) = blocks[0];
        let (b_start, b_len) = blocks[1];
        let mut reordered: Vec<String> = lines[..a_start].to_vec();
        reordered.extend_from_slice(&lines[b_start..b_start + b_len]);
        reordered.extend_from_slice(&lines[a_start..a_start + a_len]);
        reordered.extend_from_slice(&lines[b_start + b_len..]);
        let bytes = from_lines(&reordered);
        match read_snapshot(bytes.as_slice()) {
            Err(SnapshotError::Chain { stream, .. }) => prop_assert_eq!(stream, "health"),
            other => prop_assert!(false, "reorder not caught as a chain error: {:?}", other.err()),
        }
    }

    /// Splicing a frame from another (internally consistent) snapshot into
    /// this one is caught: mid-stream the next checkpoint mismatches, and a
    /// spliced first-and-only frame shifts the stream head so the combined
    /// chain line fails instead.
    #[test]
    fn cross_snapshot_frame_splice_is_a_chain_error(
        frame_rows in 1usize..5,
        nframes in 1usize..3,
        splice_idx in any::<usize>(),
    ) {
        let count = frame_rows * nframes;
        let ours = to_lines(&snapshot_bytes(&build_view(1_000, count, 0), frame_rows));
        let theirs = to_lines(&snapshot_bytes(&build_view(500_000, count, 0), frame_rows));
        let our_blocks = health_frame_blocks(&ours);
        let their_blocks = health_frame_blocks(&theirs);
        prop_assert_eq!(our_blocks.len(), their_blocks.len());
        let k = splice_idx % our_blocks.len();
        let (o_start, o_len) = our_blocks[k];
        let (t_start, t_len) = their_blocks[k];
        let mut spliced: Vec<String> = ours[..o_start].to_vec();
        spliced.extend_from_slice(&theirs[t_start..t_start + t_len]);
        spliced.extend_from_slice(&ours[o_start + o_len..]);
        let bytes = from_lines(&spliced);
        match read_snapshot(bytes.as_slice()) {
            Err(SnapshotError::Chain { .. }) => {}
            other => prop_assert!(false, "splice not caught as a chain error: {:?}", other.err()),
        }
    }
}

/// Grafting the trailing `chain` line from another snapshot fails with a
/// combined-chain error even when every stream section is untouched.
#[test]
fn spliced_combined_chain_line_is_rejected() {
    let mut ours = to_lines(&snapshot_bytes(&build_view(1_000, 10, 5), 4));
    let theirs = to_lines(&snapshot_bytes(&build_view(500_000, 10, 5), 4));
    let chain_at = ours
        .iter()
        .position(|l| l.starts_with("chain "))
        .expect("chain line");
    let their_chain = theirs
        .iter()
        .find(|l| l.starts_with("chain "))
        .expect("chain line")
        .clone();
    assert_ne!(ours[chain_at], their_chain);
    ours[chain_at] = their_chain;
    match read_snapshot(from_lines(&ours).as_slice()) {
        Err(SnapshotError::Chain { stream, .. }) => assert_eq!(stream, "combined"),
        other => panic!("spliced chain line not caught: {:?}", other.err()),
    }
}

/// Replaces the count on the `<section> <count>` line with `count`.
fn forge_count(bytes: &[u8], section: &str, count: &str) -> Vec<u8> {
    let mut lines = to_lines(bytes);
    let prefix = format!("{section} ");
    let at = lines
        .iter()
        .position(|l| l.starts_with(&prefix))
        .expect("section header");
    lines[at] = format!("{section} {count}");
    from_lines(&lines)
}

/// A section count comes from the file. Counts no allocation could hold,
/// and counts larger than the rows present, must both end in a typed
/// error — never a capacity-overflow panic or an out-of-memory abort.
#[test]
fn forged_section_counts_fail_typed() {
    let view = build_view(1_000, 10, 5);
    let framed = snapshot_bytes(&view, 4);
    let mut legacy = Vec::new();
    write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
    let counts = [
        u64::MAX.to_string(),
        (u64::MAX / 2).to_string(),
        (1u64 << 40).to_string(),
        "11".to_string(),
        "1000000".to_string(),
    ];
    for (layout, bytes) in [("framed", &framed), ("legacy", &legacy)] {
        for section in ["jobs", "health", "failures"] {
            for count in &counts {
                let forged = forge_count(bytes, section, count);
                match read_snapshot(forged.as_slice()) {
                    Err(SnapshotError::Parse { .. } | SnapshotError::Chain { .. }) => {}
                    other => panic!(
                        "{layout} `{section} {count}` not rejected as parse/chain: {:?}",
                        other.map(|_| ())
                    ),
                }
            }
        }
    }
}

/// One record in every stream, so each `u32` field of every row kind is
/// present: job attempt, gpus and node ids; every node column; the
/// checkpoint fallback's gpus and intervals.
fn every_stream_view() -> TelemetryView {
    let job = JobId::new(7);
    let node = NodeId::new(4);
    let at = SimTime::from_secs(100);
    let mut store = TelemetryStore::new("forge-me", 64);
    store.set_horizon(SimTime::from_days(1));
    store.push(JobRecord {
        job,
        attempt: 2,
        run: None,
        gpus: 16,
        qos: QosClass::High,
        nodes: vec![node, NodeId::new(5)].into(),
        enqueued_at: SimTime::ZERO,
        started_at: Some(at),
        ended_at: SimTime::from_secs(5_000),
        status: JobStatus::NodeFail,
        preempted_by: None,
        instigator: None,
    });
    store.push(HealthEvent {
        at,
        node,
        check: CheckKind::GpuMemory,
        severity: Severity::High,
        signal: None,
        false_positive: false,
    });
    store.push(NodeEvent {
        node,
        at,
        kind: NodeEventKind::Drain,
    });
    store.push(ExclusionEvent { node, job, at });
    store.push(FailureEvent {
        at,
        node,
        mode: ModeId(2),
        symptom: FailureSymptom::GpuMemoryError,
        permanent: true,
    });
    store.push(CheckpointFallbackEvent {
        at,
        job,
        gpus: 16,
        intervals: 2,
        lost: SimDuration::from_hours(1),
    });
    store.push(ControlActionEvent {
        at,
        kind: ControlActionKind::QuarantineNode,
        trigger: ControlTrigger::LemonSuspect,
        node: Some(node),
        job: None,
        accepted: true,
        value: 0,
    });
    store.seal()
}

/// Adds 2^32 to one number of `row`: field `field`, and within a `;` list
/// its first entry. A decoder that cast the result to `u32` would read the
/// original value back.
fn wrap_u32(row: &str, field: usize) -> String {
    let mut fields: Vec<String> = row.split(',').map(str::to_string).collect();
    let mut entries: Vec<String> = fields[field].split(';').map(str::to_string).collect();
    let v: u64 = entries[0].parse().expect("numeric field");
    entries[0] = (v + (1u64 << 32)).to_string();
    fields[field] = entries.join(";");
    fields.join(",")
}

/// `bytes` with field `field` of the first row of `section` wrapped by
/// [`wrap_u32`]. Works on both layouts: a framed section's first row
/// follows its first `frame` line.
fn wrap_section_field(bytes: &[u8], section: &str, field: usize) -> Vec<u8> {
    let mut lines = to_lines(bytes);
    let prefix = format!("{section} ");
    let header = lines
        .iter()
        .position(|l| l.starts_with(&prefix))
        .expect("section header");
    let row = if lines[header + 1].starts_with("frame ") {
        header + 2
    } else {
        header + 1
    };
    lines[row] = wrap_u32(&lines[row], field);
    from_lines(&lines)
}

/// Every `u32` field of every row kind, in both layouts: a value past
/// `u32::MAX` is a typed parse error, never a silent wrap to a record the
/// chain then accepts.
#[test]
fn forged_out_of_range_row_fields_fail_typed() {
    let view = every_stream_view();
    let framed = snapshot_bytes(&view, 4);
    let mut legacy = Vec::new();
    write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
    let fields = [
        ("jobs", 1, "attempt"),
        ("jobs", 3, "gpus"),
        ("jobs", 5, "node id"),
        ("health", 1, "node"),
        ("node_events", 1, "node"),
        ("exclusions", 1, "node"),
        ("failures", 1, "node"),
        ("ckpt_fallbacks", 2, "gpus"),
        ("ckpt_fallbacks", 3, "intervals"),
        ("control_actions", 3, "node"),
    ];
    for (layout, bytes) in [("framed", &framed), ("legacy", &legacy)] {
        for (section, field, what) in fields {
            // The legacy (v2) layout has no control_actions section.
            if layout == "legacy" && section == "control_actions" {
                continue;
            }
            let forged = wrap_section_field(bytes, section, field);
            match read_snapshot(forged.as_slice()) {
                Err(SnapshotError::Parse { message, .. }) => assert!(
                    message.contains(&format!("bad {what}")),
                    "{layout} {section} field {field}: {message}"
                ),
                other => panic!(
                    "{layout} {section} field {field} past u32::MAX not rejected as parse: {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }
}

/// The header's node count is a `u32` too.
#[test]
fn forged_out_of_range_node_count_fails_typed() {
    let view = every_stream_view();
    let framed = snapshot_bytes(&view, 4);
    let mut legacy = Vec::new();
    write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
    for bytes in [&framed, &legacy] {
        let mut lines = to_lines(bytes);
        assert_eq!(lines[2], "nodes 64");
        lines[2] = format!("nodes {}", 64 + (1u64 << 32));
        match read_snapshot(from_lines(&lines).as_slice()) {
            Err(SnapshotError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("bad node count"), "{message}");
            }
            other => panic!(
                "node count past u32::MAX not rejected: {:?}",
                other.map(|_| ())
            ),
        }
    }
}

/// A job trace refuses the same out-of-range numbers.
#[test]
fn forged_out_of_range_trace_fields_fail_typed() {
    let jobs = every_stream_view().jobs().to_vec();
    let mut trace = Vec::new();
    export_jobs(&mut trace, &jobs).expect("in-memory write");
    let mut lines = to_lines(&trace);
    let row = lines[1].clone();
    for (field, what) in [(1, "attempt"), (3, "gpus"), (5, "node id")] {
        lines[1] = wrap_u32(&row, field);
        match import_jobs(from_lines(&lines).as_slice()) {
            Err(e) => {
                assert_eq!(e.line, 2);
                assert!(e.message.contains(&format!("bad {what}")), "{e}");
            }
            Ok(back) => panic!("trace field {field} past u32::MAX read as {back:?}"),
        }
    }
}

/// [`every_stream_view`] declared as a fleet of 6 nodes, so its nodes 4
/// and 5 are the fleet's last two, with the record of `section` naming
/// node 6 as well (a job gains it, every other row moves to it).
fn stray_node_view(section: &str) -> TelemetryView {
    let view = every_stream_view();
    let stray = NodeId::new(6);
    let node = |own: &str, n: NodeId| if own == section { stray } else { n };
    let mut store = TelemetryStore::new("stray", 6);
    store.set_horizon(view.horizon());
    store.extend(view.jobs().iter().cloned().map(|mut r| {
        if section == "jobs" {
            r.nodes = r.nodes.iter().copied().chain([stray]).collect();
        }
        r
    }));
    for &e in view.health_events() {
        let node = node("health", e.node);
        store.push(HealthEvent { node, ..e });
    }
    for &e in view.node_events() {
        let node = node("node_events", e.node);
        store.push(NodeEvent { node, ..e });
    }
    for &e in view.exclusions() {
        let node = node("exclusions", e.node);
        store.push(ExclusionEvent { node, ..e });
    }
    for &e in view.ground_truth_failures() {
        let node = node("failures", e.node);
        store.push(FailureEvent { node, ..e });
    }
    for &e in view.ckpt_fallbacks() {
        store.push(e);
    }
    for &e in view.control_actions() {
        let node = e.node.map(|n| node("control_actions", n));
        store.push(ControlActionEvent { node, ..e });
    }
    store.seal()
}

/// A row naming a node at or above the header's node count is a typed
/// parse error at that row, in every node-bearing field and both
/// layouts, even though every checkpoint matches: the per-node analyses
/// index fleet-sized arrays by node id, so such an artifact must not
/// load. The fleet's last node is accepted.
#[test]
fn node_ids_past_the_header_fail_typed() {
    let inside = stray_node_view("none");
    read_snapshot(snapshot_bytes(&inside, 4).as_slice()).expect("nodes 4 and 5 of 6");
    for section in [
        "jobs",
        "health",
        "node_events",
        "exclusions",
        "failures",
        "control_actions",
    ] {
        let view = stray_node_view(section);
        let mut legacy = Vec::new();
        write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
        for (layout, bytes) in [("framed", snapshot_bytes(&view, 4)), ("legacy", legacy)] {
            // The legacy (v2) layout has no control_actions section.
            if layout == "legacy" && section == "control_actions" {
                continue;
            }
            let lines = to_lines(&bytes);
            let header = lines
                .iter()
                .position(|l| l.starts_with(&format!("{section} ")))
                .expect("section header");
            let row = if layout == "framed" {
                header + 3
            } else {
                header + 2
            };
            match read_snapshot(bytes.as_slice()) {
                Err(SnapshotError::Parse { line, message }) => {
                    assert_eq!(line, row, "{layout} {section}: {message}");
                    assert!(
                        message.contains("node 6 outside the header's 6 nodes"),
                        "{layout} {section}: {message}"
                    );
                }
                other => panic!(
                    "{layout} {section} node past the header not rejected: {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }
}

/// `bytes` with the first line starting `prefix` passed through `edit`;
/// returns the new bytes and that line's 1-based number.
fn edit_line(bytes: &[u8], prefix: &str, edit: impl Fn(&str) -> String) -> (Vec<u8>, usize) {
    let mut lines = to_lines(bytes);
    let at = lines
        .iter()
        .position(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starts with {prefix:?}"));
    lines[at] = edit(&lines[at]);
    (from_lines(&lines), at + 1)
}

/// `line` with `insert` put in front of its first digit.
fn before_digits(line: &str, insert: &str) -> String {
    let at = line.find(|c: char| c.is_ascii_digit()).expect("a number");
    format!("{}{insert}{}", &line[..at], &line[at..])
}

/// Header and frame lines go through the row decoder's number reader: a
/// leading zero, a sign or a `\r` on any of them is a typed parse error
/// at that line, in both layouts, not a second spelling of the same
/// header (the combined chain hashes the values, not their bytes).
#[test]
fn non_canonical_header_and_frame_lines_fail_typed() {
    let view = every_stream_view();
    let framed = snapshot_bytes(&view, 4);
    let mut legacy = Vec::new();
    write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
    type Edit = fn(&str) -> String;
    let edits: [(&str, &str, Edit); 7] = [
        ("nodes 64", "nodes ", |l| before_digits(l, "0")),
        ("jobs +1", "jobs ", |l| before_digits(l, "+")),
        ("gpu_swaps 00", "gpu_swaps ", |l| before_digits(l, "0")),
        ("horizon CRLF", "horizon ", |l| format!("{l}\r")),
        ("cluster CRLF", "cluster ", |l| format!("{l}\r")),
        ("frame_rows 04", "frame_rows ", |l| before_digits(l, "0")),
        ("frame 01 <hash>", "frame ", |l| before_digits(l, "0")),
    ];
    for (layout, bytes) in [("framed", &framed), ("legacy", &legacy)] {
        for (what, prefix, edit) in edits {
            if layout == "legacy" && prefix.starts_with("frame") {
                continue; // the legacy layout has no frames
            }
            let (forged, want_line) = edit_line(bytes, prefix, edit);
            match read_snapshot(forged.as_slice()) {
                Err(SnapshotError::Parse { line, message }) => {
                    assert_eq!(line, want_line, "{layout} {what}: {message}")
                }
                other => panic!(
                    "{layout} {what} not rejected as parse: {:?}",
                    other.map(|_| ())
                ),
            }
        }
    }
}

/// The whole file has one spelling too: `end` and its newline close it,
/// and the version line is the one the writer picks for the content —
/// v1 or v2 by whether v2 content is present, v3 or v4 by whether control
/// actions are. A second spelling is a parse error at the line that
/// differs, even when every checkpoint matches.
#[test]
fn second_spellings_of_the_file_fail_typed() {
    let view = build_view(1_000, 3, 2);
    let framed = snapshot_bytes(&view, 4);
    let mut legacy = Vec::new();
    write_snapshot_legacy(&mut legacy, &view).expect("in-memory write");
    let end_line = to_lines(&framed).len() - 1;

    let mut trailing = framed.clone();
    trailing.extend_from_slice(b"\n");
    // A v1 body under a v2 header needs only an empty ckpt_fallbacks
    // section, which is unhashed.
    let v2 = String::from_utf8(legacy.clone())
        .unwrap()
        .replace("snapshot v1\n", "snapshot v2\n")
        .replace("\nend\n", "\nckpt_fallbacks 0\nend\n");
    // A v3 body under a v4 header: an empty control_actions section and
    // the combined chain recomputed over its (empty-stream) head.
    let heads = view.chain_heads();
    let mut h = ChainHasher::new(GENESIS);
    h.write_bytes(view.cluster_name().as_bytes());
    for v in [
        u64::from(view.num_nodes()),
        view.horizon().as_secs(),
        view.gpu_swaps(),
        4,
    ] {
        h.write_u64(v);
    }
    heads.iter().for_each(|&head| h.write_u64(head));
    let text = String::from_utf8(framed.clone()).unwrap();
    let chain_at = text.find("\nchain ").unwrap() + 1;
    let v4 = format!(
        "{}control_actions 0\nchain {:016x}\nend\n",
        text[..chain_at].replace("snapshot v3\n", "snapshot v4\n"),
        h.digest()
    );

    let cases: [(&str, &[u8], usize); 4] = [
        ("no final newline", &framed[..framed.len() - 1], end_line),
        ("data after `end`", &trailing, end_line + 1),
        ("v1 content under a v2 header", v2.as_bytes(), 1),
        ("v3 content under a v4 header", v4.as_bytes(), 1),
    ];
    for (what, bytes, want_line) in cases {
        match read_snapshot(bytes) {
            Err(SnapshotError::Parse { line, message }) => {
                assert_eq!(line, want_line, "{what}: {message}")
            }
            other => panic!("{what} not rejected as parse: {:?}", other.map(|_| ())),
        }
    }
}
