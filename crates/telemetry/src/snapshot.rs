//! Versioned on-disk snapshots of sealed telemetry.
//!
//! A snapshot is the cacheable artifact of one simulated run: every stream
//! a [`TelemetryView`] holds, in a hand-rolled, line-oriented text format in
//! the same spirit as the `sacct`-style job trace (`trace.rs`) — no external
//! serialization crates. The encoding is canonical, so
//! `write → read → write` reproduces the original bytes exactly; the
//! scenario runner relies on this to prove cache hits are byte-identical to
//! fresh simulation.
//!
//! Layout (versions 3 and 4, the formats [`write_snapshot`] emits):
//!
//! ```text
//! rsc-telemetry-snapshot v3
//! cluster <name>
//! nodes <u32>
//! horizon <seconds>
//! gpu_swaps <u64>
//! frame_rows 4096
//! jobs <count>           — framed rows, trace format
//! frame <rows> <hash>    — then <rows> record rows
//! ...
//! health <count>         — at,node,check,severity,signal,false_positive
//! node_events <count>    — at,node,kind
//! exclusions <count>     — at,node,job
//! failures <count>       — at,node,mode,symptom,permanent
//! ckpt_fallbacks <count> — at,job,gpus,intervals,lost
//! chain <hash>
//! end
//! ```
//!
//! Each stream is split into *frames* of `frame_rows` rows (all frames full
//! except possibly the last). A frame line carries the stream's running
//! [`ChainHasher`] digest *after* the frame's rows, chained from
//! [`GENESIS`]; the reader re-hashes every parsed row and rejects any frame
//! whose checkpoint does not match ([`SnapshotError::Chain`]), catching bit
//! flips, truncation, frame reordering, and cross-snapshot splices. The
//! trailing `chain` line covers the header fields plus every stream head.
//! Frame geometry is fixed at [`SNAPSHOT_FRAME_ROWS`], so the same records
//! always serialize to the same bytes.
//!
//! Version 4 adds one framed section, `control_actions <count>`
//! (at,kind,trigger,node,job,accepted,value), after `ckpt_fallbacks`, and
//! folds its head into the trailing `chain`. The writer emits v4 only for
//! views that actually contain control actions; any open-loop run keeps
//! producing bytes identical to the version-3 format, which is what pins
//! controller-disabled runs to their pre-control snapshots.
//!
//! Versions 1 and 2 (the unframed, unhashed legacy formats — v2 added the
//! fallible-remediation vocabulary and the `ckpt_fallbacks` section to v1)
//! remain fully readable; `write_snapshot_legacy` keeps emitting them for
//! the back-compat fixtures.
//!
//! Every layout writes and reads each section through one generic pair,
//! `write_section` and `read_section`, over the stream's [`Record`] impl,
//! which supplies the keyword, row codec, chain fold and node ids. A
//! section is present exactly when the version is at least its
//! [`Record::SINCE`].

use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

use rsc_sim_core::time::SimTime;

use crate::chain::{ChainHasher, GENESIS};
use crate::record::{Record, Streams};
use crate::rows;
use crate::store::Header;
use crate::view::TelemetryView;

/// Highest format version [`write_snapshot`] emits; bumped on any change
/// to the encoding. Participates in the scenario-cache fingerprint so
/// stale artifacts are never loaded by a newer binary.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Rows per frame in a framed (v3/v4) snapshot. A format constant:
/// changing it changes the emitted bytes and requires a version bump.
pub const SNAPSHOT_FRAME_ROWS: usize = 4096;

const MAGIC_V1: &str = "rsc-telemetry-snapshot v1";
const MAGIC_V2: &str = "rsc-telemetry-snapshot v2";
const MAGIC_V3: &str = "rsc-telemetry-snapshot v3";
const MAGIC_V4: &str = "rsc-telemetry-snapshot v4";
/// The version lines, version 1 first.
const MAGICS: [&str; 4] = [MAGIC_V1, MAGIC_V2, MAGIC_V3, MAGIC_V4];

/// Error from loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The snapshot text is malformed; `line` is 1-based.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A version-3 chain checkpoint did not match the re-hashed records —
    /// the snapshot was corrupted, reordered, or spliced.
    Chain {
        /// 1-based line number of the last row covered by the checkpoint.
        line: usize,
        /// Which stream failed (`"combined"` for the trailing chain line).
        stream: String,
        /// 0-based frame ordinal within the stream.
        frame: u64,
        /// The checkpoint digest recorded in the snapshot.
        expected: u64,
        /// The digest of the records actually read.
        actual: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Parse { line, message } => {
                write!(f, "snapshot line {line}: {message}")
            }
            SnapshotError::Chain {
                line,
                stream,
                frame,
                expected,
                actual,
            } => write!(
                f,
                "snapshot line {line}: {stream} frame {frame} chain mismatch \
                 (expected {expected:016x}, got {actual:016x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The version the writers pick for `view` in the framed (v3/v4) or the
/// unframed (v1/v2) layout. v4 needs control actions, so open-loop views
/// keep the v3 bytes; v2 needs something outside the v1 vocabulary.
fn version_for(view: &TelemetryView, framed: bool) -> u32 {
    if framed {
        return 3 + u32::from(!view.control_actions().is_empty());
    }
    let v2 =
        !view.ckpt_fallbacks().is_empty() || view.node_events().iter().any(|e| !e.kind.is_v1());
    1 + u32::from(v2)
}

/// Digest over the header fields and every stream head: the trailing
/// `chain` line of a framed snapshot.
fn combined_chain(header: &Header, frame_rows: usize, heads: &[u64]) -> u64 {
    let mut h = ChainHasher::new(GENESIS);
    h.write_bytes(header.cluster_name.as_bytes());
    h.write_u64(u64::from(header.num_nodes));
    h.write_u64(header.horizon.as_secs());
    h.write_u64(header.gpu_swaps);
    h.write_u64(frame_rows as u64);
    for &head in heads {
        h.write_u64(head);
    }
    h.digest()
}

/// Writes the sections of one snapshot version: framed when `frame_rows`
/// is set (v3/v4), unframed otherwise (v1/v2).
struct SectionWriter<'a, W> {
    w: &'a mut W,
    version: u32,
    frame_rows: Option<usize>,
    /// The chain heads of the framed sections written, in file order.
    heads: Vec<u64>,
}

impl<W: Write> SectionWriter<'_, W> {
    /// Writes the section of `records` when this version has one. A
    /// framed section folds the stream's chain as it writes,
    /// checkpointing it before each frame's rows, and records the head.
    fn write_section<T: Record>(&mut self, records: &[T]) -> io::Result<()> {
        if self.version < T::SINCE {
            return Ok(());
        }
        writeln!(self.w, "{} {}", T::SECTION, records.len())?;
        let Some(frame_rows) = self.frame_rows else {
            return rows::write_rows(self.w, records);
        };
        let mut h = ChainHasher::new(GENESIS);
        for chunk in records.chunks(frame_rows) {
            for r in chunk {
                r.chain(&mut h);
            }
            writeln!(self.w, "frame {} {:016x}", chunk.len(), h.digest())?;
            rows::write_rows(self.w, chunk)?;
        }
        self.heads.push(h.digest());
        Ok(())
    }
}

/// Writes `view` framed when `frame_rows` is set, unframed otherwise, in
/// the version its content needs: the header, every section the version
/// has, and for a framed layout the trailing `chain` line.
fn write_layout<W: Write>(
    w: &mut W,
    view: &TelemetryView,
    frame_rows: Option<usize>,
) -> io::Result<()> {
    let version = version_for(view, frame_rows.is_some());
    if view.cluster_name().contains(['\n', '\r']) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cluster name contains a newline",
        ));
    }
    writeln!(w, "{}", MAGICS[version as usize - 1])?;
    writeln!(w, "cluster {}", view.cluster_name())?;
    writeln!(w, "nodes {}", view.num_nodes())?;
    writeln!(w, "horizon {}", view.horizon().as_secs())?;
    writeln!(w, "gpu_swaps {}", view.gpu_swaps())?;
    if let Some(frame_rows) = frame_rows {
        writeln!(w, "frame_rows {frame_rows}")?;
    }
    let mut out = SectionWriter {
        w,
        version,
        frame_rows,
        heads: Vec::new(),
    };
    out.write_section(view.jobs())?;
    out.write_section(view.health_events())?;
    out.write_section(view.node_events())?;
    out.write_section(view.exclusions())?;
    out.write_section(view.ground_truth_failures())?;
    out.write_section(view.ckpt_fallbacks())?;
    out.write_section(view.control_actions())?;
    if let Some(frame_rows) = frame_rows {
        let chain = combined_chain(&view.header, frame_rows, &out.heads);
        writeln!(w, "chain {chain:016x}")?;
    }
    writeln!(w, "end")
}

/// Writes a sealed view as a framed snapshot: chain checkpoints every
/// [`SNAPSHOT_FRAME_ROWS`] rows, a combined chain head, and byte-for-byte
/// canonical output for the same records. Views without control actions
/// serialize as version 3 — bitwise identical to the pre-control format —
/// and views with them as version 4.
///
/// This is the one place a written record is hashed: each stream's chain
/// is folded as its rows are written, giving the frame checkpoints and the
/// heads the trailing `chain` line combines.
///
/// # Errors
///
/// Propagates I/O errors from the writer; rejects cluster names containing
/// newlines (they would corrupt the line-oriented format).
pub fn write_snapshot<W: Write>(w: &mut W, view: &TelemetryView) -> io::Result<()> {
    write_snapshot_with_frame_rows(w, view, SNAPSHOT_FRAME_ROWS)
}

/// [`write_snapshot`] with a caller-chosen frame geometry. Only the
/// canonical [`SNAPSHOT_FRAME_ROWS`] produces cacheable artifacts; other
/// values exist for corruption/robustness tests that need many small
/// frames without millions of records.
#[doc(hidden)]
pub fn write_snapshot_with_frame_rows<W: Write>(
    w: &mut W,
    view: &TelemetryView,
    frame_rows: usize,
) -> io::Result<()> {
    assert!(frame_rows >= 1, "frame_rows must be positive");
    write_layout(w, view, Some(frame_rows))
}

/// Writes the legacy (version 1 or 2) snapshot encoding: version 1 when
/// the view has no version-2 content, version 2 otherwise. Kept so the
/// checked-in back-compat fixtures can be regenerated and verified; new
/// artifacts should use [`write_snapshot`].
///
/// # Errors
///
/// Propagates I/O errors from the writer; rejects cluster names containing
/// newlines.
#[doc(hidden)]
pub fn write_snapshot_legacy<W: Write>(w: &mut W, view: &TelemetryView) -> io::Result<()> {
    write_layout(w, view, None)
}

/// Line reader over a snapshot: one reused byte buffer plus the 1-based
/// number of the current line for error messages.
struct Lines<R> {
    inner: R,
    line: Vec<u8>,
    line_no: usize,
}

impl<R: BufRead> Lines<R> {
    /// Advances to the next line ([`Self::line`]), which must end in `\n`.
    fn advance(&mut self) -> Result<(), SnapshotError> {
        self.line_no += 1;
        self.line.clear();
        self.inner.read_until(b'\n', &mut self.line)?;
        if self.line.pop() != Some(b'\n') {
            return Err(self.err("unexpected end of snapshot"));
        }
        Ok(())
    }

    /// The current line, without its `\n`.
    fn line(&self) -> &[u8] {
        &self.line
    }

    fn err(&self, message: impl Into<String>) -> SnapshotError {
        SnapshotError::Parse {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// The error for a current line that is not `expected`.
    fn unexpected(&self, expected: &str) -> SnapshotError {
        let got = String::from_utf8_lossy(&self.line);
        self.err(format!("expected {expected}, got {got:?}"))
    }

    /// Expects the current line to be `<keyword> <value>`; returns the value.
    fn value(&self, keyword: &str) -> Result<&[u8], SnapshotError> {
        match self.line.strip_prefix(keyword.as_bytes()) {
            Some([b' ', v @ ..]) => Ok(v),
            _ => Err(self.unexpected(&format!("`{keyword} <value>`"))),
        }
    }

    /// Parses `s` as a canonical decimal at its field's own width
    /// ([`rows::parse_uint`]): a value that does not fit is refused, never
    /// truncated.
    fn number<T: TryFrom<u64>>(&self, s: &[u8], what: &str) -> Result<T, SnapshotError> {
        rows::parse_uint(s)
            .ok_or_else(|| self.err(format!("bad {what}: {:?}", String::from_utf8_lossy(s))))
    }

    fn hash(&self, s: &[u8]) -> Result<u64, SnapshotError> {
        // Strictly lowercase, exactly 16 digits: the writer's canonical form.
        let digit = |b: u8| (b as char).to_digit(16).filter(|_| !b.is_ascii_uppercase());
        match s
            .iter()
            .try_fold(0, |h, &b| Some(h << 4 | u64::from(digit(b)?)))
        {
            Some(h) if s.len() == 16 => Ok(h),
            _ => Err(self.err(format!(
                "bad chain hash (need 16 lowercase hex digits): {:?}",
                String::from_utf8_lossy(s)
            ))),
        }
    }

    /// Reads a `<keyword> <number>` line.
    fn next_num<T: TryFrom<u64>>(&mut self, keyword: &str, what: &str) -> Result<T, SnapshotError> {
        self.advance()?;
        self.number(self.value(keyword)?, what)
    }

    /// Reads the `frame <rows> <hash>` line of a section of `count` rows
    /// with `consumed` already read: every frame but the last is full.
    fn frame(
        &mut self,
        frame_rows: usize,
        consumed: usize,
        count: usize,
    ) -> Result<(usize, u64), SnapshotError> {
        self.advance()?;
        let spec = self.value("frame")?;
        let Some(space) = spec.iter().position(|&b| b == b' ') else {
            return Err(self.unexpected("`frame <rows> <hash>`"));
        };
        let rows: usize = self.number(&spec[..space], "frame row count")?;
        let hash = self.hash(&spec[space + 1..])?;
        if rows == 0 || rows > frame_rows {
            return Err(self.err(format!("frame of {rows} rows outside 1..={frame_rows}")));
        }
        if consumed + rows < count && rows != frame_rows {
            return Err(self.err(format!(
                "non-final frame has {rows} rows, expected {frame_rows}"
            )));
        }
        if consumed + rows > count {
            return Err(self.err(format!(
                "frame overruns section: {consumed}+{rows} rows of {count}"
            )));
        }
        Ok((rows, hash))
    }
}

/// Reads the sections of one snapshot version: framed when `frame_rows`
/// is set (v3/v4), unframed otherwise (v1/v2).
struct SectionReader<'a, R> {
    lines: &'a mut Lines<R>,
    version: u32,
    num_nodes: u32,
    frame_rows: Option<usize>,
    /// The verified heads of the framed sections read, in file order.
    heads: Vec<u64>,
}

impl<R: BufRead> SectionReader<'_, R> {
    /// Reads stream `T`'s section when this version has one. A framed
    /// section hashes each record once, as it decodes it, and refuses any
    /// frame whose checkpoint does not match; an unframed one has nothing
    /// to verify and is not hashed. A row naming a node at or above the
    /// header's node count is refused: every per-node analysis indexes a
    /// fleet-sized array by it. The stream grows from empty: its count
    /// never sizes an allocation ([`read_snapshot`] says why).
    fn read_section<T: Record>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let mut records = Vec::new();
        if self.version < T::SINCE {
            return Ok(records);
        }
        let lines = &mut *self.lines;
        let count: usize = lines.next_num(T::SECTION, "count")?;
        let mut h = ChainHasher::new(GENESIS);
        let mut frame = 0;
        while records.len() < count {
            // An unframed section is one frame of every row, unchecked.
            let (rows, expected) = match self.frame_rows {
                Some(frame_rows) => {
                    let (rows, hash) = lines.frame(frame_rows, records.len(), count)?;
                    (rows, Some(hash))
                }
                None => (count, None),
            };
            for _ in 0..rows {
                lines.advance()?;
                let record = T::decode(lines.line(), self.version).map_err(|m| lines.err(m))?;
                if let Some(n) = record.nodes().iter().find(|n| n.index() >= self.num_nodes) {
                    return Err(lines.err(format!(
                        "node {} outside the header's {} nodes",
                        n.index(),
                        self.num_nodes
                    )));
                }
                if expected.is_some() {
                    record.chain(&mut h);
                }
                records.push(record);
            }
            if let Some(expected) = expected {
                let actual = h.digest();
                if actual != expected {
                    return Err(SnapshotError::Chain {
                        line: lines.line_no,
                        stream: T::SECTION.to_string(),
                        frame,
                        expected,
                        actual,
                    });
                }
            }
            frame += 1;
        }
        if self.frame_rows.is_some() {
            self.heads.push(h.digest());
        }
        Ok(records)
    }
}

/// Reads a snapshot (any supported version) into a sealed view.
///
/// The view is built straight from the decoded streams: every record is
/// parsed once. A framed (v3/v4) section hashes each record once, as it
/// decodes it, to verify the frame checkpoints and the trailing `chain`
/// line; an unframed v1/v2 section has nothing to verify and is not
/// hashed. The view stores no heads ([`TelemetryView::chain_heads`] folds
/// them on demand). Each stream grows from empty and is deliberately not
/// pre-sized from its section count: a forged count then never sizes an
/// allocation, and exactly sized buffers of tens of MiB, once freed, raise
/// glibc's dynamic mmap threshold, so the retained heap grew round after
/// round (`paper_rsc` peak RSS 128.7 → 148.6 MiB when tried).
///
/// Only the writer's own spelling is accepted — rows, header, count and
/// frame lines each decode canonically, every line ends in `\n` alone,
/// the version line is the one the writer picks for the content, and
/// nothing follows `end` — so any accepted input re-encodes byte for byte.
///
/// # Errors
///
/// Returns [`SnapshotError::Parse`] with the 1-based line number on any
/// malformed, truncated or non-canonical input (a sign, a leading zero, a
/// `\r`, a non-UTF-8 byte, a number too large for its field, a node id
/// at or above the header's node count) — never panics — and [`SnapshotError::Io`] only if the reader fails. Framed
/// inputs are chain-verified frame by frame; any checkpoint mismatch is a
/// [`SnapshotError::Chain`]. Unknown versions and v2 vocabulary inside a
/// v1 snapshot are rejected.
pub fn read_snapshot<R: BufRead>(r: R) -> Result<TelemetryView, SnapshotError> {
    let mut lines = Lines {
        inner: r,
        line: Vec::new(),
        line_no: 0,
    };

    lines.advance()?;
    let Some(version) = (1..)
        .zip(MAGICS)
        .find_map(|(v, magic)| (lines.line() == magic.as_bytes()).then_some(v))
    else {
        return Err(lines.err(format!(
            "bad header: {:?} (expected {MAGIC_V1:?}, {MAGIC_V2:?}, {MAGIC_V3:?}, or {MAGIC_V4:?})",
            String::from_utf8_lossy(lines.line())
        )));
    };
    lines.advance()?;
    let cluster_name = match std::str::from_utf8(lines.value("cluster")?) {
        Ok(name) if !name.contains('\r') => name.to_string(),
        _ => return Err(lines.err("cluster name is not UTF-8 or holds a carriage return")),
    };
    let header = Header {
        cluster_name,
        num_nodes: lines.next_num("nodes", "node count")?,
        horizon: SimTime::from_secs(lines.next_num("horizon", "horizon")?),
        gpu_swaps: lines.next_num("gpu_swaps", "gpu_swaps")?,
    };

    let frame_rows = if version >= 3 {
        let frame_rows: usize = lines.next_num("frame_rows", "frame_rows")?;
        if frame_rows == 0 {
            return Err(lines.err("frame_rows must be positive"));
        }
        Some(frame_rows)
    } else {
        None
    };
    let mut sections = SectionReader {
        lines: &mut lines,
        version,
        num_nodes: header.num_nodes,
        frame_rows,
        heads: Vec::new(),
    };
    // A struct literal evaluates its fields as written: in section order.
    let streams = Streams {
        jobs: sections.read_section()?,
        health: sections.read_section()?,
        node_events: sections.read_section()?,
        exclusions: sections.read_section()?,
        failures: sections.read_section()?,
        ckpt_fallbacks: sections.read_section()?,
        control_actions: sections.read_section()?,
    };
    let heads = sections.heads;

    if let Some(frame_rows) = frame_rows {
        lines.advance()?;
        let expected = lines.hash(lines.value("chain")?)?;
        let actual = combined_chain(&header, frame_rows, &heads);
        if actual != expected {
            return Err(SnapshotError::Chain {
                line: lines.line_no,
                stream: "combined".to_string(),
                frame: 0,
                expected,
                actual,
            });
        }
    }

    lines.advance()?;
    if lines.line() != b"end" {
        return Err(lines.unexpected("`end`"));
    }
    if !lines.inner.fill_buf()?.is_empty() {
        lines.line_no += 1;
        return Err(lines.err("data after `end`"));
    }
    let view = TelemetryView::from_parts(header, streams);
    // The writer picks the version from the content; any other header on
    // the same content is a second spelling of it.
    let canonical = version_for(&view, frame_rows.is_some());
    if version != canonical {
        lines.line_no = 1;
        return Err(lines.err(format!("a v{version} header on v{canonical} content")));
    }
    Ok(view)
}

/// Writes a snapshot to `path`, creating parent directories. The write is
/// atomic ([`crate::csv::write_file_atomic`]): readers and concurrent
/// writers of the same artifact never see a torn file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_snapshot_file(path: &Path, view: &TelemetryView) -> io::Result<()> {
    let mut buf = Vec::new();
    write_snapshot(&mut buf, view)?;
    crate::csv::write_file_atomic(path, &buf)
}

/// Loads a snapshot from `path`.
///
/// # Errors
///
/// Returns [`SnapshotError`] on I/O failure or malformed content.
pub fn load_snapshot_file(path: &Path) -> Result<TelemetryView, SnapshotError> {
    let file = fs::File::open(path)?;
    read_snapshot(BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TelemetryStore;
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
    use rsc_sim_core::time::SimDuration;

    use crate::store::{
        CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger,
        ExclusionEvent, NodeEvent, NodeEventKind,
    };

    fn sample_view() -> TelemetryView {
        let mut store = TelemetryStore::new("RSC-T", 16);
        store.set_horizon(SimTime::from_hours(24));
        store.set_gpu_swaps(5);
        store.push(JobRecord {
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
        });
        store.push(HealthEvent {
            at: SimTime::from_secs(120),
            node: NodeId::new(4),
            check: CheckKind::GpuMemory,
            severity: Severity::High,
            signal: Some(SignalKind::Xid(XidError::DoubleBitEcc)),
            false_positive: false,
        });
        store.push(HealthEvent {
            at: SimTime::from_secs(130),
            node: NodeId::new(4),
            check: CheckKind::GpuDriver,
            severity: Severity::Low,
            signal: Some(SignalKind::Xid(XidError::Other(48))),
            false_positive: true,
        });
        store.push(NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(140),
            kind: NodeEventKind::EnterRemediation,
        });
        store.push(ExclusionEvent {
            node: NodeId::new(4),
            job: JobId::new(7),
            at: SimTime::from_secs(150),
        });
        store.push(FailureEvent {
            at: SimTime::from_secs(115),
            node: NodeId::new(4),
            mode: ModeId(2),
            symptom: FailureSymptom::GpuMemoryError,
            permanent: true,
        });
        store.seal()
    }

    fn to_bytes(view: &TelemetryView) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, view).unwrap();
        buf
    }

    fn to_legacy_bytes(view: &TelemetryView) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_legacy(&mut buf, view).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let view = sample_view();
        let bytes = to_bytes(&view);
        let back = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(to_bytes(&back), bytes);
        assert_eq!(back.jobs(), view.jobs());
        assert_eq!(back.health_events(), view.health_events());
        assert_eq!(back.node_events(), view.node_events());
        assert_eq!(back.exclusions(), view.exclusions());
        assert_eq!(back.ground_truth_failures(), view.ground_truth_failures());
        assert_eq!(back.gpu_swaps(), view.gpu_swaps());
        assert_eq!(back.horizon(), view.horizon());
        assert_eq!(back.cluster_name(), view.cluster_name());
        assert_eq!(back.num_nodes(), view.num_nodes());
        assert_eq!(back.chain_heads(), view.chain_heads());
    }

    #[test]
    fn named_and_other_xids_stay_distinct() {
        let view = sample_view();
        let back = read_snapshot(to_bytes(&view).as_slice()).unwrap();
        let signals: Vec<Option<SignalKind>> =
            back.health_events().iter().map(|e| e.signal).collect();
        assert_eq!(signals[0], Some(SignalKind::Xid(XidError::DoubleBitEcc)));
        assert_eq!(signals[1], Some(SignalKind::Xid(XidError::Other(48))));
    }

    #[test]
    fn empty_store_round_trips() {
        let view = TelemetryStore::new("empty", 0).seal();
        let bytes = to_bytes(&view);
        let back = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(to_bytes(&back), bytes);
        assert!(back.jobs().is_empty());
    }

    #[test]
    fn truncated_input_is_a_clean_error() {
        let bytes = to_bytes(&sample_view());
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 5] {
            let err = read_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Parse { .. } | SnapshotError::Chain { .. }
                ),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_fields_error_with_line_numbers() {
        let text = String::from_utf8(to_bytes(&sample_view())).unwrap();
        let corrupted = text.replace("gpu_memory", "not_a_check");
        let err = read_snapshot(corrupted.as_bytes()).unwrap_err();
        match err {
            SnapshotError::Parse { line, message } => {
                assert!(line > 0);
                assert!(message.contains("bad"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn flipped_record_content_fails_the_chain() {
        let text = String::from_utf8(to_bytes(&sample_view())).unwrap();
        // `115` (ground-truth failure time) → `116`: still parses, but no
        // longer matches the frame checkpoint.
        let corrupted = text.replace("\n115,4,2,", "\n116,4,2,");
        assert_ne!(corrupted, text);
        let err = read_snapshot(corrupted.as_bytes()).unwrap_err();
        match err {
            SnapshotError::Chain { stream, frame, .. } => {
                assert_eq!(stream, "failures");
                assert_eq!(frame, 0);
            }
            other => panic!("expected chain error, got {other}"),
        }
    }

    #[test]
    fn tampered_chain_head_is_rejected() {
        let text = String::from_utf8(to_bytes(&sample_view())).unwrap();
        let chain_line = text
            .lines()
            .find(|l| l.starts_with("chain "))
            .unwrap()
            .to_string();
        let mut forged = chain_line.clone().into_bytes();
        let last = forged.last_mut().unwrap();
        *last = if *last == b'0' { b'1' } else { b'0' };
        let corrupted = text.replace(&chain_line, std::str::from_utf8(&forged).unwrap());
        let err = read_snapshot(corrupted.as_bytes()).unwrap_err();
        match err {
            SnapshotError::Chain { stream, .. } => assert_eq!(stream, "combined"),
            other => panic!("expected chain error, got {other}"),
        }
    }

    #[test]
    fn undersized_nonfinal_frame_rejected() {
        // Hand-build a section whose first frame claims fewer rows than
        // frame_rows while more remain: the strict framing must refuse it.
        let view = sample_view();
        let mut buf = Vec::new();
        write_snapshot_with_frame_rows(&mut buf, &view, 1).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let loosened = text.replace("frame_rows 1", "frame_rows 2");
        let err = read_snapshot(loosened.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("non-final frame"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn wrong_magic_rejected() {
        let err = read_snapshot("some other file\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad header"));
    }

    /// A view with v2 content: lifecycle node events plus one checkpoint
    /// fallback.
    fn sample_v2_view() -> TelemetryView {
        let base = sample_view();
        let mut store = base.to_store();
        store.push(NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(200),
            kind: NodeEventKind::RepairAttemptFailed,
        });
        store.push(NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(210),
            kind: NodeEventKind::RepairEscalated,
        });
        store.push(NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(400),
            kind: NodeEventKind::EnterProbation,
        });
        store.push(NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(500),
            kind: NodeEventKind::ProbationFailed,
        });
        store.push(NodeEvent {
            node: NodeId::new(4),
            at: SimTime::from_secs(900),
            kind: NodeEventKind::Quarantined,
        });
        store.push(CheckpointFallbackEvent {
            at: SimTime::from_secs(600),
            job: JobId::new(7),
            gpus: 16,
            intervals: 2,
            lost: SimDuration::from_hours(2),
        });
        store.seal()
    }

    #[test]
    fn legacy_writer_keeps_the_v1_magic_for_v1_views() {
        let bytes = to_legacy_bytes(&sample_view());
        let first = bytes.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first, MAGIC_V1.as_bytes());
        assert!(!String::from_utf8(bytes).unwrap().contains("ckpt_fallbacks"));
    }

    #[test]
    fn v1_snapshot_still_decodes() {
        let view = sample_view();
        let bytes = to_legacy_bytes(&view);
        let back = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(back.jobs(), view.jobs());
        assert_eq!(back.health_events(), view.health_events());
        assert_eq!(to_legacy_bytes(&back), bytes);
    }

    #[test]
    fn v2_legacy_round_trip_is_byte_identical() {
        let view = sample_v2_view();
        let bytes = to_legacy_bytes(&view);
        let first = bytes.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first, MAGIC_V2.as_bytes());
        let back = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(to_legacy_bytes(&back), bytes);
        assert_eq!(back.node_events(), view.node_events());
        assert_eq!(back.ckpt_fallbacks(), view.ckpt_fallbacks());
    }

    #[test]
    fn current_writer_always_emits_v3() {
        let bytes = to_bytes(&sample_v2_view());
        let first = bytes.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first, MAGIC_V3.as_bytes());
    }

    #[test]
    fn v1_header_rejects_v2_event_kinds() {
        let text = String::from_utf8(to_legacy_bytes(&sample_v2_view())).unwrap();
        // Forge a v1 header onto a stream carrying v2 vocabulary: the
        // version-gated parser must refuse the lifecycle kind.
        let forged = text.replace(MAGIC_V2, MAGIC_V1);
        let err = read_snapshot(forged.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("bad node event kind"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unknown_kind_tag_rejected_in_v2() {
        let text = String::from_utf8(to_legacy_bytes(&sample_v2_view())).unwrap();
        let corrupted = text.replace("repair_escalated", "warp_drive_realigned");
        let err = read_snapshot(corrupted.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad node event kind"), "{err}");
    }

    #[test]
    fn unknown_version_rejected() {
        let text = String::from_utf8(to_bytes(&sample_v2_view())).unwrap();
        let bumped = text.replace(MAGIC_V3, "rsc-telemetry-snapshot v5");
        let err = read_snapshot(bumped.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad header"), "{err}");
    }

    /// A view with closed-loop control actions on top of the v2 content.
    fn sample_v4_view() -> TelemetryView {
        let base = sample_v2_view();
        let mut store = base.to_store();
        store.push(ControlActionEvent {
            at: SimTime::from_secs(700),
            kind: ControlActionKind::QuarantineNode,
            trigger: ControlTrigger::LemonSuspect,
            node: Some(NodeId::new(4)),
            job: None,
            accepted: true,
            value: 0,
        });
        store.push(ControlActionEvent {
            at: SimTime::from_secs(710),
            kind: ControlActionKind::RetuneCheckpoint,
            trigger: ControlTrigger::MttfRegression,
            node: None,
            job: Some(JobId::new(7)),
            accepted: false,
            value: 1800,
        });
        store.seal()
    }

    #[test]
    fn control_actions_force_v4_and_round_trip() {
        let view = sample_v4_view();
        let bytes = to_bytes(&view);
        let first = bytes.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first, MAGIC_V4.as_bytes());
        let back = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(to_bytes(&back), bytes);
        assert_eq!(back.control_actions(), view.control_actions());
        assert_eq!(back.chain_heads(), view.chain_heads());
    }

    #[test]
    fn open_loop_views_keep_v3_bytes() {
        // No control actions → exact version-3 output, so pre-control
        // snapshots of the same run stay bitwise identical.
        let bytes = to_bytes(&sample_v2_view());
        let first = bytes.split(|&b| b == b'\n').next().unwrap();
        assert_eq!(first, MAGIC_V3.as_bytes());
        assert!(!String::from_utf8(bytes)
            .unwrap()
            .contains("control_actions"));
    }

    #[test]
    fn flipped_control_action_fails_the_chain() {
        let text = String::from_utf8(to_bytes(&sample_v4_view())).unwrap();
        let corrupted = text.replace("\n700,quarantine_node,", "\n701,quarantine_node,");
        assert_ne!(corrupted, text);
        let err = read_snapshot(corrupted.as_bytes()).unwrap_err();
        match err {
            SnapshotError::Chain { stream, .. } => assert_eq!(stream, "control_actions"),
            other => panic!("expected chain error, got {other}"),
        }
    }

    #[test]
    fn v3_header_rejects_control_actions_section() {
        // Forge a v3 magic onto a v4 body: the reader expects the trailing
        // `chain` right after ckpt_fallbacks and must refuse the extra
        // section rather than silently dropping it.
        let text = String::from_utf8(to_bytes(&sample_v4_view())).unwrap();
        let forged = text.replace(MAGIC_V4, MAGIC_V3);
        assert!(read_snapshot(forged.as_bytes()).is_err());
    }

    #[test]
    fn truncated_v2_stream_is_a_clean_error() {
        let bytes = to_legacy_bytes(&sample_v2_view());
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 5] {
            let err = read_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Parse { .. }),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn v2_requires_ckpt_fallbacks_section() {
        let text = String::from_utf8(to_legacy_bytes(&sample_v2_view())).unwrap();
        // Drop the ckpt_fallbacks section entirely: the v2 reader must not
        // silently accept a v1-shaped body.
        let gutted: String = text
            .lines()
            .filter(|l| !l.starts_with("ckpt_fallbacks") && !l.starts_with("600,7,"))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = read_snapshot(gutted.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("expected `ckpt_fallbacks"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_fallback_row_rejected() {
        let text = String::from_utf8(to_legacy_bytes(&sample_v2_view())).unwrap();
        let corrupted = text.replace("600,7,16,2,7200", "600,7,sixteen,2,7200");
        let err = read_snapshot(corrupted.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("bad gpus"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("rsc-snap-test-{}", std::process::id()));
        let path = dir.join("sample.snap");
        let view = sample_view();
        save_snapshot_file(&path, &view).unwrap();
        let back = load_snapshot_file(&path).unwrap();
        assert_eq!(to_bytes(&back), to_bytes(&view));
        let _ = fs::remove_dir_all(&dir);
    }
}
