//! Job-trace export/import in a `sacct`-like CSV schema.
//!
//! The analysis crates only need [`JobRecord`]s, so operators can run the
//! paper's pipeline on *real* accounting data by converting it to this
//! schema — or export simulated telemetry for external tooling.
//!
//! Columns: `job,attempt,run,gpus,qos,nodes,enqueued_at,started_at,
//! ended_at,status,preempted_by,instigator` with times in integer seconds,
//! `nodes` as `;`-separated indices, and empty fields for `None`.

use std::fmt;
use std::io::{self, BufRead, Write};

use rsc_sched::accounting::JobRecord;

use crate::csv::format_row;
use crate::record::Record;
use crate::rows::write_rows;
use crate::snapshot::SNAPSHOT_VERSION;

/// Error from parsing a job-trace CSV.
#[derive(Debug)]
pub struct ParseTraceError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// The CSV header row.
pub const TRACE_HEADER: [&str; 12] = [
    "job",
    "attempt",
    "run",
    "gpus",
    "qos",
    "nodes",
    "enqueued_at",
    "started_at",
    "ended_at",
    "status",
    "preempted_by",
    "instigator",
];

/// Writes job records as a trace CSV; each row is the snapshot's jobs
/// row ([`Record::encode`]).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_jobs<W: Write>(w: &mut W, records: &[JobRecord]) -> io::Result<()> {
    writeln!(w, "{}", format_row(TRACE_HEADER.iter().copied()))?;
    write_rows(w, records)
}

/// Reads job records from a trace CSV in exactly the spelling
/// [`export_jobs`] writes: the header row first, then one row per record,
/// every line ending in `\n`.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on a missing or different header, a
/// malformed row or a line without its `\n`; I/O errors surface as a parse
/// error carrying the underlying message.
pub fn import_jobs<R: BufRead>(mut r: R) -> Result<Vec<JobRecord>, ParseTraceError> {
    let header = format!("{}\n", format_row(TRACE_HEADER.iter().copied()));
    let mut out = Vec::new();
    let mut line = Vec::new();
    for line_no in 1.. {
        let err = |message: String| ParseTraceError {
            line: line_no,
            message,
        };
        line.clear();
        r.read_until(b'\n', &mut line)
            .map_err(|e| err(e.to_string()))?;
        if line_no == 1 && line != header.as_bytes() {
            return Err(err(format!("expected the header row {header:?}")));
        }
        match line.pop() {
            _ if line_no == 1 => {}
            None => break,
            // A trace row is a snapshot's jobs row, the same in every version.
            Some(b'\n') => out.push(JobRecord::decode(&line, SNAPSHOT_VERSION).map_err(err)?),
            Some(_) => return Err(err("line does not end in a newline".to_string())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, JobRunId, NodeId};
    use rsc_sched::job::{JobStatus, QosClass};
    use rsc_sim_core::time::SimTime;
    use std::io::BufReader;

    fn record(id: u64, status: JobStatus) -> JobRecord {
        JobRecord {
            job: JobId::new(id),
            attempt: 2,
            run: Some(JobRunId::new(7)),
            gpus: 16,
            qos: QosClass::High,
            nodes: vec![NodeId::new(3), NodeId::new(4)].into(),
            enqueued_at: SimTime::from_secs(100),
            started_at: Some(SimTime::from_secs(160)),
            ended_at: SimTime::from_secs(4000),
            status,
            preempted_by: None,
            instigator: Some(JobId::new(99)),
        }
    }

    #[test]
    fn roundtrip_preserves_records() {
        let records = vec![
            record(1, JobStatus::Completed),
            record(2, JobStatus::NodeFail),
            JobRecord {
                run: None,
                started_at: None,
                nodes: Default::default(),
                instigator: None,
                ..record(3, JobStatus::Cancelled)
            },
        ];
        let mut buf = Vec::new();
        export_jobs(&mut buf, &records).unwrap();
        let back = import_jobs(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn malformed_rows_error_with_line_numbers() {
        let text = "job,attempt,run,gpus,qos,nodes,enqueued_at,started_at,ended_at,status,preempted_by,instigator\n1,0,,8,weird,0,0,0,10,COMPLETED,,\n";
        let e = import_jobs(BufReader::new(text.as_bytes())).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bad qos"));
    }

    #[test]
    fn wrong_field_count_rejected() {
        let text = "job,attempt,run,gpus,qos,nodes,enqueued_at,started_at,ended_at,status,preempted_by,instigator\n1,2,3\n";
        let e = import_jobs(BufReader::new(text.as_bytes())).unwrap_err();
        assert!(e.message.contains("expected 12 fields"));
    }

    #[test]
    fn all_statuses_roundtrip() {
        let records: Vec<JobRecord> = JobStatus::ALL.iter().map(|&s| record(1, s)).collect();
        let mut buf = Vec::new();
        export_jobs(&mut buf, &records).unwrap();
        assert_eq!(import_jobs(buf.as_slice()).unwrap(), records);
    }
}
