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

use rsc_cluster::ids::{JobId, JobRunId};
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::time::SimTime;

use crate::csv::format_row;
use crate::rows::{push_opt_u64, push_u64, write_rows, Row};

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

/// Appends one record as a trace CSV row (no trailing newline) to `out`.
///
/// Shared by [`export_jobs`] and the snapshot codec ([`crate::snapshot`])
/// so both serialize jobs byte-identically. Every
/// field is an integer or a fixed label, none of which needs CSV quoting.
pub fn format_job_row(r: &JobRecord, out: &mut Vec<u8>) {
    push_u64(out, r.job.raw());
    out.push(b',');
    push_u64(out, u64::from(r.attempt));
    out.push(b',');
    push_opt_u64(out, r.run.map(|x| x.raw()));
    out.push(b',');
    push_u64(out, u64::from(r.gpus));
    out.push(b',');
    out.extend_from_slice(r.qos.label().as_bytes());
    out.push(b',');
    for (i, n) in r.nodes.iter().enumerate() {
        if i > 0 {
            out.push(b';');
        }
        push_u64(out, u64::from(n.index()));
    }
    out.push(b',');
    push_u64(out, r.enqueued_at.as_secs());
    out.push(b',');
    push_opt_u64(out, r.started_at.map(|t| t.as_secs()));
    out.push(b',');
    push_u64(out, r.ended_at.as_secs());
    out.push(b',');
    out.extend_from_slice(r.status.label().as_bytes());
    out.push(b',');
    push_opt_u64(out, r.preempted_by.map(|x| x.raw()));
    out.push(b',');
    push_opt_u64(out, r.instigator.map(|x| x.raw()));
}

/// Writes job records as a trace CSV.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn export_jobs<W: Write>(w: &mut W, records: &[JobRecord]) -> io::Result<()> {
    writeln!(w, "{}", format_row(TRACE_HEADER.iter().copied()))?;
    write_rows(w, records, format_job_row)
}

/// Decodes one job row exactly as [`format_job_row`] writes it; shared by
/// [`import_jobs`] and the snapshot codec. Callers attach the location.
pub(crate) fn decode_job_row(row: &[u8]) -> Result<JobRecord, String> {
    let mut f = Row::new(row, TRACE_HEADER.len());
    Ok(JobRecord {
        job: JobId::new(f.num("job id")?),
        attempt: f.num("attempt")?,
        run: f.opt_num("run id")?.map(JobRunId::new),
        gpus: f.num("gpus")?,
        qos: f.label("qos", &QosClass::ALL, QosClass::label)?,
        nodes: f.nodes("node id")?,
        enqueued_at: SimTime::from_secs(f.num("enqueued_at")?),
        started_at: f.opt_num("started_at")?.map(SimTime::from_secs),
        ended_at: SimTime::from_secs(f.num("ended_at")?),
        status: f.label("status", &JobStatus::ALL, JobStatus::label)?,
        preempted_by: f.opt_num("preempted_by")?.map(JobId::new),
        instigator: f.opt_num("instigator")?.map(JobId::new),
    })
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
            Some(b'\n') => out.push(decode_job_row(&line).map_err(err)?),
            Some(_) => return Err(err("line does not end in a newline".to_string())),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::NodeId;
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
