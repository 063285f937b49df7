//! The seven telemetry record types, each described once.
//!
//! A [`Record`] impl holds everything the telemetry log knows about one
//! stream: its snapshot section name, the first format version that has
//! the section, its row encoder and decoder, its chain fold, the node ids
//! the snapshot reader range-checks, and where its `Vec` lives in
//! [`Streams`]. The store's `push`, the snapshot writer and reader and
//! [`chain_digest`](crate::chain::chain_digest) are generic over it, so
//! none of them names a stream's codec, section or version.
//!
//! The row encodings, the chain folds and the section names are part of
//! the on-disk snapshot format: changing any of them is a format break and
//! requires a version bump (`DESIGN.md` §11).

use std::slice;

use rsc_cluster::ids::{JobId, JobRunId, NodeId};
use rsc_failure::injector::FailureEvent;
use rsc_failure::modes::{ModeId, Severity};
use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::check::CheckKind;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim_core::time::{SimDuration, SimTime};

use crate::chain::{self, ChainHasher};
use crate::rows::{self, push_opt_u64, push_u64, Row};
use crate::store::{
    CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger, ExclusionEvent,
    NodeEvent, NodeEventKind,
};
use crate::trace;

/// One telemetry stream's record type: its snapshot section, row codec,
/// chain fold and place in [`Streams`].
pub trait Record: Sized {
    /// The keyword of the stream's snapshot section.
    const SECTION: &'static str;

    /// The first snapshot format version with this section: a snapshot of
    /// version `v` holds it exactly when `v >= SINCE`. Version 1, unless
    /// a later version added the section.
    const SINCE: u32 = 1;

    /// Appends this record's row (no trailing newline) to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a row exactly as [`Self::encode`] writes it, in the
    /// vocabulary of snapshot format `version`. The error names the bad
    /// field; callers attach the location.
    fn decode(row: &[u8], version: u32) -> Result<Self, String>;

    /// Folds this record's content into `h`.
    fn chain(&self, h: &mut ChainHasher);

    /// The node ids this record names, each of which a snapshot must hold
    /// below its header's node count.
    fn nodes(&self) -> &[NodeId];

    /// This stream's records in `streams`, to append to.
    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self>;
}

/// The seven telemetry streams, one append-order `Vec` each, in snapshot
/// section order.
#[derive(Debug, Clone, Default)]
pub struct Streams {
    pub(crate) jobs: Vec<JobRecord>,
    pub(crate) health: Vec<HealthEvent>,
    pub(crate) node_events: Vec<NodeEvent>,
    pub(crate) exclusions: Vec<ExclusionEvent>,
    pub(crate) failures: Vec<FailureEvent>,
    pub(crate) ckpt_fallbacks: Vec<CheckpointFallbackEvent>,
    pub(crate) control_actions: Vec<ControlActionEvent>,
}

impl Record for JobRecord {
    const SECTION: &'static str = "jobs";

    /// The job trace's row ([`trace::export_jobs`]): every field is an
    /// integer or a fixed label, none of which needs CSV quoting.
    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.job.raw());
        out.push(b',');
        push_u64(out, u64::from(self.attempt));
        out.push(b',');
        push_opt_u64(out, self.run.map(|x| x.raw()));
        out.push(b',');
        push_u64(out, u64::from(self.gpus));
        out.push(b',');
        out.extend_from_slice(self.qos.label().as_bytes());
        out.push(b',');
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(b';');
            }
            push_u64(out, u64::from(n.index()));
        }
        out.push(b',');
        push_u64(out, self.enqueued_at.as_secs());
        out.push(b',');
        push_opt_u64(out, self.started_at.map(|t| t.as_secs()));
        out.push(b',');
        push_u64(out, self.ended_at.as_secs());
        out.push(b',');
        out.extend_from_slice(self.status.label().as_bytes());
        out.push(b',');
        push_opt_u64(out, self.preempted_by.map(|x| x.raw()));
        out.push(b',');
        push_opt_u64(out, self.instigator.map(|x| x.raw()));
    }

    fn decode(row: &[u8], _version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, trace::TRACE_HEADER.len());
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

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.job.raw());
        h.write_u64(u64::from(self.attempt));
        chain::write_opt(h, self.run.map(JobRunId::raw));
        h.write_u64(u64::from(self.gpus));
        h.write_u64(chain::qos_ordinal(self.qos));
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_u64(u64::from(n.index()));
        }
        h.write_u64(self.enqueued_at.as_secs());
        chain::write_opt(h, self.started_at.map(SimTime::as_secs));
        h.write_u64(self.ended_at.as_secs());
        h.write_u64(chain::status_ordinal(self.status));
        chain::write_opt(h, self.preempted_by.map(JobId::raw));
        chain::write_opt(h, self.instigator.map(JobId::raw));
    }

    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.jobs
    }
}

impl Record for HealthEvent {
    const SECTION: &'static str = "health";

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.at.as_secs());
        out.push(b',');
        push_u64(out, u64::from(self.node.index()));
        out.push(b',');
        out.extend_from_slice(self.check.label().as_bytes());
        out.push(b',');
        out.extend_from_slice(rows::severity_label(self.severity).as_bytes());
        out.push(b',');
        if let Some(signal) = self.signal {
            rows::push_signal(out, signal);
        }
        out.push(b',');
        out.push(b'0' + u8::from(self.false_positive));
    }

    fn decode(row: &[u8], _version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, 6);
        Ok(HealthEvent {
            at: SimTime::from_secs(f.num("time")?),
            node: NodeId::new(f.num("node")?),
            check: f.label("check", &CheckKind::ALL, CheckKind::label)?,
            severity: f.label(
                "severity",
                &[Severity::High, Severity::Low],
                rows::severity_label,
            )?,
            signal: f.parse("signal", rows::parse_signal)?,
            false_positive: f.flag("false_positive")?,
        })
    }

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.at.as_secs());
        h.write_u64(u64::from(self.node.index()));
        h.write_u64(chain::check_ordinal(self.check));
        h.write_u64(chain::severity_ordinal(self.severity));
        match self.signal {
            None => h.write_u64(0),
            Some(kind) => {
                let (tag, arg) = chain::signal_ordinal(kind);
                h.write_u64(1);
                h.write_u64(tag);
                h.write_u64(arg);
            }
        }
        h.write_u64(u64::from(self.false_positive));
    }

    fn nodes(&self) -> &[NodeId] {
        slice::from_ref(&self.node)
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.health
    }
}

impl Record for NodeEvent {
    const SECTION: &'static str = "node_events";

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.at.as_secs());
        out.push(b',');
        push_u64(out, u64::from(self.node.index()));
        out.push(b',');
        out.extend_from_slice(rows::node_event_kind_label(self.kind).as_bytes());
    }

    fn decode(row: &[u8], version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, 3);
        Ok(NodeEvent {
            at: SimTime::from_secs(f.num("time")?),
            node: NodeId::new(f.num("node")?),
            // The v1 vocabulary has no lifecycle kinds.
            kind: f.label(
                "node event kind",
                &NodeEventKind::ALL[..if version < 2 { 3 } else { 9 }],
                rows::node_event_kind_label,
            )?,
        })
    }

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.at.as_secs());
        h.write_u64(u64::from(self.node.index()));
        h.write_u64(chain::node_event_ordinal(self.kind));
    }

    fn nodes(&self) -> &[NodeId] {
        slice::from_ref(&self.node)
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.node_events
    }
}

impl Record for ExclusionEvent {
    const SECTION: &'static str = "exclusions";

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.at.as_secs());
        out.push(b',');
        push_u64(out, u64::from(self.node.index()));
        out.push(b',');
        push_u64(out, self.job.raw());
    }

    fn decode(row: &[u8], _version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, 3);
        Ok(ExclusionEvent {
            at: SimTime::from_secs(f.num("time")?),
            node: NodeId::new(f.num("node")?),
            job: JobId::new(f.num("job")?),
        })
    }

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.at.as_secs());
        h.write_u64(u64::from(self.node.index()));
        h.write_u64(self.job.raw());
    }

    fn nodes(&self) -> &[NodeId] {
        slice::from_ref(&self.node)
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.exclusions
    }
}

impl Record for FailureEvent {
    const SECTION: &'static str = "failures";

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.at.as_secs());
        out.push(b',');
        push_u64(out, u64::from(self.node.index()));
        out.push(b',');
        push_u64(out, self.mode.0 as u64);
        out.push(b',');
        out.extend_from_slice(self.symptom.label().as_bytes());
        out.push(b',');
        out.push(b'0' + u8::from(self.permanent));
    }

    fn decode(row: &[u8], _version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, 5);
        Ok(FailureEvent {
            at: SimTime::from_secs(f.num("time")?),
            node: NodeId::new(f.num("node")?),
            mode: ModeId(f.num("mode")?),
            symptom: f.label("symptom", &FailureSymptom::ALL, FailureSymptom::label)?,
            permanent: f.flag("permanent")?,
        })
    }

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.at.as_secs());
        h.write_u64(u64::from(self.node.index()));
        h.write_u64(self.mode.0 as u64);
        h.write_u64(chain::symptom_ordinal(self.symptom));
        h.write_u64(u64::from(self.permanent));
    }

    fn nodes(&self) -> &[NodeId] {
        slice::from_ref(&self.node)
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.failures
    }
}

impl Record for CheckpointFallbackEvent {
    const SECTION: &'static str = "ckpt_fallbacks";
    const SINCE: u32 = 2;

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.at.as_secs());
        out.push(b',');
        push_u64(out, self.job.raw());
        out.push(b',');
        push_u64(out, u64::from(self.gpus));
        out.push(b',');
        push_u64(out, u64::from(self.intervals));
        out.push(b',');
        push_u64(out, self.lost.as_secs());
    }

    fn decode(row: &[u8], _version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, 5);
        Ok(CheckpointFallbackEvent {
            at: SimTime::from_secs(f.num("time")?),
            job: JobId::new(f.num("job")?),
            gpus: f.num("gpus")?,
            intervals: f.num("intervals")?,
            lost: SimDuration::from_secs(f.num("lost")?),
        })
    }

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.at.as_secs());
        h.write_u64(self.job.raw());
        h.write_u64(u64::from(self.gpus));
        h.write_u64(u64::from(self.intervals));
        h.write_u64(self.lost.as_secs());
    }

    /// None: a fallback names a job, not a node.
    fn nodes(&self) -> &[NodeId] {
        &[]
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.ckpt_fallbacks
    }
}

impl Record for ControlActionEvent {
    const SECTION: &'static str = "control_actions";
    const SINCE: u32 = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        push_u64(out, self.at.as_secs());
        out.push(b',');
        out.extend_from_slice(self.kind.label().as_bytes());
        out.push(b',');
        out.extend_from_slice(self.trigger.label().as_bytes());
        out.push(b',');
        push_opt_u64(out, self.node.map(|n| u64::from(n.index())));
        out.push(b',');
        push_opt_u64(out, self.job.map(|j| j.raw()));
        out.push(b',');
        out.push(b'0' + u8::from(self.accepted));
        out.push(b',');
        push_u64(out, self.value);
    }

    fn decode(row: &[u8], _version: u32) -> Result<Self, String> {
        let mut f = Row::new(row, 7);
        Ok(ControlActionEvent {
            at: SimTime::from_secs(f.num("time")?),
            kind: f.label(
                "control action kind",
                &ControlActionKind::ALL,
                ControlActionKind::label,
            )?,
            trigger: f.label(
                "control trigger",
                &ControlTrigger::ALL,
                ControlTrigger::label,
            )?,
            node: f.opt_num("node")?.map(NodeId::new),
            job: f.opt_num("job")?.map(JobId::new),
            accepted: f.flag("accepted")?,
            value: f.num("value")?,
        })
    }

    fn chain(&self, h: &mut ChainHasher) {
        h.write_u64(self.at.as_secs());
        h.write_u64(chain::control_action_ordinal(self.kind));
        h.write_u64(chain::control_trigger_ordinal(self.trigger));
        chain::write_opt(h, self.node.map(|n| u64::from(n.index())));
        chain::write_opt(h, self.job.map(JobId::raw));
        h.write_u64(u64::from(self.accepted));
        h.write_u64(self.value);
    }

    fn nodes(&self) -> &[NodeId] {
        self.node.as_slice()
    }

    fn stream_mut(streams: &mut Streams) -> &mut Vec<Self> {
        &mut streams.control_actions
    }
}
