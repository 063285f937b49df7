//! Content hashing for the telemetry log.
//!
//! Every telemetry stream has a content hash: its records are folded into
//! a [`ChainHasher`] from [`GENESIS`] in append order ([`chain_digest`]),
//! each by its [`Record::chain`] over the stable ordinals defined here.
//! The hash is a function of the record stream alone, so nothing stores
//! it: the snapshot writer folds it while it writes, checkpointing the
//! chain every [`crate::snapshot::SNAPSHOT_FRAME_ROWS`] rows, the framed
//! reader folds it while it verifies, and
//! [`TelemetryView::chain_heads`](crate::view::TelemetryView::chain_heads)
//! folds it on demand.
//!
//! The hash is a non-cryptographic 128-bit-state / 64-bit-digest mix
//! (two multiply–xor–rotate lanes plus a length counter, finalized with a
//! splitmix64-style avalanche). It exists to catch corruption — bit flips,
//! truncation, reordering, splicing — not adversaries.

use rsc_failure::modes::Severity;
use rsc_failure::signals::SignalKind;
use rsc_failure::taxonomy::FailureSymptom;
use rsc_health::check::CheckKind;
use rsc_sched::job::{JobStatus, QosClass};

use crate::record::Record;
use crate::store::{ControlActionKind, ControlTrigger, NodeEventKind};

/// Seed digest every stream chain starts from ("rsc_log1").
pub const GENESIS: u64 = 0x7273_635f_6c6f_6731;

const LANE_A_MUL: u64 = 0x9e37_79b9_7f4a_7c15; // 2^64 / golden ratio
const LANE_B_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f; // xxhash64 prime 2

fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Running content hash over a record stream.
///
/// Cheap enough to fold millions of records per second; [`digest`] is
/// non-destructive, so checkpoints can be taken mid-stream and hashing
/// resumed (how snapshot frames are checkpointed).
///
/// [`digest`]: ChainHasher::digest
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainHasher {
    lane_a: u64,
    lane_b: u64,
    words: u64,
}

impl ChainHasher {
    /// Starts a hasher chained to a predecessor digest (use [`GENESIS`]
    /// for the start of a stream).
    pub fn new(prev: u64) -> Self {
        ChainHasher {
            lane_a: splitmix(prev ^ LANE_A_MUL),
            lane_b: splitmix(prev ^ LANE_B_MUL),
            words: 0,
        }
    }

    /// Folds one word into the chain.
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.lane_a = (self.lane_a ^ w).wrapping_mul(LANE_A_MUL).rotate_left(29);
        self.lane_b = (self.lane_b.rotate_left(31) ^ w).wrapping_mul(LANE_B_MUL);
        self.words = self.words.wrapping_add(1);
    }

    /// Folds raw bytes (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    /// Current digest. Non-destructive: hashing may continue afterwards.
    #[inline]
    pub fn digest(&self) -> u64 {
        splitmix(self.lane_a ^ self.lane_b.rotate_left(17) ^ self.words)
    }
}

#[inline]
pub(crate) fn write_opt(h: &mut ChainHasher, v: Option<u64>) {
    match v {
        None => h.write_u64(0),
        Some(v) => {
            h.write_u64(1);
            h.write_u64(v);
        }
    }
}

/// Stable ordinal for a raw signal (part of the v3 format).
pub(crate) fn signal_ordinal(kind: SignalKind) -> (u64, u64) {
    match kind {
        SignalKind::Xid(x) => (0, u64::from(x.code())),
        SignalKind::PcieError => (1, 0),
        SignalKind::IpmiCriticalInterrupt => (2, 0),
        SignalKind::IbLinkError => (3, 0),
        SignalKind::EthLinkError => (4, 0),
        SignalKind::FsMountMissing => (5, 0),
        SignalKind::MainMemoryError => (6, 0),
        SignalKind::ServiceFailure => (7, 0),
        SignalKind::BlockDeviceError => (8, 0),
        SignalKind::NodeUnresponsive => (9, 0),
        SignalKind::PowerFault => (10, 0),
        SignalKind::ThermalWarning => (11, 0),
    }
}

/// Stable ordinal for a health check (part of the v3 format).
pub(crate) fn check_ordinal(check: CheckKind) -> u64 {
    match check {
        CheckKind::GpuAccessible => 0,
        CheckKind::GpuMemory => 1,
        CheckKind::NvLink => 2,
        CheckKind::GpuDriver => 3,
        CheckKind::PcieLink => 4,
        CheckKind::IbLink => 5,
        CheckKind::EthLink => 6,
        CheckKind::FsMount => 7,
        CheckKind::HostMemory => 8,
        CheckKind::BlockDevice => 9,
        CheckKind::Services => 10,
        CheckKind::Ipmi => 11,
    }
}

/// Stable ordinal for a failure symptom (part of the v3 format).
pub(crate) fn symptom_ordinal(symptom: FailureSymptom) -> u64 {
    match symptom {
        FailureSymptom::Oom => 0,
        FailureSymptom::GpuUnavailable => 1,
        FailureSymptom::GpuMemoryError => 2,
        FailureSymptom::GpuDriverFirmwareError => 3,
        FailureSymptom::GspTimeout => 4,
        FailureSymptom::GpuNvlinkError => 5,
        FailureSymptom::InfinibandLink => 6,
        FailureSymptom::FilesystemMount => 7,
        FailureSymptom::MainMemoryError => 8,
        FailureSymptom::EthlinkError => 9,
        FailureSymptom::PcieError => 10,
        FailureSymptom::NcclTimeout => 11,
        FailureSymptom::SystemService => 12,
    }
}

/// Stable ordinal for a job status (part of the v3 format).
pub(crate) fn status_ordinal(status: JobStatus) -> u64 {
    match status {
        JobStatus::Completed => 0,
        JobStatus::Failed => 1,
        JobStatus::NodeFail => 2,
        JobStatus::Cancelled => 3,
        JobStatus::OutOfMemory => 4,
        JobStatus::Preempted => 5,
        JobStatus::Requeued => 6,
        JobStatus::Timeout => 7,
    }
}

/// Stable ordinal for a QoS tier (part of the v3 format).
pub(crate) fn qos_ordinal(qos: QosClass) -> u64 {
    match qos {
        QosClass::Low => 0,
        QosClass::Normal => 1,
        QosClass::High => 2,
    }
}

/// Stable ordinal for a node lifecycle kind (part of the v3 format).
pub(crate) fn node_event_ordinal(kind: NodeEventKind) -> u64 {
    match kind {
        NodeEventKind::Drain => 0,
        NodeEventKind::EnterRemediation => 1,
        NodeEventKind::ExitRemediation => 2,
        NodeEventKind::RepairAttemptFailed => 3,
        NodeEventKind::RepairEscalated => 4,
        NodeEventKind::EnterProbation => 5,
        NodeEventKind::ProbationPassed => 6,
        NodeEventKind::ProbationFailed => 7,
        NodeEventKind::Quarantined => 8,
    }
}

/// Stable ordinal for a control action kind (part of the v4 format).
pub(crate) fn control_action_ordinal(kind: ControlActionKind) -> u64 {
    match kind {
        ControlActionKind::RemediateNode => 0,
        ControlActionKind::QuarantineNode => 1,
        ControlActionKind::ReleaseNode => 2,
        ControlActionKind::AdaptiveRouting => 3,
        ControlActionKind::RestoreRouting => 4,
        ControlActionKind::RetuneCheckpoint => 5,
    }
}

/// Stable ordinal for a control trigger (part of the v4 format).
pub(crate) fn control_trigger_ordinal(trigger: ControlTrigger) -> u64 {
    match trigger {
        ControlTrigger::LemonSuspect => 0,
        ControlTrigger::MttfRegression => 1,
        ControlTrigger::QuarantineSurge => 2,
        ControlTrigger::Controller => 3,
    }
}

pub(crate) fn severity_ordinal(severity: Severity) -> u64 {
    match severity {
        Severity::High => 0,
        Severity::Low => 1,
    }
}

/// Folds a whole record slice from [`GENESIS`] and returns the stream's
/// chain head. [`crate::view::TelemetryView::chain_heads`] computes each
/// stream's head with it.
pub fn chain_digest<T: Record>(records: &[T]) -> u64 {
    let mut h = ChainHasher::new(GENESIS);
    for r in records {
        r.chain(&mut h);
    }
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::NodeEvent;
    use rsc_failure::injector::FailureEvent;
    use rsc_sim_core::time::SimTime;

    #[test]
    fn digest_is_non_destructive() {
        let mut h = ChainHasher::new(GENESIS);
        h.write_u64(42);
        let d1 = h.digest();
        assert_eq!(d1, h.digest());
        h.write_u64(43);
        assert_ne!(d1, h.digest());
    }

    #[test]
    fn word_boundaries_matter() {
        let mut a = ChainHasher::new(GENESIS);
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = ChainHasher::new(GENESIS);
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn chain_head_is_independent_of_checkpoint_positions() {
        // The running digest after N records must not depend on where
        // intermediate digests were taken — the capacity-invariance
        // property the v3 snapshot relies on.
        let ev = |at: u64| NodeEvent {
            node: rsc_cluster::ids::NodeId::new(3),
            at: SimTime::from_secs(at),
            kind: NodeEventKind::Drain,
        };
        let records: Vec<NodeEvent> = (0..100).map(|i| ev(i * 7)).collect();
        let mut h = ChainHasher::new(GENESIS);
        for r in &records {
            r.chain(&mut h);
            let _ = h.digest(); // checkpoint after every record
        }
        assert_eq!(h.digest(), chain_digest(&records));
    }

    #[test]
    fn different_prev_gives_different_digest() {
        let ev = FailureEvent {
            at: SimTime::from_secs(5),
            node: rsc_cluster::ids::NodeId::new(1),
            mode: rsc_failure::modes::ModeId(2),
            symptom: FailureSymptom::PcieError,
            permanent: false,
        };
        let fold = |prev| {
            let mut h = ChainHasher::new(prev);
            ev.chain(&mut h);
            h.digest()
        };
        assert_eq!(fold(GENESIS), chain_digest(&[ev]));
        assert_ne!(fold(GENESIS), fold(1));
    }
}
