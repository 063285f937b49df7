//! The row-level text primitives the telemetry record codecs are built on.
//!
//! Each stream's encoder/decoder pair is its [`Record`](crate::record::Record)
//! impl, shared by every format version of the snapshot
//! ([`crate::snapshot`]) and, for jobs, the trace; this module holds what
//! they share: decimal writers, the signal and label tables, the
//! [`write_rows`] loop and the [`Row`] cursor.
//!
//! Encoders append one row (no trailing newline) to a caller's buffer:
//! integers are written digit by digit and labels are `&'static str`, so
//! encoding a record allocates nothing. Decoders walk the row's bytes once
//! with a [`Row`] cursor and accept exactly what the encoders write:
//! digits only, no sign, no leading zero except in `0`, each number at its
//! field's own width (a value past it is refused, never truncated), labels
//! only from the fixed tables, and the exact field count. They allocate
//! only for a multi-node job's node list and build an error
//! message only on the failure path. Errors are a plain `String`; callers
//! attach location context (snapshot or trace line numbers).

use std::io::{self, Write};

use rsc_cluster::gpu::XidError;
use rsc_cluster::ids::{NodeId, NodeList};
use rsc_failure::modes::Severity;
use rsc_failure::signals::SignalKind;

use crate::record::Record;
use crate::store::NodeEventKind;

pub(crate) fn severity_label(s: Severity) -> &'static str {
    match s {
        Severity::High => "high",
        Severity::Low => "low",
    }
}

/// Signals whose tag is a fixed label (everything but XIDs).
const PLAIN_SIGNALS: [(SignalKind, &str); 11] = [
    (SignalKind::PcieError, "pcie_err"),
    (SignalKind::IpmiCriticalInterrupt, "ipmi_critical"),
    (SignalKind::IbLinkError, "ib_link_err"),
    (SignalKind::EthLinkError, "eth_link_err"),
    (SignalKind::FsMountMissing, "fs_mount_missing"),
    (SignalKind::MainMemoryError, "dram_ue"),
    (SignalKind::ServiceFailure, "service_down"),
    (SignalKind::BlockDeviceError, "blockdev_err"),
    (SignalKind::NodeUnresponsive, "unresponsive"),
    (SignalKind::PowerFault, "power_fault"),
    (SignalKind::ThermalWarning, "thermal_warn"),
];

/// Appends the lossless signal tag. Named XID variants encode as
/// `xid<code>`; the catch-all [`XidError::Other`] encodes as `xido<code>`
/// so that e.g. `Other(48)` and `DoubleBitEcc` (also code 48) stay
/// distinct.
pub(crate) fn push_signal(out: &mut Vec<u8>, s: SignalKind) {
    match s {
        SignalKind::Xid(XidError::Other(code)) => {
            out.extend_from_slice(b"xido");
            push_u64(out, u64::from(code));
        }
        SignalKind::Xid(x) => {
            out.extend_from_slice(b"xid");
            push_u64(out, u64::from(x.code()));
        }
        other => {
            let (_, label) = PLAIN_SIGNALS
                .iter()
                .find(|(k, _)| *k == other)
                .expect("every non-XID signal has a plain label");
            out.extend_from_slice(label.as_bytes());
        }
    }
}

/// Decodes a signal tag; the empty tag is no signal.
pub(crate) fn parse_signal(s: &[u8]) -> Option<Option<SignalKind>> {
    if s.is_empty() {
        return Some(None);
    }
    if let Some(&(kind, _)) = PLAIN_SIGNALS
        .iter()
        .find(|(_, label)| label.as_bytes() == s)
    {
        return Some(Some(kind));
    }
    if let Some(code) = s.strip_prefix(b"xido") {
        return parse_uint(code).map(|c| Some(SignalKind::Xid(XidError::Other(c))));
    }
    if let Some(code) = s.strip_prefix(b"xid") {
        let xid = match parse_uint::<u16>(code)? {
            48 => XidError::DoubleBitEcc,
            64 => XidError::RowRemapFailure,
            74 => XidError::NvlinkError,
            79 => XidError::FallenOffBus,
            119 => XidError::GspTimeout,
            31 => XidError::MemoryPageFault,
            _ => return None,
        };
        return Some(Some(SignalKind::Xid(xid)));
    }
    None
}

pub(crate) fn node_event_kind_label(k: NodeEventKind) -> &'static str {
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

/// Appends `v` in decimal, exactly as `Display` would.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `v` in decimal, or nothing for `None` (an empty field).
pub(crate) fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    if let Some(v) = v {
        push_u64(out, v);
    }
}

/// Writes each record's row and a newline to `w` through one reused row
/// buffer: no allocation per row, and never more than one row held.
pub(crate) fn write_rows<W: Write, T: Record>(w: &mut W, records: &[T]) -> io::Result<()> {
    let buf = &mut Vec::new();
    for r in records {
        buf.clear();
        r.encode(buf);
        buf.push(b'\n');
        w.write_all(buf)?;
    }
    Ok(())
}

/// Parses the canonical decimal at the start of `s` as a `T` and returns
/// it with the number of bytes it spans: ASCII digits only, no sign, and
/// no leading zero unless the number is `0` itself. `None` when `s` does
/// not start with a digit, when a leading `0` is followed by another
/// digit, or when `T` cannot hold the value (it is refused, never
/// truncated).
fn leading<T: TryFrom<u64>>(s: &[u8]) -> Option<(T, usize)> {
    let mut v = 0u64;
    let mut n = 0;
    while let Some(&b) = s.get(n).filter(|b| b.is_ascii_digit()) {
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        n += 1;
    }
    if n == 0 || (n > 1 && s[0] == b'0') {
        return None;
    }
    Some((T::try_from(v).ok()?, n))
}

/// Parses all of `s` as a canonical decimal that fits `T` ([`leading`]).
pub(crate) fn parse_uint<T: TryFrom<u64>>(s: &[u8]) -> Option<T> {
    leading(s).filter(|(_, n)| *n == s.len()).map(|(v, _)| v)
}

/// A cursor over one row (its `\n` already stripped) that decodes the
/// fields in order, in place. Each field must be followed by `,`, and the
/// last one by the end of the row, so the field count is exact and any
/// other byte after a field (a `\r`, say) refuses the row.
pub(crate) struct Row<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Fields not yet read.
    left: usize,
    fields: usize,
}

impl<'a> Row<'a> {
    /// A cursor over `bytes`, a row of exactly `fields` fields.
    pub(crate) fn new(bytes: &'a [u8], fields: usize) -> Self {
        Row {
            bytes,
            pos: 0,
            left: fields,
            fields,
        }
    }

    /// Steps over the delimiter after a field that began at `start`.
    fn end_field(&mut self, what: &str, start: usize) -> Result<(), String> {
        self.left -= 1;
        match (self.bytes.get(self.pos), self.left) {
            (Some(b','), 1..) => {
                self.pos += 1;
                Ok(())
            }
            (None, 0) => Ok(()),
            (None, _) | (Some(b','), 0) => Err(format!(
                "expected {} fields, got {}",
                self.fields,
                self.bytes.iter().filter(|&&b| b == b',').count() + 1
            )),
            _ => Err(self.bad(what, start)),
        }
    }

    /// The error for a field that began at `start`, quoting it.
    fn bad(&self, what: &str, start: usize) -> String {
        let field = self.bytes[start..].split(|&b| b == b',').next();
        format!(
            "bad {what}: {:?}",
            String::from_utf8_lossy(field.unwrap_or(&[]))
        )
    }

    /// The next field's bytes, up to the next `,` or the end of the row.
    fn field(&mut self, what: &str) -> Result<&'a [u8], String> {
        let (bytes, start) = (self.bytes, self.pos);
        let end = start + bytes[start..].iter().take_while(|&&b| b != b',').count();
        self.pos = end;
        self.end_field(what, start)?;
        Ok(&bytes[start..end])
    }

    /// The next field decoded by `parse`; `None` refuses it.
    pub(crate) fn parse<T>(
        &mut self,
        what: &str,
        parse: impl Fn(&[u8]) -> Option<T>,
    ) -> Result<T, String> {
        let start = self.pos;
        let field = self.field(what)?;
        parse(field).ok_or_else(|| self.bad(what, start))
    }

    /// The next field as the entry of `all` whose `label` it is.
    pub(crate) fn label<T: Copy>(
        &mut self,
        what: &str,
        all: &[T],
        label: impl Fn(T) -> &'static str,
    ) -> Result<T, String> {
        self.parse(what, |s| {
            all.iter().copied().find(|&x| label(x).as_bytes() == s)
        })
    }

    /// The next field as `0` (false) or `1` (true).
    pub(crate) fn flag(&mut self, what: &str) -> Result<bool, String> {
        self.parse(what, |s| match s {
            b"0" => Some(false),
            b"1" => Some(true),
            _ => None,
        })
    }

    /// The next field as a canonical decimal that fits `T` ([`leading`]),
    /// read digit by digit in one pass.
    pub(crate) fn num<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T, String> {
        let start = self.pos;
        let (v, n) = leading(&self.bytes[start..]).ok_or_else(|| self.bad(what, start))?;
        self.pos += n;
        self.end_field(what, start)?;
        Ok(v)
    }

    /// The next field as [`Self::num`], or `None` when it is empty.
    pub(crate) fn opt_num<T: TryFrom<u64>>(&mut self, what: &str) -> Result<Option<T>, String> {
        if let None | Some(b',') = self.bytes.get(self.pos) {
            self.end_field(what, self.pos)?;
            return Ok(None);
        }
        self.num(what).map(Some)
    }

    /// The next field as a `;`-separated list of node ids; an empty field
    /// is an empty list. One node is stored inline, so only a multi-node
    /// list allocates, once, sized exactly from the row's own `;` count.
    pub(crate) fn nodes(&mut self, what: &str) -> Result<NodeList, String> {
        let start = self.pos;
        let field = self.field(what)?;
        let node = |entry| {
            parse_uint(entry)
                .map(NodeId::new)
                .ok_or_else(|| self.bad(what, start))
        };
        match field.iter().filter(|&&b| b == b';').count() {
            _ if field.is_empty() => Ok(NodeList::default()),
            0 => node(field).map(NodeList::one),
            separators => {
                let mut out = Vec::with_capacity(separators + 1);
                for entry in field.split(|&b| b == b';') {
                    out.push(node(entry)?);
                }
                Ok(out.into())
            }
        }
    }
}
