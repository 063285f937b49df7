//! Lemon-node detection (paper §IV-A, Fig. 11, Table II).
//!
//! Computes the paper's seven per-node detection signals over a trailing
//! window, applies a threshold classifier, and — because our lemons are
//! *planted* with known ground truth — measures detection quality
//! (the paper reports >85% accuracy and a 14% → 4% reduction in large-job
//! failure rates).

use std::collections::{HashSet, VecDeque};

use rsc_cluster::ids::NodeId;
use rsc_health::monitor::HealthEvent;
use rsc_sched::accounting::JobRecord;
use rsc_sched::job::JobStatus;
use rsc_sim_core::stats::Ecdf;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::store::{ExclusionEvent, NodeEvent, NodeEventKind};
use rsc_telemetry::view::TelemetryView;

/// The seven lemon-detection signals for one node (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LemonFeatures {
    /// Node these features describe.
    pub node: NodeId,
    /// `excl_jobid_count`: distinct jobs that excluded this node.
    pub excl_jobid_count: u32,
    /// `xid_cnt`: distinct XID error codes seen on the node.
    pub xid_cnt: u32,
    /// `tickets`: repair tickets (remediation entries).
    pub tickets: u32,
    /// `out_count`: times the node was taken out of scheduler availability
    /// (drains + remediations).
    pub out_count: u32,
    /// `multi_node_node_fails`: infra failures of multi-node jobs involving
    /// this node.
    pub multi_node_node_fails: u32,
    /// `single_node_node_fails`: infra failures of single-node jobs on this
    /// node.
    pub single_node_node_fails: u32,
    /// `single_node_node_failure_rate`: single-node job failure rate on
    /// this node.
    pub single_node_node_failure_rate: f64,
}

impl LemonFeatures {
    /// All-zero features for a node.
    pub fn new(node: NodeId) -> Self {
        LemonFeatures {
            node,
            excl_jobid_count: 0,
            xid_cnt: 0,
            tickets: 0,
            out_count: 0,
            multi_node_node_fails: 0,
            single_node_node_fails: 0,
            single_node_node_failure_rate: 0.0,
        }
    }
}

/// Computes features for every node over `[from, to]`: the
/// [`WindowedLemon`] fold over the whole view with the trailing window
/// `to − from`, every blame resolved at `to`. An empty range (`from >
/// to`) holds no signal, so every row is all zero.
pub fn compute_features(view: &TelemetryView, from: SimTime, to: SimTime) -> Vec<LemonFeatures> {
    let mut fold = WindowedLemon::new(view.num_nodes(), to.saturating_since(from));
    if from <= to {
        view.jobs().iter().for_each(|r| fold.observe_job(r));
        view.health_events()
            .iter()
            .for_each(|e| fold.observe_health(e));
        view.node_events()
            .iter()
            .for_each(|e| fold.observe_node_event(e));
        view.exclusions()
            .iter()
            .for_each(|e| fold.observe_exclusion(e));
    }
    fold.resolve(to, true);
    fold.features(to)
}

/// How far before a job's end an implicating event may lie (paper §III).
const BLAME_BEFORE: SimDuration = SimDuration::from_mins(10);
/// How far after a job's end an implicating event may lie.
const BLAME_AFTER: SimDuration = SimDuration::from_mins(5);

/// The lemon-feature fold: the seven Table-II signals over a trailing
/// window, fed one record at a time.
///
/// Ring buffers hold only the trailing `window` of each input stream once
/// [`Self::evict`] runs, so memory is bounded by window content, not run
/// length. Multi-node blame needs events up to five minutes *after* a job
/// ends (the paper's attribution window), so infra-failed multi-node jobs
/// park in a pending queue until their blame window closes; blame is then
/// frozen, because every event in `[end − 10 min, end + 5 min]` has been
/// delivered by that point. [`compute_features`] folds a sealed view
/// through it, and `rsc-monitor` feeds it live, so the batch pass and the
/// online monitor share this one implementation.
///
/// Per-call work is proportional to the window's content, not to fleet
/// size, and nothing is allocated per node up front:
/// [`WindowedLemon::signalled`] builds rows only for nodes with in-window
/// signal. Started single-node jobs, by far the largest stream, are also
/// counted per node as they enter and leave the window, so a call visits
/// each node that ran one once, not each job.
#[derive(Debug, Clone)]
pub struct WindowedLemon {
    window: SimDuration,
    num_nodes: usize,
    /// `(at, node, job id)` for user exclusions.
    exclusions: VecDeque<(SimTime, u32, u64)>,
    /// `(at, node, xid code)` for XID-bearing health events.
    xids: VecDeque<(SimTime, u32, u16)>,
    /// `(at, node, kind)` for ticket/out-count lifecycle transitions.
    lifecycle: VecDeque<(SimTime, u32, NodeEventKind)>,
    /// `(at, node)` implication evidence: every health event plus
    /// `EnterRemediation`/`Drain`, kept only as long as a pending job could
    /// still need it.
    implication: VecDeque<(SimTime, u32)>,
    /// Started single-node jobs, with running per-node counts.
    singles: SingleJobs,
    /// `(ended_at, blamed nodes)` for resolved multi-node infra failures.
    multis: VecDeque<(SimTime, Vec<u32>)>,
    /// Multi-node infra failures awaiting blame-window close.
    pending: VecDeque<(SimTime, Vec<u32>)>,
}

impl WindowedLemon {
    /// An empty estimator over `num_nodes` with the given trailing window.
    pub fn new(num_nodes: u32, window: SimDuration) -> Self {
        WindowedLemon {
            window,
            num_nodes: num_nodes as usize,
            exclusions: VecDeque::new(),
            xids: VecDeque::new(),
            lifecycle: VecDeque::new(),
            implication: VecDeque::new(),
            singles: SingleJobs::default(),
            multis: VecDeque::new(),
            pending: VecDeque::new(),
        }
    }

    /// Folds one terminal job record in.
    pub fn observe_job(&mut self, r: &JobRecord) {
        if r.started_at.is_none() {
            return;
        }
        let infra = matches!(r.status, JobStatus::NodeFail | JobStatus::Requeued);
        if r.nodes.len() == 1 {
            self.singles.push(r.ended_at, r.nodes[0].index(), infra);
        } else if infra {
            self.pending
                .push_back((r.ended_at, r.nodes.iter().map(|n| n.index()).collect()));
        }
    }

    /// Folds one health event in (false positives included: they count
    /// as implication evidence too).
    pub fn observe_health(&mut self, e: &HealthEvent) {
        if let Some(rsc_failure::signals::SignalKind::Xid(x)) = e.signal {
            self.xids.push_back((e.at, e.node.index(), x.code()));
        }
        self.implicate(e.at, e.node);
    }

    fn implicate(&mut self, at: SimTime, node: NodeId) {
        if node.as_usize() < self.num_nodes {
            self.implication.push_back((at, node.index()));
        }
    }

    /// Folds one node lifecycle event in.
    pub fn observe_node_event(&mut self, e: &NodeEvent) {
        match e.kind {
            NodeEventKind::EnterRemediation
            | NodeEventKind::Drain
            | NodeEventKind::RepairAttemptFailed
            | NodeEventKind::ProbationFailed
            | NodeEventKind::Quarantined => {
                self.lifecycle.push_back((e.at, e.node.index(), e.kind));
            }
            _ => {}
        }
        // A node pulled from service at the failure instant is implicated
        // even when no check fired (the NODE_FAIL heartbeat path).
        if matches!(
            e.kind,
            NodeEventKind::EnterRemediation | NodeEventKind::Drain
        ) {
            self.implicate(e.at, e.node);
        }
    }

    /// Folds one user exclusion in.
    pub fn observe_exclusion(&mut self, e: &ExclusionEvent) {
        self.exclusions
            .push_back((e.at, e.node.index(), e.job.raw()));
    }

    /// Resolves pending multi-node blames whose window has closed
    /// (strictly — ties wait for the next tick), or everything at
    /// end-of-run when `finished` is set.
    pub fn resolve(&mut self, now: SimTime, finished: bool) {
        let ready = self
            .pending
            .iter()
            .take_while(|(ended_at, _)| finished || now.saturating_since(*ended_at) > BLAME_AFTER)
            .count();
        if ready == 0 {
            return;
        }
        // The implication evidence any ready job could use, by node and time.
        let ends = || self.pending.iter().take(ready).map(|p| p.0);
        let from = ends().min().expect("ready > 0") - BLAME_BEFORE;
        let to = ends().max().expect("ready > 0") + BLAME_AFTER;
        let mut evidence: Vec<(u32, SimTime)> = self
            .implication
            .iter()
            .filter(|&&(t, _)| from <= t && t <= to)
            .map(|&(t, node)| (node, t))
            .collect();
        evidence.sort_unstable();
        for (ended_at, nodes) in self.pending.drain(..ready) {
            let blamed: Vec<u32> = nodes
                .iter()
                .copied()
                .filter(|&n| implicated(&evidence, n, ended_at))
                .collect();
            // Blame only nodes a health event implicates (blaming every node
            // of a failed 32-node job would swamp the signal with innocent
            // bystanders); a NODE_FAIL hang with no implicating events
            // falls back to blaming the whole allocation.
            let blamed = if blamed.is_empty() { nodes } else { blamed };
            self.multis.push_back((ended_at, blamed));
        }
    }

    /// Evicts ring entries that have aged out of the window behind `now`.
    /// Implication times are kept on their own shorter horizon (one tick
    /// interval plus the blame lookback).
    pub fn evict(&mut self, now: SimTime) {
        let w = self.window;
        Self::evict_ring(&mut self.exclusions, now, w, |e| e.0);
        Self::evict_ring(&mut self.xids, now, w, |e| e.0);
        Self::evict_ring(&mut self.lifecycle, now, w, |e| e.0);
        self.singles.evict(now, w);
        Self::evict_ring(&mut self.multis, now, w, |e| e.0);
        Self::evict_ring(&mut self.implication, now, SimDuration::from_days(2), |e| {
            e.0
        });
    }

    fn evict_ring<T>(
        ring: &mut VecDeque<T>,
        now: SimTime,
        window: SimDuration,
        at: impl Fn(&T) -> SimTime,
    ) {
        while let Some(front) = ring.front() {
            if now.saturating_since(at(front)) <= window {
                break;
            }
            ring.pop_front();
        }
    }

    /// Computes the seven Table-II features over the trailing window ending
    /// at `now`, `[now − window, now]`, for
    /// every node with an in-window exclusion, XID, lifecycle event,
    /// single-node job or multi-node blame, ascending by node. Every other
    /// node's features are all zero.
    pub fn signalled(&self, now: SimTime) -> Vec<LemonFeatures> {
        let in_window = |at: SimTime| at <= now && now.saturating_since(at) <= self.window;
        let mut rows = Rows::new(self.num_nodes);

        let mut excluders: Vec<(u32, u64)> = self
            .exclusions
            .iter()
            .filter(|e| in_window(e.0))
            .map(|&(_, node, job)| (node, job))
            .collect();
        excluders.sort_unstable();
        excluders.dedup();
        for (node, _) in excluders {
            rows.row(node).excl_jobid_count += 1;
        }

        let mut codes: Vec<(u32, u16)> = self
            .xids
            .iter()
            .filter(|e| in_window(e.0))
            .map(|&(_, node, code)| (node, code))
            .collect();
        codes.sort_unstable();
        codes.dedup();
        for (node, _) in codes {
            rows.row(node).xid_cnt += 1;
        }

        for &(at, node, kind) in &self.lifecycle {
            if !in_window(at) {
                continue;
            }
            let f = rows.row(node);
            match kind {
                NodeEventKind::EnterRemediation => {
                    f.tickets += 1;
                    f.out_count += 1;
                }
                NodeEventKind::Drain => f.out_count += 1,
                // Fallible-remediation churn: every failed repair attempt
                // and flunked probation files another ticket against the
                // node, and quarantine is one final service removal, so
                // budget-exhausted nodes light up the ticket and
                // out-count criteria.
                NodeEventKind::RepairAttemptFailed | NodeEventKind::ProbationFailed => {
                    f.tickets += 1;
                }
                NodeEventKind::Quarantined => {
                    f.tickets += 1;
                    f.out_count += 1;
                }
                _ => {}
            }
        }

        for (node, started, fails) in self.singles.in_window(now, self.window) {
            let i = rows.index(node);
            rows.single_totals[i] = started;
            rows.features[i].single_node_node_fails = fails;
        }
        for (ended_at, blamed) in &self.multis {
            if !in_window(*ended_at) {
                continue;
            }
            for &node in blamed {
                rows.row(node).multi_node_node_fails += 1;
            }
        }

        let Rows {
            mut features,
            single_totals,
            ..
        } = rows;
        for (f, &total) in features.iter_mut().zip(&single_totals) {
            if total > 0 {
                f.single_node_node_failure_rate = f.single_node_node_fails as f64 / total as f64;
            }
        }
        features.sort_unstable_by_key(|f| f.node.index());
        features
    }

    /// The features of every node, in node order: [`Self::signalled`]
    /// with an all-zero row for each node it leaves out.
    pub fn features(&self, now: SimTime) -> Vec<LemonFeatures> {
        with_zero_rows(self.signalled(now), 0..self.num_nodes as u32)
    }

    /// Multi-node infra failures still awaiting blame-window close.
    pub fn pending_blames(&self) -> usize {
        self.pending.len()
    }
}

/// Merges an all-zero row for each of `nodes` (ascending) into `rows`
/// (ascending by node); a node that already has a row keeps it.
pub fn with_zero_rows(
    rows: Vec<LemonFeatures>,
    nodes: impl IntoIterator<Item = u32>,
) -> Vec<LemonFeatures> {
    let mut out = Vec::with_capacity(rows.len());
    let mut rows = rows.into_iter().peekable();
    for node in nodes {
        while let Some(row) = rows.next_if(|r| r.node.index() < node) {
            out.push(row);
        }
        if rows.peek().is_none_or(|r| r.node.index() != node) {
            out.push(LemonFeatures::new(NodeId::new(node)));
        }
    }
    out.extend(rows);
    out
}

/// Whether `evidence` (sorted `(node, at)` pairs) holds an event on `node`
/// inside the blame window around a job end.
fn implicated(evidence: &[(u32, SimTime)], node: u32, end: SimTime) -> bool {
    let i = evidence.partition_point(|&e| e < (node, end - BLAME_BEFORE));
    evidence
        .get(i)
        .is_some_and(|&(n, t)| n == node && t <= end + BLAME_AFTER)
}

/// Single-node job count of one node: `(node, started, infra_failed)`.
type SingleCount = (u32, u32, u32);

/// The `(ended_at, node, infra_failed)` ring of started single-node jobs,
/// plus running per-node counts of its entries, updated on push and evict.
///
/// [`Self::in_window`] reads the counts and corrects them exactly for the
/// entries outside the window: those that end after `now`, and those older
/// than the window but not evicted (a batch fold never evicts). While the
/// ring is in `ended_at` order these are a prefix and a suffix, found by
/// binary search; a ring with an entry pushed out of order is walked whole.
#[derive(Debug, Clone, Default)]
struct SingleJobs {
    ring: VecDeque<(SimTime, u32, bool)>,
    /// Adjacent ring entries out of `ended_at` order (0: sorted).
    disorder: usize,
    /// `counts` index plus one per node (0: none); grown on demand to the
    /// highest node pushed.
    slot: Vec<u32>,
    /// One entry per node with a job in the ring, in no order.
    counts: Vec<SingleCount>,
}

impl SingleJobs {
    fn push(&mut self, ended_at: SimTime, node: u32, infra: bool) {
        if self.ring.back().is_some_and(|b| b.0 > ended_at) {
            self.disorder += 1;
        }
        self.ring.push_back((ended_at, node, infra));
        let n = node as usize;
        if n >= self.slot.len() {
            self.slot.resize(n + 1, 0);
        }
        if self.slot[n] == 0 {
            self.counts.push((node, 0, 0));
            self.slot[n] = self.counts.len() as u32;
        }
        let c = &mut self.counts[self.slot[n] as usize - 1];
        c.1 += 1;
        c.2 += u32::from(infra);
    }

    /// Pops the entries older than `window` behind `now` off the front.
    fn evict(&mut self, now: SimTime, window: SimDuration) {
        while let Some(&(at, node, infra)) = self.ring.front() {
            if now.saturating_since(at) <= window {
                break;
            }
            self.ring.pop_front();
            if self.ring.front().is_some_and(|f| at > f.0) {
                self.disorder -= 1;
            }
            let i = self.slot[node as usize] as usize - 1;
            let c = &mut self.counts[i];
            c.1 -= 1;
            c.2 -= u32::from(infra);
            if c.1 == 0 {
                self.slot[node as usize] = 0;
                self.counts.swap_remove(i);
                if let Some(&(moved, ..)) = self.counts.get(i) {
                    self.slot[moved as usize] = i as u32 + 1;
                }
            }
        }
    }

    /// The counts of the entries in `[now − window, now]`, nodes with none
    /// left out, in no order.
    fn in_window(&self, now: SimTime, window: SimDuration) -> Vec<SingleCount> {
        let outside = |at: SimTime| at > now || now.saturating_since(at) > window;
        let mut counts = self.counts.clone();
        let mut take = |&(_, node, infra): &(SimTime, u32, bool)| {
            let c = &mut counts[self.slot[node as usize] as usize - 1];
            c.1 -= 1;
            c.2 -= u32::from(infra);
        };
        if self.disorder == 0 {
            let old = self
                .ring
                .partition_point(|e| now.saturating_since(e.0) > window);
            let late = self.ring.partition_point(|e| e.0 <= now);
            self.ring.range(..old).for_each(&mut take);
            self.ring.range(late..).for_each(&mut take);
        } else {
            self.ring.iter().filter(|e| outside(e.0)).for_each(take);
        }
        counts.retain(|c| c.1 > 0);
        counts
    }
}

/// Feature rows created on first touch. `slot` maps a node to its row plus
/// one (0: none yet); it is a zeroed allocation whose untouched pages cost
/// nothing, so a pass stays proportional to the rows it touches.
struct Rows {
    slot: Vec<u32>,
    features: Vec<LemonFeatures>,
    /// Started single-node jobs per row, the failure rate's denominator.
    single_totals: Vec<u32>,
}

impl Rows {
    fn new(num_nodes: usize) -> Self {
        Rows {
            slot: vec![0; num_nodes],
            features: Vec::new(),
            single_totals: Vec::new(),
        }
    }

    fn index(&mut self, node: u32) -> usize {
        let slot = &mut self.slot[node as usize];
        if *slot == 0 {
            self.features.push(LemonFeatures::new(NodeId::new(node)));
            self.single_totals.push(0);
            *slot = self.features.len() as u32;
        }
        *slot as usize - 1
    }

    fn row(&mut self, node: u32) -> &mut LemonFeatures {
        let i = self.index(node);
        &mut self.features[i]
    }
}

/// Threshold classifier over the features.
///
/// The paper tuned thresholds manually against accuracy and false-positive
/// rate; these defaults flag a node when enough independent signals agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LemonDetector {
    /// Minimum distinct XIDs to count the XID criterion.
    pub min_xid_cnt: u32,
    /// Minimum repair tickets to count the ticket criterion.
    pub min_tickets: u32,
    /// Minimum out-of-service count.
    pub min_out_count: u32,
    /// Minimum multi-node job failures.
    pub min_multi_node_fails: u32,
    /// Minimum single-node job failures.
    pub min_single_node_fails: u32,
    /// Minimum single-node failure rate.
    pub min_single_node_rate: f64,
    /// How many criteria must fire to flag a lemon.
    pub min_criteria: u32,
}

impl LemonDetector {
    /// Defaults tuned on the simulated 28-day window.
    pub fn rsc_default() -> Self {
        LemonDetector {
            min_xid_cnt: 2,
            min_tickets: 3,
            min_out_count: 4,
            min_multi_node_fails: 3,
            min_single_node_fails: 2,
            min_single_node_rate: 0.25,
            min_criteria: 2,
        }
    }

    /// Number of criteria a node's features satisfy.
    pub fn score(&self, f: &LemonFeatures) -> u32 {
        let mut score = 0;
        if f.xid_cnt >= self.min_xid_cnt {
            score += 1;
        }
        if f.tickets >= self.min_tickets {
            score += 1;
        }
        if f.out_count >= self.min_out_count {
            score += 1;
        }
        if f.multi_node_node_fails >= self.min_multi_node_fails {
            score += 1;
        }
        if f.single_node_node_fails >= self.min_single_node_fails {
            score += 1;
        }
        if f.single_node_node_failure_rate >= self.min_single_node_rate
            && f.single_node_node_fails >= 1
        {
            score += 1;
        }
        score
    }

    /// Whether the node is flagged.
    pub fn is_lemon(&self, f: &LemonFeatures) -> bool {
        self.score(f) >= self.min_criteria
    }

    /// Flags lemons among the given features.
    pub fn detect(&self, features: &[LemonFeatures]) -> Vec<NodeId> {
        features
            .iter()
            .filter(|f| self.is_lemon(f))
            .map(|f| f.node)
            .collect()
    }
}

impl Default for LemonDetector {
    fn default() -> Self {
        LemonDetector::rsc_default()
    }
}

impl LemonDetector {
    /// Tunes detector thresholds against labelled ground truth by grid
    /// search, maximizing F1 (the paper tuned "manually based on accuracy
    /// and false positive rate"; this automates that loop for new
    /// deployments). Returns the best detector and its F1.
    ///
    /// The grid scales the default thresholds by factors in
    /// `{0.5, 1, 1.5, 2, 3}` independently for failure-count vs
    /// ticket-count families, crossed with 1–3 agreeing criteria.
    pub fn tune(features: &[LemonFeatures], ground_truth: &[NodeId]) -> (LemonDetector, f64) {
        let base = LemonDetector::rsc_default();
        let scales = [0.5f64, 1.0, 1.5, 2.0, 3.0];
        let mut best = (base, -1.0f64);
        for &fail_scale in &scales {
            for &ticket_scale in &scales {
                for min_criteria in 1..=3u32 {
                    let candidate = LemonDetector {
                        min_xid_cnt: scale_u32(base.min_xid_cnt, ticket_scale),
                        min_tickets: scale_u32(base.min_tickets, ticket_scale),
                        min_out_count: scale_u32(base.min_out_count, ticket_scale),
                        min_multi_node_fails: scale_u32(base.min_multi_node_fails, fail_scale),
                        min_single_node_fails: scale_u32(base.min_single_node_fails, fail_scale),
                        min_single_node_rate: base.min_single_node_rate * fail_scale,
                        min_criteria,
                    };
                    let detected = candidate.detect(features);
                    let q = DetectionQuality::evaluate(&detected, ground_truth);
                    let (p, r) = (q.precision(), q.recall());
                    let f1 = if p + r > 0.0 {
                        2.0 * p * r / (p + r)
                    } else {
                        0.0
                    };
                    if f1 > best.1 {
                        best = (candidate, f1);
                    }
                }
            }
        }
        best
    }
}

fn scale_u32(x: u32, factor: f64) -> u32 {
    ((x as f64 * factor).round() as u32).max(1)
}

/// Detection quality against planted ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionQuality {
    /// Correctly flagged lemons.
    pub true_positives: usize,
    /// Healthy nodes incorrectly flagged.
    pub false_positives: usize,
    /// Lemons missed.
    pub false_negatives: usize,
}

impl DetectionQuality {
    /// Compares detected against ground-truth lemon sets.
    pub fn evaluate(detected: &[NodeId], ground_truth: &[NodeId]) -> Self {
        let det: HashSet<_> = detected.iter().collect();
        let truth: HashSet<_> = ground_truth.iter().collect();
        DetectionQuality {
            true_positives: det.intersection(&truth).count(),
            false_positives: det.difference(&truth).count(),
            false_negatives: truth.difference(&det).count(),
        }
    }

    /// Precision — the paper's "accuracy of predicted lemon nodes".
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            return 0.0;
        }
        self.true_positives as f64 / flagged as f64
    }

    /// Recall over the planted lemons.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            return 0.0;
        }
        self.true_positives as f64 / actual as f64
    }
}

/// Fig. 11: per-feature CDFs across all nodes.
///
/// Returns `(feature name, ECDF over nodes)`, in the figure's order.
pub fn feature_cdfs(features: &[LemonFeatures]) -> Vec<(&'static str, Ecdf)> {
    vec![
        (
            "excl_jobid_count",
            Ecdf::from_samples(features.iter().map(|f| f.excl_jobid_count as f64)),
        ),
        (
            "xid_cnt",
            Ecdf::from_samples(features.iter().map(|f| f.xid_cnt as f64)),
        ),
        (
            "tickets",
            Ecdf::from_samples(features.iter().map(|f| f.tickets as f64)),
        ),
        (
            "out_count",
            Ecdf::from_samples(features.iter().map(|f| f.out_count as f64)),
        ),
        (
            "multi_node_node_fails",
            Ecdf::from_samples(features.iter().map(|f| f.multi_node_node_fails as f64)),
        ),
        (
            "single_node_node_fails",
            Ecdf::from_samples(features.iter().map(|f| f.single_node_node_fails as f64)),
        ),
        (
            "single_node_node_failure_rate",
            Ecdf::from_samples(features.iter().map(|f| f.single_node_node_failure_rate)),
        ),
    ]
}

/// The fraction of large jobs (≥ `min_gpus`) that end in an infrastructure
/// failure — the paper's before/after lemon-removal metric (14% → 4%).
pub fn large_job_failure_rate(view: &TelemetryView, min_gpus: u32) -> f64 {
    let mut total = 0u64;
    let mut failed = 0u64;
    for r in view.jobs() {
        if r.gpus < min_gpus || r.started_at.is_none() {
            continue;
        }
        total += 1;
        if matches!(r.status, JobStatus::NodeFail | JobStatus::Requeued) {
            failed += 1;
        }
    }
    if total == 0 {
        return 0.0;
    }
    failed as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::JobId;
    use rsc_failure::modes::Severity;
    use rsc_health::check::CheckKind;
    use rsc_sched::job::QosClass;

    fn features(node: u32) -> LemonFeatures {
        LemonFeatures::new(NodeId::new(node))
    }

    #[test]
    fn healthy_node_is_not_flagged() {
        let det = LemonDetector::rsc_default();
        assert!(!det.is_lemon(&features(0)));
        assert_eq!(det.score(&features(0)), 0);
    }

    #[test]
    fn bad_node_is_flagged() {
        let det = LemonDetector::rsc_default();
        let mut f = features(1);
        f.tickets = 5;
        f.out_count = 6;
        f.multi_node_node_fails = 4;
        assert!(det.is_lemon(&f));
        assert_eq!(det.score(&f), 3);
    }

    #[test]
    fn single_criterion_is_not_enough() {
        let det = LemonDetector::rsc_default();
        let mut f = features(1);
        f.tickets = 100;
        assert!(!det.is_lemon(&f)); // tickets alone also bumps... only 1 criterion
    }

    #[test]
    fn tuning_finds_a_separating_detector() {
        // Ground truth: nodes 0 and 1 are lemons with strong signals;
        // nodes 2–9 are healthy with mild noise.
        let mut fs: Vec<LemonFeatures> = (0..10).map(features).collect();
        for f in fs.iter_mut().take(2) {
            f.tickets = 8;
            f.out_count = 9;
            f.multi_node_node_fails = 6;
            f.xid_cnt = 4;
        }
        fs[5].tickets = 1; // noise
        let truth = vec![NodeId::new(0), NodeId::new(1)];
        let (tuned, f1) = LemonDetector::tune(&fs, &truth);
        assert!(f1 > 0.99, "f1={f1}");
        let detected = tuned.detect(&fs);
        assert_eq!(detected, truth);
    }

    #[test]
    fn tuning_never_beats_perfect_default_case() {
        // With no signal at all, the best F1 is 0 and tune returns sanely.
        let fs: Vec<LemonFeatures> = (0..5).map(features).collect();
        let (_, f1) = LemonDetector::tune(&fs, &[NodeId::new(3)]);
        assert_eq!(f1, 0.0);
    }

    #[test]
    fn quality_metrics() {
        let detected = vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let truth = vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)];
        let q = DetectionQuality::evaluate(&detected, &truth);
        assert_eq!(q.true_positives, 2);
        assert_eq!(q.false_positives, 1);
        assert_eq!(q.false_negatives, 1);
        assert!((q.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_detection_has_zero_precision() {
        let q = DetectionQuality::evaluate(&[], &[NodeId::new(1)]);
        assert_eq!(q.precision(), 0.0);
        assert_eq!(q.recall(), 0.0);
    }

    #[test]
    fn cdfs_cover_all_features() {
        let fs = vec![features(0), features(1)];
        let cdfs = feature_cdfs(&fs);
        assert_eq!(cdfs.len(), 7);
        for (_, cdf) in &cdfs {
            assert_eq!(cdf.len(), 2);
        }
    }

    fn multi_fail(nodes: &[u32], ended_h: u64) -> JobRecord {
        JobRecord {
            job: JobId::new(9),
            attempt: 0,
            run: None,
            gpus: 8 * nodes.len() as u32,
            qos: QosClass::Normal,
            nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            enqueued_at: SimTime::ZERO,
            started_at: Some(SimTime::ZERO),
            ended_at: SimTime::from_hours(ended_h),
            status: JobStatus::NodeFail,
            preempted_by: None,
            instigator: None,
        }
    }

    fn health(node: u32, at: SimTime) -> HealthEvent {
        HealthEvent {
            at,
            node: NodeId::new(node),
            check: CheckKind::IbLink,
            severity: Severity::High,
            signal: None,
            false_positive: false,
        }
    }

    #[test]
    fn blame_narrows_to_implicated_node() {
        let mut w = WindowedLemon::new(4, SimDuration::from_days(60));
        let end = SimTime::from_hours(10);
        w.observe_health(&health(2, end));
        w.observe_job(&multi_fail(&[1, 2, 3], 10));
        w.resolve(SimTime::from_days(1), false);
        let f = w.features(SimTime::from_days(1));
        assert_eq!(f[2].multi_node_node_fails, 1);
        assert_eq!(f[1].multi_node_node_fails, 0);
        assert_eq!(f[3].multi_node_node_fails, 0);
    }

    #[test]
    fn unimplicated_failure_blames_all() {
        let mut w = WindowedLemon::new(4, SimDuration::from_days(60));
        w.observe_job(&multi_fail(&[0, 1], 10));
        w.resolve(SimTime::from_days(1), false);
        let f = w.features(SimTime::from_days(1));
        assert_eq!(f[0].multi_node_node_fails, 1);
        assert_eq!(f[1].multi_node_node_fails, 1);
    }

    #[test]
    fn blame_waits_for_window_close() {
        let mut w = WindowedLemon::new(2, SimDuration::from_days(60));
        w.observe_job(&multi_fail(&[0, 1], 10));
        // 3 minutes after the end: the +5 min window is still open.
        w.resolve(SimTime::from_hours(10) + SimDuration::from_mins(3), false);
        assert_eq!(w.pending_blames(), 1);
        w.resolve(SimTime::from_hours(11), false);
        assert_eq!(w.pending_blames(), 0);
    }

    #[test]
    fn signalled_lists_touched_nodes_in_order() {
        let mut w = WindowedLemon::new(6, SimDuration::from_days(7));
        for node in [4, 1, 4] {
            w.observe_exclusion(&ExclusionEvent {
                node: NodeId::new(node),
                job: JobId::new(5),
                at: SimTime::from_days(1),
            });
        }
        w.observe_job(&multi_fail(&[3, 1], 10));
        w.resolve(SimTime::from_days(1), false);
        let now = SimTime::from_days(1);
        let rows = w.signalled(now);
        let nodes: Vec<u32> = rows.iter().map(|f| f.node.index()).collect();
        assert_eq!(nodes, [1, 3, 4]);
        assert_eq!(rows[2].excl_jobid_count, 1, "one distinct job");
        let dense = w.features(now);
        assert_eq!(dense.len(), 6);
        assert_eq!(dense[0], LemonFeatures::new(NodeId::new(0)));
        assert_eq!(dense[4], rows[2]);
    }

    #[test]
    fn eviction_drops_old_signals() {
        let mut w = WindowedLemon::new(2, SimDuration::from_days(7));
        w.observe_exclusion(&ExclusionEvent {
            node: NodeId::new(1),
            job: JobId::new(5),
            at: SimTime::from_days(1),
        });
        assert_eq!(w.features(SimTime::from_days(2))[1].excl_jobid_count, 1);
        w.evict(SimTime::from_days(20));
        assert_eq!(w.features(SimTime::from_days(20))[1].excl_jobid_count, 0);
    }
}
