//! The failure injector: turns hazard schedules into a deterministic stream
//! of failure events.
//!
//! # Superposition sampling
//!
//! The merged candidate process over all `(node, mode)` streams is itself a
//! Poisson process at the summed rate — the classical superposition
//! theorem. The injector therefore keeps **no per-stream state at all**: it
//! draws one exponential gap at the total rate, then attributes the event
//! to a stream categorically via an O(1) [`AliasTable`] whose weights are
//! each stream's *exact* rate in the current hazard era. Because
//! [`HazardSchedule`] rates are piecewise-constant in time (era modifiers)
//! and node multipliers are time-independent, the weight vector only
//! changes at [`HazardSchedule::era_boundaries`]; the table is rebuilt
//! exactly there, and the in-flight gap that crossed the boundary is
//! discarded and redrawn at the new total rate — exact by memorylessness.
//! A Lewis–Shedler thinning acceptance (`rate(t) / weight`) is kept as a
//! numerical safety net, but since the weight *is* the era rate the ratio
//! is exactly 1 and consumes no randomness.
//!
//! The table is built from the era's rates row-compressed
//! ([`HazardSchedule::era_table`]): one common per-mode row, shared by
//! every node that carries no lemon multiplier and sits in no active
//! `NodeFilter::Set` window, plus one row per such special node. The table
//! keeps those rows, and per column only a small/large class bit. Large
//! columns store their acceptance probability and one donor mark; a small
//! column's acceptance is recomputed from its rate at draw time, bit for
//! bit, and its alias found from the donor marks. At a million nodes × 12
//! modes that is ~52 MB where a dense `f64` + `u32` layout took 144 MB,
//! and no `nodes × modes` rate or alias array is ever made.
//!
//! This replaces a `nodes × modes`-entry candidate heap (819k entries at
//! 102k nodes) with O(1) amortized work per emitted failure, and makes
//! [`FailureInjector::peek_candidate_time`] a field read. That per-stream
//! thinning sampler — one candidate per `(node, mode)` drawn at the mode's
//! *maximum* rate and thin-accepted with probability `rate(t) / max_rate`
//! — survives only as the test-local reference in `tests/superposition.rs`,
//! which pins the two samplers' marginals against each other: they realize
//! the same law from different random draws.

use rsc_cluster::ids::NodeId;
use rsc_sim_core::rng::{AliasTable, SimRng};
use rsc_sim_core::time::{SimDuration, SimTime};

use crate::modes::ModeId;
use crate::process::HazardSchedule;
use crate::taxonomy::FailureSymptom;

/// A realized failure occurrence on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// When the failure occurred.
    pub at: SimTime,
    /// The afflicted node.
    pub node: NodeId,
    /// Which failure mode fired.
    pub mode: ModeId,
    /// The mode's primary symptom (denormalized for convenience).
    pub symptom: FailureSymptom,
    /// Whether the underlying component is permanently damaged (needs
    /// vendor repair) or the fault is transient.
    pub permanent: bool,
}

/// Pre-allocation ceiling for [`FailureInjector::drain_until`], so an
/// open-ended horizon can never request absurd memory up front.
const DRAIN_PRESIZE_CAP: f64 = (1 << 20) as f64;

/// Merged-process sampler state: one pending candidate plus the current
/// era's attribution table. Columns are laid out node-major:
/// `index = node * num_modes + mode_position`.
struct Superposition {
    mode_ids: Vec<ModeId>,
    num_nodes: u32,
    /// Sorted instants where some stream's rate changes.
    boundaries: Vec<SimTime>,
    /// Exclusive end of the current era ([`SimTime::MAX`] for the last).
    era_end: SimTime,
    /// Attribution table over the era's per-stream rates, which it keeps
    /// row-compressed; `None` when the era's total rate is zero.
    table: Option<AliasTable>,
    /// Summed rate of the merged process in the current era (per day).
    total: f64,
    /// Pre-drawn time of the next merged-process candidate; `None` once no
    /// further event can ever occur.
    next_candidate: Option<SimTime>,
}

impl Superposition {
    fn new(schedule: &HazardSchedule, num_nodes: u32, rng: &mut SimRng) -> Self {
        let mode_ids: Vec<ModeId> = schedule.catalog().iter().map(|(id, _)| id).collect();
        let mut sp = Superposition {
            mode_ids,
            num_nodes,
            boundaries: schedule.era_boundaries(),
            era_end: SimTime::MAX,
            table: None,
            total: 0.0,
            next_candidate: None,
        };
        sp.rebuild(schedule, SimTime::ZERO);
        sp.roll_next(schedule, rng, SimTime::ZERO);
        sp
    }

    /// Rebuilds the era state for the era containing `era_start` (which
    /// must be an era's first instant: zero or a boundary).
    fn rebuild(&mut self, schedule: &HazardSchedule, era_start: SimTime) {
        self.era_end = self
            .boundaries
            .iter()
            .copied()
            .find(|&b| b > era_start)
            .unwrap_or(SimTime::MAX);
        // The *exact* rates at the era start; constant through the era, so
        // acceptance-time `rate(t)` matches them bitwise. The table keeps
        // them as one common per-mode row plus the rows of special nodes,
        // never as a `nodes × modes` array.
        self.table = schedule.era_table(&self.mode_ids, self.num_nodes, era_start);
        self.total = self.table.as_ref().map_or(0.0, AliasTable::total);
    }

    /// Draws the next merged-process candidate strictly after `from`,
    /// advancing eras (and rebuilding the table) as needed. A gap that
    /// lands past the era end is discarded and redrawn at the next era's
    /// rate — exact for a non-homogeneous Poisson process with
    /// piecewise-constant intensity, by memorylessness.
    fn roll_next(&mut self, schedule: &HazardSchedule, rng: &mut SimRng, mut from: SimTime) {
        loop {
            if self.total <= 0.0 {
                if self.era_end == SimTime::MAX {
                    self.next_candidate = None;
                    return;
                }
                from = self.era_end;
                self.rebuild(schedule, from);
                continue;
            }
            let gap = SimDuration::from_days_f64(rng.exponential(self.total));
            let cand = from + gap;
            if cand >= self.era_end {
                if self.era_end == SimTime::MAX {
                    self.next_candidate = None;
                    return;
                }
                from = self.era_end;
                self.rebuild(schedule, from);
                continue;
            }
            self.next_candidate = Some(cand);
            return;
        }
    }
}

/// Generates the failure event stream for a cluster.
pub struct FailureInjector {
    schedule: HazardSchedule,
    sp: Superposition,
    rng: SimRng,
}

impl FailureInjector {
    /// Creates an injector for `num_nodes` nodes under `schedule`, using
    /// superposition sampling over the merged `(node, mode)` process.
    pub fn new(schedule: HazardSchedule, num_nodes: u32, mut rng: SimRng) -> Self {
        let sp = Superposition::new(&schedule, num_nodes, &mut rng);
        FailureInjector { schedule, sp, rng }
    }

    /// The hazard schedule driving this injector.
    pub fn schedule(&self) -> &HazardSchedule {
        &self.schedule
    }

    /// Timestamp of the next *candidate* event (an upper bound on when the
    /// next real failure can occur). A field read.
    pub fn peek_candidate_time(&self) -> Option<SimTime> {
        self.sp.next_candidate
    }

    /// Returns the next accepted failure at or before `limit`, if any.
    ///
    /// Rejected candidates are consumed and rescheduled internally; calling
    /// this repeatedly yields the full ordered failure stream.
    pub fn next_before(&mut self, limit: SimTime) -> Option<FailureEvent> {
        let sp = &mut self.sp;
        loop {
            let at = sp.next_candidate?;
            if at > limit {
                return None;
            }
            let table = sp.table.as_ref().expect("pending candidate implies table");
            // Attribute the merged event to a stream: O(1) alias draw.
            let i = table.sample(&mut self.rng);
            let node = NodeId::new((i / sp.mode_ids.len()) as u32);
            let mode = sp.mode_ids[i % sp.mode_ids.len()];
            // Thinning safety net: the sampling weight is the exact era
            // rate the table was built from, so the ratio is 1 and `chance`
            // short-circuits without a draw.
            let rate = self.schedule.rate(node, mode, at);
            let weight = table.weight(i);
            let event = if rate > 0.0 && self.rng.chance(rate / weight) {
                let spec = self.schedule.catalog().mode(mode);
                let permanent = self.rng.chance(spec.permanent_prob);
                Some(FailureEvent {
                    at,
                    node,
                    mode,
                    symptom: spec.symptom,
                    permanent,
                })
            } else {
                None
            };
            sp.roll_next(&self.schedule, &mut self.rng, at);
            if let Some(ev) = event {
                return Some(ev);
            }
        }
    }

    /// Drains all failures up to `limit` into a vector (test/analysis aid),
    /// pre-sized from the expected count (`total rate × horizon`) to avoid
    /// reallocation churn.
    pub fn drain_until(&mut self, limit: SimTime) -> Vec<FailureEvent> {
        let per_day = self.sp.total;
        let days = limit.as_secs() as f64 / 86_400.0;
        // Expected count padded ~3σ; clamped so `SimTime::MAX` horizons
        // cannot demand absurd allocations.
        let expected = per_day * days;
        let padded = expected + 3.0 * expected.sqrt() + 8.0;
        let presize = if padded.is_finite() {
            padded.min(DRAIN_PRESIZE_CAP) as usize
        } else {
            0
        };
        let mut out = Vec::with_capacity(presize);
        while let Some(ev) = self.next_before(limit) {
            out.push(ev);
        }
        out
    }
}

impl std::fmt::Debug for FailureInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureInjector")
            .field("total_rate_per_day", &self.sp.total)
            .field("next_candidate", &self.sp.next_candidate)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ModeCatalog;
    use crate::process::{NodeFilter, RateModifier};

    fn injector(num_nodes: u32, seed: u64) -> FailureInjector {
        let schedule = HazardSchedule::new(ModeCatalog::rsc1());
        FailureInjector::new(schedule, num_nodes, SimRng::seed_from(seed))
    }

    #[test]
    fn events_are_time_ordered() {
        let mut inj = injector(128, 1);
        let events = inj.drain_until(SimTime::from_days(60));
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn rate_matches_expectation() {
        // 1000 nodes × 100 days × 6.5e-3 failures/node-day ≈ 650 failures.
        let mut inj = injector(1000, 2);
        let events = inj.drain_until(SimTime::from_days(100));
        let n = events.len() as f64;
        assert!((n - 650.0).abs() < 3.0 * 650.0f64.sqrt(), "n={n}");
    }

    #[test]
    fn era_multiplier_increases_counts_in_window() {
        let mut schedule = HazardSchedule::new(ModeCatalog::rsc1());
        let ib = schedule
            .mode_by_symptom(FailureSymptom::InfinibandLink)
            .unwrap();
        schedule.add_modifier(RateModifier {
            mode: ib,
            nodes: NodeFilter::All,
            from: SimTime::from_days(50),
            until: SimTime::from_days(60),
            multiplier: 50.0,
        });
        let mut inj = FailureInjector::new(schedule, 500, SimRng::seed_from(3));
        let events = inj.drain_until(SimTime::from_days(100));
        let ib_in_window = events
            .iter()
            .filter(|e| {
                e.mode == ib && e.at >= SimTime::from_days(50) && e.at < SimTime::from_days(60)
            })
            .count();
        let ib_before = events
            .iter()
            .filter(|e| e.mode == ib && e.at < SimTime::from_days(50))
            .count();
        // Window is 10 days at 50×; the 50 days before are at 1×. Expect the
        // window to hold roughly 10× the count of the preceding 50 days.
        assert!(
            ib_in_window as f64 > 3.0 * ib_before as f64,
            "in_window={ib_in_window} before={ib_before}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<_> = injector(64, 7).drain_until(SimTime::from_days(30));
        let b: Vec<_> = injector(64, 7).drain_until(SimTime::from_days(30));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = injector(64, 7).drain_until(SimTime::from_days(90));
        let b: Vec<_> = injector(64, 8).drain_until(SimTime::from_days(90));
        assert_ne!(a, b);
    }

    #[test]
    fn permanent_fraction_tracks_mode_spec() {
        let mut inj = injector(2000, 9);
        let events = inj.drain_until(SimTime::from_days(200));
        let gpu_mem: Vec<_> = events
            .iter()
            .filter(|e| e.symptom == FailureSymptom::GpuMemoryError)
            .collect();
        assert!(gpu_mem.len() > 100);
        let perm = gpu_mem.iter().filter(|e| e.permanent).count() as f64 / gpu_mem.len() as f64;
        assert!((perm - 0.35).abs() < 0.1, "perm={perm}");
    }

    #[test]
    fn peek_candidate_bounds_next_event() {
        let mut inj = injector(256, 4);
        let peek = inj.peek_candidate_time().expect("positive-rate schedule");
        let ev = inj
            .next_before(SimTime::from_days(3650))
            .expect("some failure within a decade");
        assert!(ev.at >= peek, "first event precedes the peeked candidate");
    }

    #[test]
    fn superposition_total_tracks_era_rebuilds() {
        // A 50× IB era should raise the merged rate inside the window and
        // drop it back after — observable via inter-event density.
        let mut schedule = HazardSchedule::new(ModeCatalog::rsc1());
        let ib = schedule
            .mode_by_symptom(FailureSymptom::InfinibandLink)
            .unwrap();
        schedule.add_modifier(RateModifier {
            mode: ib,
            nodes: NodeFilter::All,
            from: SimTime::from_days(10),
            until: SimTime::from_days(20),
            multiplier: 50.0,
        });
        let mut inj = FailureInjector::new(schedule, 2000, SimRng::seed_from(5));
        let events = inj.drain_until(SimTime::from_days(30));
        let count = |lo: u64, hi: u64| {
            events
                .iter()
                .filter(|e| e.at >= SimTime::from_days(lo) && e.at < SimTime::from_days(hi))
                .count() as f64
        };
        let (before, during, after) = (count(0, 10), count(10, 20), count(20, 30));
        assert!(during > 2.0 * before, "during={during} before={before}");
        assert!(during > 2.0 * after, "during={during} after={after}");
    }

    #[test]
    fn zero_rate_schedule_yields_no_events() {
        // All-zero node multipliers force total rate 0 in every era.
        let mut schedule = HazardSchedule::new(ModeCatalog::rsc1());
        let mode_ids: Vec<ModeId> = schedule.catalog().iter().map(|(id, _)| id).collect();
        for node_idx in 0..8 {
            for &mode in &mode_ids {
                schedule.add_node_multiplier(NodeId::new(node_idx), mode, 0.0);
            }
        }
        let mut inj = FailureInjector::new(schedule, 8, SimRng::seed_from(6));
        assert_eq!(inj.peek_candidate_time(), None);
        assert!(inj.drain_until(SimTime::from_days(365)).is_empty());
    }
}
