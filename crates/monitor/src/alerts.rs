//! The typed, deduplicated alert pipeline.
//!
//! Estimator readouts become [`AlertSignal`]s at each tick; the
//! [`AlertEngine`] turns them into a raise/clear transition log with two
//! guarantees:
//!
//! - **dedup** — raising an already-active key (or clearing an inactive
//!   one) is a no-op, so a persistent condition produces one alert, not
//!   one per tick;
//! - **debounce** — after any transition of a key, the opposite transition
//!   is suppressed until the policy's debounce has elapsed, so an alert
//!   can never flap faster than the debounce window
//!   (`tests/properties.rs` proves this for arbitrary signal sequences).
//!
//! Hysteresis lives in the *conditions*: each alert kind has distinct
//! raise and clear thresholds (see [`crate::config::AlertPolicy`]), so a
//! metric hovering at the raise threshold holds state instead of toggling.

use std::collections::BTreeMap;

use rsc_cluster::ids::NodeId;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::json;

/// What an alert is about. Keys identify alerts for dedup and debounce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKey {
    /// A node's windowed lemon score crossed the detector threshold.
    LemonSuspect(NodeId),
    /// The rolling-window MTTF regressed significantly below the
    /// cumulative MTTF.
    MttfRegression,
    /// Too many nodes quarantined within the trailing window.
    QuarantineSurge,
}

impl AlertKey {
    /// Short machine-readable label (`lemon_suspect`, `mttf_regression`,
    /// `quarantine_surge`).
    pub fn label(&self) -> &'static str {
        match self {
            AlertKey::LemonSuspect(_) => "lemon_suspect",
            AlertKey::MttfRegression => "mttf_regression",
            AlertKey::QuarantineSurge => "quarantine_surge",
        }
    }

    /// The node this alert concerns, when it concerns one.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            AlertKey::LemonSuspect(n) => Some(*n),
            _ => None,
        }
    }
}

/// One raised (and possibly cleared) alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// What the alert is about.
    pub key: AlertKey,
    /// When it was raised.
    pub raised_at: SimTime,
    /// When it cleared, if it has.
    pub cleared_at: Option<SimTime>,
    /// The metric value at raise time.
    pub value: f64,
    /// The threshold the value crossed.
    pub threshold: f64,
    /// Human-readable description.
    pub message: String,
}

impl Alert {
    /// Whether the alert is still active.
    pub fn is_active(&self) -> bool {
        self.cleared_at.is_none()
    }

    /// The alert as one JSON object: the monitor report's `alerts` entries
    /// and the `alert` of an SSE alert frame.
    pub fn to_json(&self) -> String {
        json::Object::new()
            .field("kind", &json::string(self.key.label()))
            .field(
                "node",
                &json::opt(&self.key.node(), |n| n.index().to_string()),
            )
            .field("raised_at_days", &json::f64(self.raised_at.as_days()))
            .field(
                "cleared_at_days",
                &json::opt(&self.cleared_at, |t| json::f64(t.as_days())),
            )
            .field("value", &json::f64(self.value))
            .field("threshold", &json::f64(self.threshold))
            .field("message", &json::string(&self.message))
            .finish()
    }
}

/// One evaluation of an alert condition.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertSignal {
    /// The raise condition holds.
    Raise {
        /// Metric value.
        value: f64,
        /// Raise threshold.
        threshold: f64,
        /// Description for the alert record.
        message: String,
    },
    /// The clear condition holds.
    Clear,
    /// Neither condition holds (the hysteresis band): keep current state.
    Hold,
}

#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Index into the log of the currently-active alert, if any.
    active: Option<usize>,
    last_transition: Option<SimTime>,
    /// When the key last cleared, for the post-clear re-raise cooldown.
    last_clear: Option<SimTime>,
}

/// Raise/clear state machine over alert keys.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    debounce: SimDuration,
    reraise_cooldown: SimDuration,
    states: BTreeMap<AlertKey, KeyState>,
    log: Vec<Alert>,
}

impl AlertEngine {
    /// An engine with the given transition debounce and no re-raise
    /// cooldown (the pre-cooldown behaviour).
    pub fn new(debounce: SimDuration) -> Self {
        AlertEngine::with_cooldowns(debounce, SimDuration::ZERO)
    }

    /// An engine with a transition debounce plus a post-clear re-raise
    /// cooldown: after a key clears, raising *that key* again is
    /// suppressed until the cooldown has elapsed since the clear. This
    /// kills the churn of a metric that oscillates across the hysteresis
    /// band — each clear buys a quiet period instead of an immediate
    /// re-raise one debounce later. `ZERO` reproduces [`AlertEngine::new`]
    /// exactly.
    pub fn with_cooldowns(debounce: SimDuration, reraise_cooldown: SimDuration) -> Self {
        AlertEngine {
            debounce,
            reraise_cooldown,
            states: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// Applies one evaluated signal for `key` at `now`. Returns `true` if
    /// a transition (raise or clear) happened.
    pub fn evaluate(&mut self, now: SimTime, key: AlertKey, signal: AlertSignal) -> bool {
        let state = self.states.entry(key).or_default();
        let debounced = state
            .last_transition
            .is_some_and(|t| now.saturating_since(t) < self.debounce);
        match signal {
            AlertSignal::Raise {
                value,
                threshold,
                message,
            } if state.active.is_none() => {
                let cooling = state
                    .last_clear
                    .is_some_and(|t| now.saturating_since(t) < self.reraise_cooldown);
                if debounced || cooling {
                    return false;
                }
                state.active = Some(self.log.len());
                state.last_transition = Some(now);
                self.log.push(Alert {
                    key,
                    raised_at: now,
                    cleared_at: None,
                    value,
                    threshold,
                    message,
                });
                true
            }
            AlertSignal::Clear if state.active.is_some() => {
                if debounced {
                    return false;
                }
                let idx = state.active.take().expect("checked active");
                state.last_transition = Some(now);
                state.last_clear = Some(now);
                self.log[idx].cleared_at = Some(now);
                true
            }
            // Dedup (raise-while-active, clear-while-inactive) and Hold.
            _ => false,
        }
    }

    /// Every alert ever raised, in raise order.
    pub fn log(&self) -> &[Alert] {
        &self.log
    }

    /// Currently-active alerts.
    pub fn active(&self) -> impl Iterator<Item = &Alert> {
        self.log.iter().filter(|a| a.is_active())
    }

    /// Number of currently-active alerts.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raise() -> AlertSignal {
        AlertSignal::Raise {
            value: 5.0,
            threshold: 3.0,
            message: "test".to_string(),
        }
    }

    #[test]
    fn raise_then_clear() {
        let mut e = AlertEngine::new(SimDuration::from_days(1));
        assert!(e.evaluate(SimTime::from_days(1), AlertKey::MttfRegression, raise()));
        assert_eq!(e.active_count(), 1);
        // Dedup: second raise is a no-op.
        assert!(!e.evaluate(SimTime::from_days(2), AlertKey::MttfRegression, raise()));
        assert_eq!(e.log().len(), 1);
        assert!(e.evaluate(
            SimTime::from_days(3),
            AlertKey::MttfRegression,
            AlertSignal::Clear
        ));
        assert_eq!(e.active_count(), 0);
        assert_eq!(e.log()[0].cleared_at, Some(SimTime::from_days(3)));
    }

    #[test]
    fn debounce_suppresses_fast_flap() {
        let mut e = AlertEngine::new(SimDuration::from_days(2));
        assert!(e.evaluate(SimTime::from_days(10), AlertKey::QuarantineSurge, raise()));
        // Clear attempt one day later: inside the debounce, suppressed.
        assert!(!e.evaluate(
            SimTime::from_days(11),
            AlertKey::QuarantineSurge,
            AlertSignal::Clear
        ));
        assert_eq!(e.active_count(), 1);
        // Two days later: allowed.
        assert!(e.evaluate(
            SimTime::from_days(12),
            AlertKey::QuarantineSurge,
            AlertSignal::Clear
        ));
    }

    #[test]
    fn reraise_cooldown_suppresses_post_clear_churn() {
        let mut e = AlertEngine::with_cooldowns(SimDuration::ZERO, SimDuration::from_days(5));
        assert!(e.evaluate(SimTime::from_days(1), AlertKey::MttfRegression, raise()));
        assert!(e.evaluate(
            SimTime::from_days(2),
            AlertKey::MttfRegression,
            AlertSignal::Clear
        ));
        // Re-raise two days after the clear: inside the cooldown.
        assert!(!e.evaluate(SimTime::from_days(4), AlertKey::MttfRegression, raise()));
        assert_eq!(e.log().len(), 1);
        // A different key is unaffected by this key's cooldown clock.
        assert!(e.evaluate(SimTime::from_days(4), AlertKey::QuarantineSurge, raise()));
        // Five days after the clear: allowed again.
        assert!(e.evaluate(SimTime::from_days(7), AlertKey::MttfRegression, raise()));
        assert_eq!(e.log().len(), 3);
    }

    #[test]
    fn keys_are_independent() {
        let mut e = AlertEngine::new(SimDuration::from_days(2));
        let a = AlertKey::LemonSuspect(NodeId::new(1));
        let b = AlertKey::LemonSuspect(NodeId::new(2));
        assert!(e.evaluate(SimTime::from_days(1), a, raise()));
        // A different key raising moments later is unaffected by A's
        // debounce clock.
        assert!(e.evaluate(SimTime::from_days(1), b, raise()));
        assert_eq!(e.active_count(), 2);
        assert!(a.node().is_some());
        assert_eq!(a.label(), "lemon_suspect");
    }

    #[test]
    fn hold_never_transitions() {
        let mut e = AlertEngine::new(SimDuration::ZERO);
        assert!(!e.evaluate(
            SimTime::from_days(1),
            AlertKey::MttfRegression,
            AlertSignal::Hold
        ));
        assert!(e.log().is_empty());
        // Clear without a prior raise is a no-op too.
        assert!(!e.evaluate(
            SimTime::from_days(1),
            AlertKey::MttfRegression,
            AlertSignal::Clear
        ));
    }
}
