//! A fan-out tap over the [`ReliabilityMonitor`]: turns the monitor's
//! internal state transitions into an ordered stream of typed
//! [`MonitorEvent`]s for external subscribers (dashboards, the
//! `rsc-serve` SSE endpoint, log shippers).
//!
//! The tap wraps a monitor, forwards every [`SimEvent`] to it, and after
//! each delivery emits whatever *changed*: newly raised alerts (in log
//! order — the same order as the alerts CSV rows), alert clears,
//! control actions, a compact estimator heartbeat per daily tick, and a
//! final `Finished` marker. Because alert state only transitions inside
//! the monitor's tick evaluation, the emitted sequence is a pure function
//! of the event stream — live attachment and
//! [`replay_view`](crate::replay::replay_view) over the cached artifact
//! produce the identical `MonitorEvent` sequence, which is what lets a
//! server stream cache hits and live runs through one code path.

use rsc_sim::bus::{SimEvent, SimObserver};
use rsc_telemetry::store::ControlActionEvent;

use crate::alerts::Alert;
use crate::monitor::ReliabilityMonitor;

/// A compact per-tick estimator readout, cheap enough to stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateTick {
    /// Simulated time of the tick, days.
    pub at_days: f64,
    /// Cumulative all-sizes MTTF, hours (infinite when no failures).
    pub overall_mttf_hours: f64,
    /// Streaming status-only failure rate, failures per node-day.
    pub failure_rate_per_node_day: f64,
    /// Expected ETTR of the reference job, once exposure exists.
    pub expected_ettr: Option<f64>,
    /// Fleet availability up to this instant.
    pub fleet_availability: f64,
    /// Alerts currently active.
    pub active_alerts: usize,
}

/// One item of the tap's output stream.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// An alert entered the log. `seq` is its index in the monitor's
    /// alert log, so the raise stream enumerates the alerts CSV rows in
    /// order.
    AlertRaised {
        /// Index in the alert log.
        seq: usize,
        /// The alert as raised (`cleared_at` still `None`).
        alert: Alert,
    },
    /// A previously raised alert cleared.
    AlertCleared {
        /// Index in the alert log of the cleared alert.
        seq: usize,
        /// The alert with `cleared_at` now set.
        alert: Alert,
    },
    /// The control plane actuated (or budget-rejected) a mitigation.
    Action(ControlActionEvent),
    /// Daily estimator heartbeat.
    Estimate(EstimateTick),
    /// The run finished; no further events will follow.
    Finished {
        /// The measurement horizon, days.
        at_days: f64,
    },
}

impl MonitorEvent {
    /// Short machine-readable label, used as the SSE `event:` name.
    pub fn label(&self) -> &'static str {
        match self {
            MonitorEvent::AlertRaised { .. } => "alert",
            MonitorEvent::AlertCleared { .. } => "alert_clear",
            MonitorEvent::Action(_) => "action",
            MonitorEvent::Estimate(_) => "estimate",
            MonitorEvent::Finished { .. } => "finished",
        }
    }
}

/// The sink side of a tap: called synchronously, in order, once per
/// emitted event.
pub type MonitorSink = Box<dyn FnMut(&MonitorEvent) + Send>;

/// A [`SimObserver`] that owns a [`ReliabilityMonitor`] and streams its
/// state transitions into a [`MonitorSink`].
pub struct MonitorTap {
    monitor: ReliabilityMonitor,
    sink: MonitorSink,
    /// Alerts already announced as raised (= prefix length of the log).
    raised_seen: usize,
    /// Mirror of which announced alerts were already announced as cleared.
    cleared_seen: Vec<bool>,
    /// Whether `Finished` was already emitted. The live driver delivers
    /// `Finish` once per `run()` segment *and* once more when telemetry is
    /// taken; the monitor absorbs the repeat, and so must the tap.
    finished: bool,
}

impl std::fmt::Debug for MonitorTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorTap")
            .field("monitor", &self.monitor)
            .field("raised_seen", &self.raised_seen)
            .finish_non_exhaustive()
    }
}

impl MonitorTap {
    /// Wraps `monitor`, streaming transitions into `sink`.
    pub fn new(monitor: ReliabilityMonitor, sink: MonitorSink) -> Self {
        MonitorTap {
            monitor,
            sink,
            raised_seen: 0,
            cleared_seen: Vec::new(),
            finished: false,
        }
    }

    /// The wrapped monitor.
    pub fn monitor(&self) -> &ReliabilityMonitor {
        &self.monitor
    }

    /// Announces alert transitions since the last flush: raises for new
    /// log entries (in log order), then clears for entries whose
    /// `cleared_at` appeared. Within one tick, raises precede clears —
    /// matching the order the engine itself applies transitions.
    fn flush_alert_transitions(&mut self) {
        let alerts = self.monitor.alerts();
        for (seq, alert) in alerts.iter().enumerate().skip(self.raised_seen) {
            (self.sink)(&MonitorEvent::AlertRaised {
                seq,
                alert: alert.clone(),
            });
        }
        self.raised_seen = alerts.len();
        self.cleared_seen.resize(alerts.len(), false);
        // Clears mutate earlier rows in place; scan the mirror for new
        // ones. Alert logs are small (tens of rows), so the per-tick scan
        // is negligible next to the estimator work.
        for (seq, alert) in alerts.iter().enumerate() {
            if !self.cleared_seen[seq] && !alert.is_active() {
                self.cleared_seen[seq] = true;
                (self.sink)(&MonitorEvent::AlertCleared {
                    seq,
                    alert: alert.clone(),
                });
            }
        }
    }

    fn emit_estimate(&mut self, at_days: f64) {
        let m = &self.monitor;
        let tick = EstimateTick {
            at_days,
            overall_mttf_hours: m.mttf().overall_mttf_hours(),
            failure_rate_per_node_day: m.failure_rate().rate(),
            expected_ettr: m.expected_ettr(),
            fleet_availability: m.availability().snapshot(m.now()).fleet_availability,
            active_alerts: m.alerts().iter().filter(|a| a.is_active()).count(),
        };
        (self.sink)(&MonitorEvent::Estimate(tick));
    }
}

impl SimObserver for MonitorTap {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        self.monitor.on_event(event);
        match event {
            SimEvent::ControlAction(e) => (self.sink)(&MonitorEvent::Action(**e)),
            SimEvent::Tick { now } => {
                self.flush_alert_transitions();
                self.emit_estimate(now.as_days());
            }
            SimEvent::Finish { horizon, .. } if !self.finished => {
                self.finished = true;
                self.flush_alert_transitions();
                self.emit_estimate(horizon.as_days());
                (self.sink)(&MonitorEvent::Finished {
                    at_days: horizon.as_days(),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MonitorConfig;
    use crate::replay::replay_view;
    use rsc_sim::bus::SharedObserver;
    use rsc_sim::config::SimConfig;
    use rsc_sim::driver::ClusterSim;
    use rsc_sim_core::time::SimDuration;
    use std::sync::{Arc, Mutex};

    fn collecting_sink() -> (Arc<Mutex<Vec<MonitorEvent>>>, MonitorSink) {
        let events = Arc::new(Mutex::new(Vec::new()));
        let handle = Arc::clone(&events);
        let sink: MonitorSink = Box::new(move |e: &MonitorEvent| {
            handle.lock().unwrap().push(e.clone());
        });
        (events, sink)
    }

    fn run_live(seed: u64, days: u64) -> (Vec<MonitorEvent>, rsc_telemetry::view::TelemetryView) {
        let (events, sink) = collecting_sink();
        let tap = MonitorTap::new(ReliabilityMonitor::new(MonitorConfig::rsc_default()), sink);
        let handle = SharedObserver::new(tap);
        let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), seed);
        sim.attach_observer(Box::new(handle.clone()));
        sim.run(SimDuration::from_days(days));
        let view = sim.into_telemetry().seal();
        let out = events.lock().unwrap().clone();
        (out, view)
    }

    #[test]
    fn tap_emits_daily_estimates_and_finished() {
        let (events, _) = run_live(11, 4);
        let estimates = events
            .iter()
            .filter(|e| matches!(e, MonitorEvent::Estimate(_)))
            .count();
        // Ticks at days 1..=3 plus the Finish heartbeat.
        assert_eq!(estimates, 4);
        assert!(matches!(
            events.last(),
            Some(MonitorEvent::Finished { at_days }) if *at_days == 4.0
        ));
    }

    #[test]
    fn raise_sequence_matches_alert_log_order(// The e2e serve test pins this against the served alerts CSV.
    ) {
        let (events, view) = run_live(13, 6);
        let raised: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                MonitorEvent::AlertRaised { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(raised, (0..raised.len()).collect::<Vec<_>>());
        drop(view);
    }

    #[test]
    fn replayed_tap_emits_identical_sequence() {
        let (live, view) = run_live(17, 5);
        let (events, sink) = collecting_sink();
        let mut tap = MonitorTap::new(ReliabilityMonitor::new(MonitorConfig::rsc_default()), sink);
        replay_view(&view, &mut tap);
        let replayed = events.lock().unwrap().clone();
        assert_eq!(live, replayed);
    }
}
