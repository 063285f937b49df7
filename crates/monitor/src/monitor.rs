//! The [`ReliabilityMonitor`]: one [`SimObserver`] owning every streaming
//! estimator plus the alert engine.
//!
//! Attach it to a simulation (live) or drive it from a sealed view
//! ([`crate::replay::replay_view`]) — both paths deliver the identical
//! event sequence, so the end state is the same either way.

use rsc_cluster::ids::NodeId;
use rsc_core::lemon::{with_zero_rows, LemonFeatures, WindowedLemon};
use rsc_core::mttf::StreamingFailureRate;
use rsc_sim::bus::{SimEvent, SimObserver};
use rsc_sim_core::time::SimTime;

use crate::alerts::{Alert, AlertEngine, AlertKey, AlertSignal};
use crate::config::MonitorConfig;
use crate::estimators::{
    Counters, DetectionLatency, RollingMttf, StreamingAvailability, StreamingMttf,
};
use crate::report::MonitorReport;

/// The streaming reliability monitor.
///
/// Per-event work is O(1) amortized; windowed re-evaluation (lemon
/// features, alert conditions) happens on daily ticks and scales with the
/// nodes holding in-window signal plus the active alerts, not with fleet
/// size. Memory is bounded by the configured windows plus per-node state.
#[derive(Debug)]
pub struct ReliabilityMonitor {
    config: MonitorConfig,
    cluster: String,
    num_nodes: u32,
    now: SimTime,
    horizon: Option<SimTime>,
    gpu_swaps: u64,
    counters: Counters,
    mttf: StreamingMttf,
    rolling: RollingMttf,
    rate: StreamingFailureRate,
    availability: StreamingAvailability,
    detection: DetectionLatency,
    lemon: WindowedLemon,
    quarantines: std::collections::VecDeque<SimTime>,
    alerts: AlertEngine,
}

impl ReliabilityMonitor {
    /// A monitor with the given configuration. Fleet-sized state is
    /// allocated when [`SimEvent::Start`] arrives.
    pub fn new(config: MonitorConfig) -> Self {
        let rolling = RollingMttf::new(config.mttf_window);
        let alerts =
            AlertEngine::with_cooldowns(config.alerts.debounce, config.alerts.reraise_cooldown);
        let rate = StreamingFailureRate::new(config.min_gpus);
        let lemon = WindowedLemon::new(0, config.lemon_window);
        ReliabilityMonitor {
            config,
            cluster: String::new(),
            num_nodes: 0,
            now: SimTime::ZERO,
            horizon: None,
            gpu_swaps: 0,
            counters: Counters::default(),
            mttf: StreamingMttf::new(),
            rolling,
            rate,
            availability: StreamingAvailability::new(0),
            detection: DetectionLatency::new(),
            lemon,
            quarantines: std::collections::VecDeque::new(),
            alerts,
        }
    }

    /// The configuration this monitor runs with.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Latest simulated time observed.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's horizon, once [`SimEvent::Finish`] has arrived.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Exact event counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The cumulative per-bucket MTTF estimator.
    pub fn mttf(&self) -> &StreamingMttf {
        &self.mttf
    }

    /// The rolling-window MTTF estimator.
    pub fn rolling_mttf(&self) -> &RollingMttf {
        &self.rolling
    }

    /// The streaming status-only failure-rate estimator.
    pub fn failure_rate(&self) -> &StreamingFailureRate {
        &self.rate
    }

    /// The streaming availability estimator.
    pub fn availability(&self) -> &StreamingAvailability {
        &self.availability
    }

    /// The ground-truth detection-latency matcher.
    pub fn detection(&self) -> &DetectionLatency {
        &self.detection
    }

    /// Current windowed lemon features (trailing `lemon_window` at the
    /// latest observed time), one row per node.
    pub fn lemon_features(&self) -> Vec<LemonFeatures> {
        self.lemon.features(self.now)
    }

    /// Current windowed lemon features of the nodes with in-window signal,
    /// ascending by node; every other node's features are all zero.
    pub(crate) fn lemon_signalled(&self) -> Vec<LemonFeatures> {
        self.lemon.signalled(self.now)
    }

    /// Every alert raised so far.
    pub fn alerts(&self) -> &[Alert] {
        self.alerts.log()
    }

    /// The continuously re-evaluated expected ETTR of the configured
    /// reference job at the current streaming failure rate (paper Eq. 1).
    /// `None` until some failure-rate exposure exists.
    pub fn expected_ettr(&self) -> Option<f64> {
        if self.rate.node_days() <= 0.0 {
            return None;
        }
        Some(rsc_core::ettr::analytical::expected_ettr(
            &self.config.ref_job.params(self.rate.rate()),
        ))
    }

    /// Builds the end-of-run (or point-in-time) report.
    pub fn report(&self) -> MonitorReport {
        MonitorReport::build(self)
    }

    fn evaluate_alerts(&mut self, now: SimTime) {
        let policy = self.config.alerts;
        let detector = self.config.detector;

        // Lemon suspects: raise at the detector threshold, clear only when
        // the score falls `lemon_clear_margin` below it. A node without
        // in-window signal scores as an all-zero row, whose signal is a
        // no-op on a key without an active alert — unless it raises, so
        // only the signalled nodes and the active suspects need a visit,
        // or every node when a zero row meets the threshold.
        let signalled = self.lemon.signalled(now);
        let zero_raises =
            detector.score(&LemonFeatures::new(NodeId::new(0))) >= detector.min_criteria;
        let features = if zero_raises {
            with_zero_rows(signalled, 0..self.num_nodes)
        } else {
            let mut suspects: Vec<u32> = self
                .alerts
                .active()
                .filter_map(|a| match a.key {
                    AlertKey::LemonSuspect(node) => Some(node.index()),
                    _ => None,
                })
                .collect();
            suspects.sort_unstable();
            with_zero_rows(signalled, suspects)
        };
        for f in &features {
            let score = detector.score(f);
            let signal = if score >= detector.min_criteria {
                AlertSignal::Raise {
                    value: score as f64,
                    threshold: detector.min_criteria as f64,
                    message: format!(
                        "node {} meets {score} lemon criteria over the trailing window",
                        f.node.index()
                    ),
                }
            } else if score + policy.lemon_clear_margin < detector.min_criteria {
                AlertSignal::Clear
            } else {
                AlertSignal::Hold
            };
            self.alerts
                .evaluate(now, AlertKey::LemonSuspect(f.node), signal);
        }

        // MTTF regression: the rolling window's upper confidence bound
        // sits below a fraction of the cumulative MTTF.
        let cumulative = self.mttf.overall_mttf_hours();
        if cumulative.is_finite() {
            let signal = match self.rolling.estimate() {
                Some(est) if est.failures >= policy.min_rolling_failures => {
                    let upper = est.ci90.map(|(_, hi)| hi).unwrap_or(f64::INFINITY);
                    if upper < policy.mttf_raise_ratio * cumulative {
                        AlertSignal::Raise {
                            value: est.mttf_hours,
                            threshold: policy.mttf_raise_ratio * cumulative,
                            message: format!(
                                "rolling MTTF {:.1} h (90% CI upper {:.1} h) below {:.0}% of cumulative {:.1} h",
                                est.mttf_hours,
                                upper,
                                policy.mttf_raise_ratio * 100.0,
                                cumulative
                            ),
                        }
                    } else if est.mttf_hours >= policy.mttf_clear_ratio * cumulative {
                        AlertSignal::Clear
                    } else {
                        AlertSignal::Hold
                    }
                }
                // Too little windowed data to judge either way.
                _ => AlertSignal::Hold,
            };
            self.alerts.evaluate(now, AlertKey::MttfRegression, signal);
        }

        // Quarantine surge over the trailing window.
        let quarantined = self.quarantines.len() as u32;
        let signal = if quarantined >= policy.quarantine_raise {
            AlertSignal::Raise {
                value: quarantined as f64,
                threshold: policy.quarantine_raise as f64,
                message: format!("{quarantined} nodes quarantined within the trailing window"),
            }
        } else if quarantined <= policy.quarantine_clear {
            AlertSignal::Clear
        } else {
            AlertSignal::Hold
        };
        self.alerts.evaluate(now, AlertKey::QuarantineSurge, signal);
    }

    fn on_tick(&mut self, now: SimTime, finished: bool) {
        self.now = now;
        self.lemon.resolve(now, finished);
        self.lemon.evict(now);
        self.rolling.evict(now);
        while let Some(&t) = self.quarantines.front() {
            if now.saturating_since(t) <= self.config.quarantine_window {
                break;
            }
            self.quarantines.pop_front();
        }
        self.evaluate_alerts(now);
    }
}

impl SimObserver for ReliabilityMonitor {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match event {
            SimEvent::Start { cluster, num_nodes } => {
                self.cluster = cluster.to_string();
                self.num_nodes = *num_nodes;
                self.availability = StreamingAvailability::new(*num_nodes);
                self.lemon = WindowedLemon::new(*num_nodes, self.config.lemon_window);
            }
            SimEvent::Job(r) => {
                self.counters.observe_job(r);
                self.mttf.observe(r);
                self.rolling.observe(r);
                self.rate.observe(r);
                self.lemon.observe_job(r);
                if r.ended_at > self.now {
                    self.now = r.ended_at;
                }
            }
            SimEvent::Health(e) => {
                self.counters.health_events += 1;
                if e.false_positive {
                    self.counters.false_positives += 1;
                } else {
                    self.detection.observe_detection(e.node, e.at);
                }
                self.lemon.observe_health(e);
                self.now = e.at;
            }
            SimEvent::Node(e) => {
                self.counters.node_events += 1;
                if e.kind == rsc_telemetry::store::NodeEventKind::Quarantined {
                    self.counters.quarantined += 1;
                    self.quarantines.push_back(e.at);
                }
                self.availability.observe(e);
                self.lemon.observe_node_event(e);
                self.now = e.at;
            }
            SimEvent::Exclusion(e) => {
                self.counters.exclusions += 1;
                self.lemon.observe_exclusion(e);
                self.now = e.at;
            }
            SimEvent::GroundTruth(e) => {
                self.counters.ground_truth += 1;
                self.detection.observe_ground_truth(e.node, e.at);
                self.now = e.at;
            }
            SimEvent::CkptFallback(e) => {
                self.counters.ckpt_fallbacks += 1;
                self.counters.fallback_lost_gpu_hours += e.lost.as_hours() * e.gpus as f64;
                self.now = e.at;
            }
            SimEvent::ControlAction(e) => {
                self.counters.control_actions += 1;
                self.now = e.at;
            }
            SimEvent::Tick { now } => {
                self.counters.ticks += 1;
                self.on_tick(*now, false);
            }
            SimEvent::Finish { horizon, gpu_swaps } => {
                self.gpu_swaps = *gpu_swaps;
                self.horizon = Some(*horizon);
                self.on_tick(*horizon, true);
            }
        }
    }
}

/// Cluster metadata captured from [`SimEvent::Start`].
impl ReliabilityMonitor {
    /// Cluster name (empty before `Start`).
    pub fn cluster(&self) -> &str {
        &self.cluster
    }

    /// Fleet size (0 before `Start`).
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Cumulative GPU swaps reported at `Finish`.
    pub fn gpu_swaps(&self) -> u64 {
        self.gpu_swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_sim::bus::SharedObserver;
    use rsc_sim::config::SimConfig;
    use rsc_sim::driver::ClusterSim;
    use rsc_sim_core::time::SimDuration;

    #[test]
    fn live_run_populates_every_estimator() {
        let cfg = MonitorConfig::rsc_default();
        let handle = SharedObserver::new(ReliabilityMonitor::new(cfg));
        let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 11);
        sim.attach_observer(Box::new(handle.clone()));
        sim.run(SimDuration::from_days(5));
        handle.with(|m| {
            assert_eq!(m.cluster(), "test-64");
            assert_eq!(m.num_nodes(), 64);
            assert!(m.counters().jobs > 0);
            assert_eq!(m.counters().ticks, 4);
            assert!(m.mttf().total_failures() > 0 || m.counters().jobs > 0);
            assert!(m.expected_ettr().is_some());
        });
    }

    #[test]
    fn stale_suspect_clears_after_its_signal_ages_out() {
        // A one-day lemon window and a three-day debounce: the node's
        // signal leaves the window a tick after the raise, but the clear
        // must wait for the debounce — and then land even though nothing
        // on the node is left to look at.
        let mut cfg = MonitorConfig::rsc_default();
        cfg.lemon_window = SimDuration::from_days(1);
        cfg.alerts.debounce = SimDuration::from_days(3);
        let mut m = ReliabilityMonitor::new(cfg);
        m.on_event(&SimEvent::Start {
            cluster: "stale",
            num_nodes: 8,
        });
        // Four remediation entries: 4 tickets and out-count 4 meet two criteria.
        for h in 1..5 {
            m.on_event(&SimEvent::Node(&rsc_telemetry::store::NodeEvent {
                node: NodeId::new(5),
                at: SimTime::from_hours(h),
                kind: rsc_telemetry::store::NodeEventKind::EnterRemediation,
            }));
        }
        let suspect = AlertKey::LemonSuspect(NodeId::new(5));
        m.on_event(&SimEvent::Tick {
            now: SimTime::from_days(1),
        });
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].key, suspect);
        for day in 2..4 {
            m.on_event(&SimEvent::Tick {
                now: SimTime::from_days(day),
            });
            assert!(m.lemon_signalled().is_empty(), "signal aged out by day 2");
            assert!(m.alerts()[0].is_active(), "debounced on day {day}");
        }
        m.on_event(&SimEvent::Tick {
            now: SimTime::from_days(4),
        });
        assert!(m.lemon_signalled().is_empty());
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].cleared_at, Some(SimTime::from_days(4)));
        assert!(m.report().lemon_suspects.is_empty());
    }

    #[test]
    fn finish_is_idempotent() {
        // `ClusterSim::run` and `into_telemetry` both emit Finish; the
        // monitor must absorb the duplicate without changing state.
        let cfg = MonitorConfig::rsc_default();
        let handle = SharedObserver::new(ReliabilityMonitor::new(cfg));
        let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 12);
        sim.attach_observer(Box::new(handle.clone()));
        sim.run(SimDuration::from_days(3));
        let first = handle.with(|m| m.report());
        let _ = sim.into_telemetry().seal();
        let second = handle.with(|m| m.report());
        assert_eq!(first, second);
    }
}
