//! The end-of-run monitor report: every streaming estimate plus the alert
//! log, in one comparable, exportable value.
//!
//! [`MonitorReport`] derives `PartialEq` so the agreement harness can
//! assert that a live run and a replayed cached run produce *identical*
//! reports. JSON export is built with [`rsc_telemetry::json`] (the
//! workspace carries no JSON dependency); non-finite floats serialize as
//! `null`.

use rsc_cluster::ids::NodeId;
use rsc_core::availability::AvailabilitySnapshot;
use rsc_core::lemon::LemonFeatures;
use rsc_core::mttf::MttfPoint;
use rsc_telemetry::json;

use crate::alerts::Alert;
use crate::estimators::{Counters, LogHistogram, RollingMttfEstimate};
use crate::monitor::ReliabilityMonitor;

/// Five-number summary of a [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean (kept outside the buckets).
    pub mean: f64,
    /// Approximate median (log-bucket midpoint, ~4.4% resolution).
    pub p50: f64,
    /// Approximate 90th percentile.
    pub p90: f64,
    /// Exact maximum.
    pub max: f64,
}

impl HistogramSummary {
    /// Summarizes a histogram; zero-valued when empty.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        HistogramSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5).unwrap_or(0.0),
            p90: h.quantile(0.9).unwrap_or(0.0),
            max: h.max(),
        }
    }
}

/// A node whose windowed lemon score is non-zero at report time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LemonSuspect {
    /// Node index.
    pub node: u32,
    /// Criteria met over the trailing lemon window.
    pub score: u32,
    /// Whether the score reaches the detector's flag threshold.
    pub flagged: bool,
}

/// Everything the monitor knows at one instant, typically end of run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Cluster name.
    pub cluster: String,
    /// Fleet size.
    pub num_nodes: u32,
    /// Report time (the horizon, after `Finish`), days.
    pub at_days: f64,
    /// Cumulative GPU swaps.
    pub gpu_swaps: u64,
    /// Exact event counters.
    pub counters: Counters,
    /// Cumulative per-job-size MTTF (the fold the batch analysis runs).
    pub mttf_points: Vec<MttfPoint>,
    /// Cumulative all-sizes MTTF, hours (infinite when no failures).
    pub overall_mttf_hours: f64,
    /// Rolling-window MTTF estimate, if the window holds any exposure.
    pub rolling_mttf: Option<RollingMttfEstimate>,
    /// Streaming status-only failure rate, failures per node-day.
    pub failure_rate_per_node_day: f64,
    /// Expected ETTR of the configured reference job at the streaming
    /// failure rate (paper Eq. 1), once exposure exists.
    pub expected_ettr: Option<f64>,
    /// Fleet availability and repair-time estimates.
    pub availability: AvailabilitySnapshot,
    /// Ground-truth failures injected (validation-side signal).
    pub failures_injected: u64,
    /// Injected failures matched to a detection.
    pub failures_detected: u64,
    /// Time-to-detect distribution, hours.
    pub time_to_detect_hours: HistogramSummary,
    /// Time-to-repair distribution, hours.
    pub time_to_repair_hours: HistogramSummary,
    /// Nodes with a non-zero windowed lemon score, highest first.
    pub lemon_suspects: Vec<LemonSuspect>,
    /// The full alert log, in raise order.
    pub alerts: Vec<Alert>,
}

impl MonitorReport {
    /// Snapshots `monitor` into a report.
    pub fn build(monitor: &ReliabilityMonitor) -> Self {
        let now = monitor.now();
        let detector = monitor.config().detector;
        // Nodes without in-window signal score as an all-zero row: they
        // are suspects only when that row scores.
        let rows = if detector.score(&LemonFeatures::new(NodeId::new(0))) > 0 {
            monitor.lemon_features()
        } else {
            monitor.lemon_signalled()
        };
        let mut lemon_suspects: Vec<LemonSuspect> = rows
            .iter()
            .map(|f| {
                let score = detector.score(f);
                LemonSuspect {
                    node: f.node.index(),
                    score,
                    flagged: score >= detector.min_criteria,
                }
            })
            .filter(|s| s.score > 0)
            .collect();
        lemon_suspects.sort_by(|a, b| b.score.cmp(&a.score).then(a.node.cmp(&b.node)));

        MonitorReport {
            cluster: monitor.cluster().to_string(),
            num_nodes: monitor.num_nodes(),
            at_days: now.as_days(),
            gpu_swaps: monitor.gpu_swaps(),
            counters: *monitor.counters(),
            mttf_points: monitor.mttf().points(),
            overall_mttf_hours: monitor.mttf().overall_mttf_hours(),
            rolling_mttf: monitor.rolling_mttf().estimate(),
            failure_rate_per_node_day: monitor.failure_rate().rate(),
            expected_ettr: monitor.expected_ettr(),
            availability: monitor.availability().snapshot(now),
            failures_injected: monitor.detection().injected(),
            failures_detected: monitor.detection().matched(),
            time_to_detect_hours: HistogramSummary::from_histogram(monitor.detection().histogram()),
            time_to_repair_hours: HistogramSummary::from_histogram(
                monitor.availability().ttr_histogram(),
            ),
            lemon_suspects,
            alerts: monitor.alerts().to_vec(),
        }
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let a = &self.availability;
        let rolling = json::opt(&self.rolling_mttf, |r| {
            json::Object::new()
                .field("failures", &r.failures.to_string())
                .field("exposure_hours", &json::f64(r.exposure_hours))
                .field("mttf_hours", &json::f64(r.mttf_hours))
                .field("ci90", &ci90_json(r.ci90))
                .finish()
        });
        json::Object::new()
            .field("cluster", &json::string(&self.cluster))
            .field("num_nodes", &self.num_nodes.to_string())
            .field("at_days", &json::f64(self.at_days))
            .field("gpu_swaps", &self.gpu_swaps.to_string())
            .field("counters", &counters_json(&self.counters))
            .field(
                "mttf_points",
                &json::array(self.mttf_points.iter().map(mttf_point_json)),
            )
            .field("overall_mttf_hours", &json::f64(self.overall_mttf_hours))
            .field("rolling_mttf", &rolling)
            .field(
                "failure_rate_per_node_day",
                &json::f64(self.failure_rate_per_node_day),
            )
            .field(
                "expected_ettr",
                &json::opt(&self.expected_ettr, |x| json::f64(*x)),
            )
            .field(
                "availability",
                &json::Object::new()
                    .field("fleet_availability", &json::f64(a.fleet_availability))
                    .field("mttr_hours", &json::f64(a.mttr_hours))
                    .field("mttr_p90_hours", &json::f64(a.mttr_p90_hours))
                    .field("lost_node_days", &json::f64(a.lost_node_days))
                    .field("completed_repairs", &a.completed_repairs.to_string())
                    .field("open_intervals", &a.open_intervals.to_string())
                    .finish(),
            )
            .field("failures_injected", &self.failures_injected.to_string())
            .field("failures_detected", &self.failures_detected.to_string())
            .field(
                "time_to_detect_hours",
                &histogram_json(&self.time_to_detect_hours),
            )
            .field(
                "time_to_repair_hours",
                &histogram_json(&self.time_to_repair_hours),
            )
            .field(
                "lemon_suspects",
                &json::array(self.lemon_suspects.iter().map(|s| {
                    json::Object::new()
                        .field("node", &s.node.to_string())
                        .field("score", &s.score.to_string())
                        .field("flagged", &s.flagged.to_string())
                        .finish()
                })),
            )
            .field(
                "alerts",
                &json::array(self.alerts.iter().map(Alert::to_json)),
            )
            .finish()
    }

    /// Compact human-readable lines, for terminal quickstarts.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!(
                "{}: {} nodes, {:.0} days, {} jobs ({} node-fail)",
                self.cluster,
                self.num_nodes,
                self.at_days,
                self.counters.jobs,
                self.counters.node_fail
            ),
            format!(
                "cumulative MTTF {:.1} h over {} failures; r_f {:.2e} /node-day",
                self.overall_mttf_hours,
                self.mttf_points.iter().map(|p| p.failures).sum::<u64>(),
                self.failure_rate_per_node_day
            ),
            format!(
                "fleet availability {:.4}; MTTR {:.1} h (p90 {:.1} h); {} repairs, {} GPU swaps",
                self.availability.fleet_availability,
                self.availability.mttr_hours,
                self.availability.mttr_p90_hours,
                self.availability.completed_repairs,
                self.gpu_swaps
            ),
            format!(
                "detection {}/{} matched; TTD mean {:.2} h p90 {:.2} h",
                self.failures_detected,
                self.failures_injected,
                self.time_to_detect_hours.mean,
                self.time_to_detect_hours.p90
            ),
        ];
        if let Some(ettr) = self.expected_ettr {
            lines.push(format!("expected ETTR of reference job: {ettr:.4}"));
        }
        lines.push(format!(
            "{} lemon suspects ({} flagged); {} alerts raised ({} active)",
            self.lemon_suspects.len(),
            self.lemon_suspects.iter().filter(|s| s.flagged).count(),
            self.alerts.len(),
            self.alerts.iter().filter(|a| a.is_active()).count()
        ));
        lines
    }
}

fn counters_json(c: &Counters) -> String {
    json::Object::new()
        .field("jobs", &c.jobs.to_string())
        .field("jobs_started", &c.jobs_started.to_string())
        .field("completed", &c.completed.to_string())
        .field("failed", &c.failed.to_string())
        .field("node_fail", &c.node_fail.to_string())
        .field("requeued", &c.requeued.to_string())
        .field("preempted", &c.preempted.to_string())
        .field("other", &c.other.to_string())
        .field("gpu_hours", &json::f64(c.gpu_hours))
        .field("health_events", &c.health_events.to_string())
        .field("false_positives", &c.false_positives.to_string())
        .field("node_events", &c.node_events.to_string())
        .field("quarantined", &c.quarantined.to_string())
        .field("exclusions", &c.exclusions.to_string())
        .field("ground_truth", &c.ground_truth.to_string())
        .field("ckpt_fallbacks", &c.ckpt_fallbacks.to_string())
        .field(
            "fallback_lost_gpu_hours",
            &json::f64(c.fallback_lost_gpu_hours),
        )
        .field("control_actions", &c.control_actions.to_string())
        .field("ticks", &c.ticks.to_string())
        .finish()
}

fn mttf_point_json(p: &MttfPoint) -> String {
    json::Object::new()
        .field("gpus", &p.gpus.to_string())
        .field("failures", &p.failures.to_string())
        .field("exposure_hours", &json::f64(p.exposure_hours))
        .field("mttf_hours", &json::f64(p.mttf_hours))
        .field("ci90", &ci90_json(p.ci90))
        .finish()
}

/// A 90% interval as a `[lo, hi]` pair, `null` when there is none.
fn ci90_json(ci90: Option<(f64, f64)>) -> String {
    json::opt(&ci90, |&(lo, hi)| {
        json::array([json::f64(lo), json::f64(hi)])
    })
}

fn histogram_json(h: &HistogramSummary) -> String {
    json::Object::new()
        .field("count", &h.count.to_string())
        .field("mean", &json::f64(h.mean))
        .field("p50", &json::f64(h.p50))
        .field("p90", &json::f64(h.p90))
        .field("max", &json::f64(h.max))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::AlertKey;
    use rsc_sim_core::time::SimTime;

    #[test]
    fn histogram_summary_of_empty_is_zero() {
        let h = LogHistogram::new();
        let s = HistogramSummary::from_histogram(&h);
        assert_eq!(s.count, 0);
        assert_eq!(s.p90, 0.0);
    }

    #[test]
    fn report_json_is_balanced() {
        let monitor = ReliabilityMonitor::new(crate::config::MonitorConfig::rsc_default());
        let json = monitor.report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.contains("\"cluster\":\"\""));
        assert!(json.contains("\"overall_mttf_hours\":null"));
    }

    fn alert(key: AlertKey, raised_day: u64, cleared_day: Option<u64>) -> Alert {
        Alert {
            key,
            raised_at: SimTime::from_days(raised_day),
            cleared_at: cleared_day.map(SimTime::from_days),
            value: 0.25,
            threshold: 0.5,
            message: "say \"hi\"".to_string(),
        }
    }

    /// A small fixed report covering every renderer: a `null` rolling
    /// MTTF, one `ci90` pair and one absent, an active and a cleared
    /// alert, and non-finite floats that render as `null`.
    fn fixed_report() -> MonitorReport {
        let counters = Counters {
            jobs: 7,
            jobs_started: 6,
            completed: 3,
            failed: 1,
            node_fail: 1,
            requeued: 1,
            gpu_hours: 12.5,
            ticks: 2,
            ..Counters::default()
        };
        let point = |gpus, failures, ci90| MttfPoint {
            gpus,
            failures,
            exposure_hours: 40.0,
            mttf_hours: if failures == 0 { f64::INFINITY } else { 20.0 },
            ci90,
        };
        MonitorReport {
            cluster: "RSC-\"x\"".to_string(),
            num_nodes: 16,
            at_days: 2.5,
            gpu_swaps: 1,
            counters,
            mttf_points: vec![point(8, 2, Some((10.0, 61.25))), point(64, 0, None)],
            overall_mttf_hours: f64::INFINITY,
            rolling_mttf: None,
            failure_rate_per_node_day: 0.0625,
            expected_ettr: Some(0.875),
            availability: AvailabilitySnapshot {
                fleet_availability: 0.99,
                mttr_hours: f64::NAN,
                mttr_p90_hours: 3.0,
                lost_node_days: 0.125,
                completed_repairs: 4,
                open_intervals: 1,
            },
            failures_injected: 3,
            failures_detected: 2,
            time_to_detect_hours: HistogramSummary {
                count: 2,
                mean: 1.5,
                p50: 1.0,
                p90: 2.0,
                max: 2.0,
            },
            time_to_repair_hours: HistogramSummary::from_histogram(&LogHistogram::new()),
            lemon_suspects: vec![LemonSuspect {
                node: 5,
                score: 3,
                flagged: true,
            }],
            alerts: vec![
                alert(AlertKey::LemonSuspect(NodeId::new(5)), 1, None),
                alert(AlertKey::MttfRegression, 1, Some(2)),
            ],
        }
    }

    /// The served analysis bodies and the benchmark's report digest are
    /// these bytes, so any change to them is a visible break.
    #[test]
    fn report_json_bytes_are_pinned() {
        let expected = concat!(
            r#"{"cluster":"RSC-\"x\"","num_nodes":16,"at_days":2.5,"gpu_swaps":1,"#,
            r#""counters":{"jobs":7,"jobs_started":6,"completed":3,"failed":1,"node_fail":1,"#,
            r#""requeued":1,"preempted":0,"other":0,"gpu_hours":12.5,"health_events":0,"#,
            r#""false_positives":0,"node_events":0,"quarantined":0,"exclusions":0,"#,
            r#""ground_truth":0,"ckpt_fallbacks":0,"fallback_lost_gpu_hours":0,"#,
            r#""control_actions":0,"ticks":2},"#,
            r#""mttf_points":[{"gpus":8,"failures":2,"exposure_hours":40,"mttf_hours":20,"#,
            r#""ci90":[10,61.25]},{"gpus":64,"failures":0,"exposure_hours":40,"#,
            r#""mttf_hours":null,"ci90":null}],"#,
            r#""overall_mttf_hours":null,"rolling_mttf":null,"#,
            r#""failure_rate_per_node_day":0.0625,"expected_ettr":0.875,"#,
            r#""availability":{"fleet_availability":0.99,"mttr_hours":null,"#,
            r#""mttr_p90_hours":3,"lost_node_days":0.125,"completed_repairs":4,"#,
            r#""open_intervals":1},"failures_injected":3,"failures_detected":2,"#,
            r#""time_to_detect_hours":{"count":2,"mean":1.5,"p50":1,"p90":2,"max":2},"#,
            r#""time_to_repair_hours":{"count":0,"mean":0,"p50":0,"p90":0,"max":0},"#,
            r#""lemon_suspects":[{"node":5,"score":3,"flagged":true}],"#,
            r#""alerts":[{"kind":"lemon_suspect","node":5,"raised_at_days":1,"#,
            r#""cleared_at_days":null,"value":0.25,"threshold":0.5,"message":"say \"hi\""},"#,
            r#"{"kind":"mttf_regression","node":null,"raised_at_days":1,"#,
            r#""cleared_at_days":2,"value":0.25,"threshold":0.5,"message":"say \"hi\""}]}"#,
        );
        assert_eq!(fixed_report().to_json(), expected);

        let mut report = fixed_report();
        let rolling = |ci90| RollingMttfEstimate {
            failures: 3,
            exposure_hours: 90.0,
            mttf_hours: 30.0,
            ci90,
        };
        report.rolling_mttf = Some(rolling(Some((15.5, f64::INFINITY))));
        report.expected_ettr = None;
        assert!(report.to_json().contains(concat!(
            r#""rolling_mttf":{"failures":3,"exposure_hours":90,"mttf_hours":30,"#,
            r#""ci90":[15.5,null]},"failure_rate_per_node_day":0.0625,"expected_ettr":null,"#,
        )));
        report.rolling_mttf = Some(rolling(None));
        assert!(report.to_json().contains(
            r#""rolling_mttf":{"failures":3,"exposure_hours":90,"mttf_hours":30,"ci90":null},"#
        ));
    }
}
