//! The end-of-run monitor report: every streaming estimate plus the alert
//! log, in one comparable, exportable value.
//!
//! [`MonitorReport`] derives `PartialEq` so the agreement harness can
//! assert that a live run and a replayed cached run produce *identical*
//! reports. JSON export is hand-rolled (the workspace carries no JSON
//! dependency); non-finite floats serialize as `null`.

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
        let mut out = String::with_capacity(2048);
        out.push('{');
        push_field(&mut out, "cluster", &json::string(&self.cluster));
        push_field(&mut out, "num_nodes", &self.num_nodes.to_string());
        push_field(&mut out, "at_days", &json::f64(self.at_days));
        push_field(&mut out, "gpu_swaps", &self.gpu_swaps.to_string());
        push_field(&mut out, "counters", &counters_json(&self.counters));
        let points: Vec<String> = self.mttf_points.iter().map(mttf_point_json).collect();
        push_field(&mut out, "mttf_points", &format!("[{}]", points.join(",")));
        push_field(
            &mut out,
            "overall_mttf_hours",
            &json::f64(self.overall_mttf_hours),
        );
        let rolling = match &self.rolling_mttf {
            Some(r) => format!(
                "{{\"failures\":{},\"exposure_hours\":{},\"mttf_hours\":{},\"ci90\":{}}}",
                r.failures,
                json::f64(r.exposure_hours),
                json::f64(r.mttf_hours),
                match r.ci90 {
                    Some((lo, hi)) => format!("[{},{}]", json::f64(lo), json::f64(hi)),
                    None => "null".to_string(),
                }
            ),
            None => "null".to_string(),
        };
        push_field(&mut out, "rolling_mttf", &rolling);
        push_field(
            &mut out,
            "failure_rate_per_node_day",
            &json::f64(self.failure_rate_per_node_day),
        );
        push_field(
            &mut out,
            "expected_ettr",
            &self
                .expected_ettr
                .map(json::f64)
                .unwrap_or_else(|| "null".to_string()),
        );
        let a = &self.availability;
        push_field(
            &mut out,
            "availability",
            &format!(
                "{{\"fleet_availability\":{},\"mttr_hours\":{},\"mttr_p90_hours\":{},\"lost_node_days\":{},\"completed_repairs\":{},\"open_intervals\":{}}}",
                json::f64(a.fleet_availability),
                json::f64(a.mttr_hours),
                json::f64(a.mttr_p90_hours),
                json::f64(a.lost_node_days),
                a.completed_repairs,
                a.open_intervals
            ),
        );
        push_field(
            &mut out,
            "failures_injected",
            &self.failures_injected.to_string(),
        );
        push_field(
            &mut out,
            "failures_detected",
            &self.failures_detected.to_string(),
        );
        push_field(
            &mut out,
            "time_to_detect_hours",
            &histogram_json(&self.time_to_detect_hours),
        );
        push_field(
            &mut out,
            "time_to_repair_hours",
            &histogram_json(&self.time_to_repair_hours),
        );
        let suspects: Vec<String> = self
            .lemon_suspects
            .iter()
            .map(|s| {
                format!(
                    "{{\"node\":{},\"score\":{},\"flagged\":{}}}",
                    s.node, s.score, s.flagged
                )
            })
            .collect();
        push_field(
            &mut out,
            "lemon_suspects",
            &format!("[{}]", suspects.join(",")),
        );
        let alerts: Vec<String> = self.alerts.iter().map(alert_json).collect();
        push_field(&mut out, "alerts", &format!("[{}]", alerts.join(",")));
        // Drop the trailing comma push_field left behind.
        out.pop();
        out.push('}');
        out
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

fn push_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(value);
    out.push(',');
}

fn counters_json(c: &Counters) -> String {
    format!(
        "{{\"jobs\":{},\"jobs_started\":{},\"completed\":{},\"failed\":{},\"node_fail\":{},\"requeued\":{},\"preempted\":{},\"other\":{},\"gpu_hours\":{},\"health_events\":{},\"false_positives\":{},\"node_events\":{},\"quarantined\":{},\"exclusions\":{},\"ground_truth\":{},\"ckpt_fallbacks\":{},\"fallback_lost_gpu_hours\":{},\"control_actions\":{},\"ticks\":{}}}",
        c.jobs,
        c.jobs_started,
        c.completed,
        c.failed,
        c.node_fail,
        c.requeued,
        c.preempted,
        c.other,
        json::f64(c.gpu_hours),
        c.health_events,
        c.false_positives,
        c.node_events,
        c.quarantined,
        c.exclusions,
        c.ground_truth,
        c.ckpt_fallbacks,
        json::f64(c.fallback_lost_gpu_hours),
        c.control_actions,
        c.ticks
    )
}

fn mttf_point_json(p: &MttfPoint) -> String {
    format!(
        "{{\"gpus\":{},\"failures\":{},\"exposure_hours\":{},\"mttf_hours\":{},\"ci90\":{}}}",
        p.gpus,
        p.failures,
        json::f64(p.exposure_hours),
        json::f64(p.mttf_hours),
        match p.ci90 {
            Some((lo, hi)) => format!("[{},{}]", json::f64(lo), json::f64(hi)),
            None => "null".to_string(),
        }
    )
}

fn alert_json(a: &Alert) -> String {
    format!(
        "{{\"kind\":{},\"node\":{},\"raised_at_days\":{},\"cleared_at_days\":{},\"value\":{},\"threshold\":{},\"message\":{}}}",
        json::string(a.key.label()),
        a.key
            .node()
            .map(|n| n.index().to_string())
            .unwrap_or_else(|| "null".to_string()),
        json::f64(a.raised_at.as_days()),
        a.cleared_at
            .map(|t| json::f64(t.as_days()))
            .unwrap_or_else(|| "null".to_string()),
        json::f64(a.value),
        json::f64(a.threshold),
        json::string(&a.message)
    )
}

fn histogram_json(h: &HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"max\":{}}}",
        h.count,
        json::f64(h.mean),
        json::f64(h.p50),
        json::f64(h.p90),
        json::f64(h.max)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
