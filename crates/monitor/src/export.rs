//! CSV rows of monitor output, for [`rsc_telemetry::csv`]'s RFC-4180
//! writers.

use rsc_telemetry::store::ControlActionEvent;

use crate::alerts::Alert;

/// Column header of the alert-stream CSV.
pub const ALERTS_CSV_HEADER: [&str; 7] = [
    "kind",
    "node",
    "raised_at_days",
    "cleared_at_days",
    "value",
    "threshold",
    "message",
];

/// Renders the alert log as CSV rows matching [`ALERTS_CSV_HEADER`].
/// Still-active alerts leave `cleared_at_days` empty.
pub fn alerts_rows(alerts: &[Alert]) -> Vec<Vec<String>> {
    alerts
        .iter()
        .map(|a| {
            vec![
                a.key.label().to_string(),
                a.key
                    .node()
                    .map(|n| n.index().to_string())
                    .unwrap_or_default(),
                format!("{:.6}", a.raised_at.as_days()),
                a.cleared_at
                    .map(|t| format!("{:.6}", t.as_days()))
                    .unwrap_or_default(),
                format!("{}", a.value),
                format!("{}", a.threshold),
                a.message.clone(),
            ]
        })
        .collect()
}

/// Column header of the control-action-stream CSV.
pub const ACTIONS_CSV_HEADER: [&str; 7] = [
    "kind", "trigger", "at_days", "node", "job", "accepted", "value",
];

/// Renders a control-action log as CSV rows matching
/// [`ACTIONS_CSV_HEADER`]. Fleet-wide actions leave `node` empty;
/// actions without a job target leave `job` empty.
pub fn actions_rows(actions: &[ControlActionEvent]) -> Vec<Vec<String>> {
    actions
        .iter()
        .map(|a| {
            vec![
                a.kind.label().to_string(),
                a.trigger.label().to_string(),
                format!("{:.6}", a.at.as_days()),
                a.node.map(|n| n.index().to_string()).unwrap_or_default(),
                a.job.map(|j| j.raw().to_string()).unwrap_or_default(),
                if a.accepted { "1" } else { "0" }.to_string(),
                a.value.to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alerts::AlertKey;
    use rsc_cluster::ids::NodeId;
    use rsc_sim_core::time::SimTime;

    fn sample_alert() -> Alert {
        Alert {
            key: AlertKey::LemonSuspect(NodeId::new(7)),
            raised_at: SimTime::from_days(3),
            cleared_at: None,
            value: 4.0,
            threshold: 3.0,
            message: "node 7, with a \"comma, test\"".to_string(),
        }
    }

    #[test]
    fn rows_match_header_width() {
        let rows = alerts_rows(&[sample_alert()]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), ALERTS_CSV_HEADER.len());
        assert_eq!(rows[0][0], "lemon_suspect");
        assert_eq!(rows[0][1], "7");
        assert_eq!(rows[0][3], ""); // still active
    }

    #[test]
    fn action_rows_match_header_width() {
        use rsc_telemetry::store::{ControlActionKind, ControlTrigger};
        let action = ControlActionEvent {
            at: SimTime::from_days(2),
            kind: ControlActionKind::QuarantineNode,
            trigger: ControlTrigger::LemonSuspect,
            node: Some(NodeId::new(3)),
            job: None,
            accepted: false,
            value: 0,
        };
        let rows = actions_rows(&[action]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), ACTIONS_CSV_HEADER.len());
        assert_eq!(rows[0][0], "quarantine_node");
        assert_eq!(rows[0][1], "lemon_suspect");
        assert_eq!(rows[0][3], "3");
        assert_eq!(rows[0][4], ""); // no job target
        assert_eq!(rows[0][5], "0"); // budget-rejected
    }

    #[test]
    fn csv_body_quotes_embedded_commas() {
        let mut body = Vec::new();
        rsc_telemetry::csv::write_csv(
            &mut body,
            &ALERTS_CSV_HEADER,
            alerts_rows(&[sample_alert()]),
        )
        .expect("write csv");
        let body = String::from_utf8(body).expect("utf-8 csv");
        let mut lines = body.lines();
        assert_eq!(lines.next().expect("header").split(',').count(), 7);
        // The embedded comma is quoted, not splitting the row count.
        assert!(body.contains("\"node 7, with a \"\"comma, test\"\"\""));
    }
}
