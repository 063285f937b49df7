//! Rendering [`MonitorEvent`]s as the JSON payloads of SSE frames.
//!
//! The rendering is a pure function of the event, so a replayed cache hit
//! and a live run — which produce identical `MonitorEvent` sequences (see
//! `rsc_monitor::tap`) — stream identical frames.

use rsc_monitor::tap::MonitorEvent;
use rsc_telemetry::store::ControlActionEvent;

use crate::json;

fn action_json(a: &ControlActionEvent) -> String {
    json::Object::new()
        .field("kind", &json::string(a.kind.label()))
        .field("trigger", &json::string(a.trigger.label()))
        .field("at_days", &json::f64(a.at.as_days()))
        .field("node", &json::opt(&a.node, |n| n.index().to_string()))
        .field("job", &json::opt(&a.job, |j| j.raw().to_string()))
        .field("accepted", if a.accepted { "true" } else { "false" })
        .field("value", &a.value.to_string())
        .finish()
}

/// Renders one monitor event as its SSE `data:` JSON payload. The frame's
/// `event:` name is [`MonitorEvent::label`].
pub fn monitor_event_json(event: &MonitorEvent) -> String {
    match event {
        MonitorEvent::AlertRaised { seq, alert } | MonitorEvent::AlertCleared { seq, alert } => {
            json::Object::new()
                .field("seq", &seq.to_string())
                .field("alert", &alert.to_json())
                .finish()
        }
        MonitorEvent::Action(a) => action_json(a),
        MonitorEvent::Estimate(t) => json::Object::new()
            .field("at_days", &json::f64(t.at_days))
            .field("overall_mttf_hours", &json::f64(t.overall_mttf_hours))
            .field(
                "failure_rate_per_node_day",
                &json::f64(t.failure_rate_per_node_day),
            )
            .field(
                "expected_ettr",
                &json::opt(&t.expected_ettr, |x| json::f64(*x)),
            )
            .field("fleet_availability", &json::f64(t.fleet_availability))
            .field("active_alerts", &t.active_alerts.to_string())
            .finish(),
        MonitorEvent::Finished { at_days } => json::Object::new()
            .field("at_days", &json::f64(*at_days))
            .finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_cluster::ids::{JobId, NodeId};
    use rsc_monitor::alerts::{Alert, AlertKey};
    use rsc_monitor::tap::EstimateTick;
    use rsc_sim_core::time::SimTime;
    use rsc_telemetry::store::{ControlActionKind, ControlTrigger};

    #[test]
    fn alert_payload_has_stable_shape() {
        let event = MonitorEvent::AlertRaised {
            seq: 2,
            alert: Alert {
                key: AlertKey::LemonSuspect(NodeId::new(9)),
                raised_at: SimTime::from_days(4),
                cleared_at: None,
                value: 3.0,
                threshold: 3.0,
                message: "m".to_string(),
            },
        };
        let body = monitor_event_json(&event);
        assert!(body.starts_with("{\"seq\":2,\"alert\":{\"kind\":\"lemon_suspect\",\"node\":9,"));
        assert!(body.contains("\"cleared_at_days\":null"));
        assert_eq!(event.label(), "alert");
    }

    #[test]
    fn payload_bytes_are_pinned_per_event_kind() {
        let alert = Alert {
            key: AlertKey::MttfRegression,
            raised_at: SimTime::from_days(3),
            cleared_at: Some(SimTime::from_hours(90)),
            value: 0.5,
            threshold: f64::INFINITY,
            message: "tab\there".to_string(),
        };
        let events = [
            MonitorEvent::AlertRaised {
                seq: 0,
                alert: Alert {
                    cleared_at: None,
                    ..alert.clone()
                },
            },
            MonitorEvent::AlertCleared { seq: 0, alert },
            MonitorEvent::Action(ControlActionEvent {
                at: SimTime::from_hours(36),
                kind: ControlActionKind::QuarantineNode,
                trigger: ControlTrigger::LemonSuspect,
                node: Some(NodeId::new(12)),
                job: None,
                accepted: false,
                value: 7,
            }),
            MonitorEvent::Action(ControlActionEvent {
                at: SimTime::from_days(2),
                kind: ControlActionKind::RetuneCheckpoint,
                trigger: ControlTrigger::Controller,
                node: None,
                job: Some(JobId::new(44)),
                accepted: true,
                value: 1800,
            }),
            MonitorEvent::Estimate(EstimateTick {
                at_days: 4.0,
                overall_mttf_hours: f64::INFINITY,
                failure_rate_per_node_day: 0.0125,
                expected_ettr: None,
                fleet_availability: 0.995,
                active_alerts: 1,
            }),
            MonitorEvent::Estimate(EstimateTick {
                at_days: 5.0,
                overall_mttf_hours: 120.5,
                failure_rate_per_node_day: 0.0125,
                expected_ettr: Some(0.93),
                fleet_availability: 0.995,
                active_alerts: 0,
            }),
            MonitorEvent::Finished { at_days: 7.0 },
        ];
        // An alert frame embeds the same object as the report's `alerts`
        // entries; live and replayed streams must keep these bytes.
        let expected = [
            concat!(
                r#"{"seq":0,"alert":{"kind":"mttf_regression","node":null,"raised_at_days":3,"#,
                r#""cleared_at_days":null,"value":0.5,"threshold":null,"message":"tab\there"}}"#,
            ),
            concat!(
                r#"{"seq":0,"alert":{"kind":"mttf_regression","node":null,"raised_at_days":3,"#,
                r#""cleared_at_days":3.75,"value":0.5,"threshold":null,"message":"tab\there"}}"#,
            ),
            concat!(
                r#"{"kind":"quarantine_node","trigger":"lemon_suspect","at_days":1.5,"#,
                r#""node":12,"job":null,"accepted":false,"value":7}"#,
            ),
            concat!(
                r#"{"kind":"retune_checkpoint","trigger":"controller","at_days":2,"#,
                r#""node":null,"job":44,"accepted":true,"value":1800}"#,
            ),
            concat!(
                r#"{"at_days":4,"overall_mttf_hours":null,"failure_rate_per_node_day":0.0125,"#,
                r#""expected_ettr":null,"fleet_availability":0.995,"active_alerts":1}"#,
            ),
            concat!(
                r#"{"at_days":5,"overall_mttf_hours":120.5,"failure_rate_per_node_day":0.0125,"#,
                r#""expected_ettr":0.93,"fleet_availability":0.995,"active_alerts":0}"#,
            ),
            r#"{"at_days":7}"#,
        ];
        for (event, expected) in events.iter().zip(expected) {
            assert_eq!(monitor_event_json(event), expected, "{}", event.label());
        }
    }
}
