//! Live monitor: attach the streaming reliability monitor to a month-long
//! simulated run and read the cluster's health off the event bus — no
//! sealed telemetry, no batch pass. Prints the alert timeline the on-call
//! channel would have seen, then the end-of-run monitor summary.
//!
//! Run with: `cargo run --release --example live_monitor`

use rsc_reliability::monitor::config::MonitorConfig;
use rsc_reliability::monitor::monitor::ReliabilityMonitor;
use rsc_reliability::sim::bus::SharedObserver;
use rsc_reliability::sim::{ClusterSim, SimConfig};
use rsc_reliability::simcore::time::SimDuration;

fn main() {
    // A small cluster with a few seeded lemons so the alert pipeline has
    // something to find.
    let mut config = SimConfig::small_test_cluster();
    config.lemon_count = 3;

    let handle = SharedObserver::new(ReliabilityMonitor::new(MonitorConfig::rsc_default()));
    let mut sim = ClusterSim::new(config, 2026);
    sim.attach_observer(Box::new(handle.clone()));
    sim.run(SimDuration::from_days(30));
    drop(sim); // release the simulator's clone of the handle

    let monitor = handle.try_into_inner().expect("sole handle");
    let report = monitor.report();

    println!(
        "=== live monitor: {} ({} nodes, 30 days) ===",
        report.cluster, report.num_nodes
    );

    println!("\n-- alert timeline --");
    if report.alerts.is_empty() {
        println!("  (no alerts raised)");
    }
    for alert in &report.alerts {
        let node = alert
            .key
            .node()
            .map(|n| format!(" {n}"))
            .unwrap_or_default();
        let cleared = match alert.cleared_at {
            Some(at) => format!("cleared day {:.1}", at.as_days()),
            None => "still active".to_string(),
        };
        println!(
            "  day {:>5.1}  {:<16}{node}  {} ({})",
            alert.raised_at.as_days(),
            alert.key.label(),
            alert.message,
            cleared
        );
    }

    println!("\n-- end-of-run summary --");
    for line in report.summary_lines() {
        println!("  {line}");
    }

    println!("\n(the same numbers stream from a cache replay: see");
    println!(" rsc_reliability::monitor::replay::replay_view)");
}
