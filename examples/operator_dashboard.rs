//! Operator dashboard: one month of a simulated cluster condensed into the
//! health report an on-call infra engineer would want — the operational
//! counterpart of the paper's measurement methodology.
//!
//! Run with: `cargo run --release --example operator_dashboard`

use rsc_reliability::analysis::attribution::{
    cause_rates, completed_jobs_seeing_checks, AttributionConfig,
};
use rsc_reliability::analysis::availability::{fleet_availability, worst_nodes};
use rsc_reliability::analysis::cluster_goodput::{goodput_waterfall, utilization};
use rsc_reliability::analysis::fit::fit_failure_process;
use rsc_reliability::analysis::lemon::{compute_features, LemonDetector};
use rsc_reliability::analysis::queueing::{mean_wait_hours, wait_by_size_and_qos};
use rsc_reliability::sched::job::QosClass;
use rsc_reliability::sim::{ScenarioRunner, ScenarioSpec, SimConfig};
use rsc_reliability::simcore::time::{SimDuration, SimTime};

fn main() {
    let mut config = SimConfig::small_test_cluster();
    config.lemon_count = 3;
    let gpus_per_node = config.cluster.gpus_per_node();
    let store = ScenarioRunner::new().run_one(&ScenarioSpec::new(config, 2026, 30));
    let util = utilization(&store, gpus_per_node);

    println!(
        "=== cluster health report: {} (30 days) ===",
        store.cluster_name()
    );
    println!(
        "jobs: {}   utilization: {:.1}%",
        store.jobs().len(),
        util * 100.0
    );

    // Goodput waterfall.
    let w = goodput_waterfall(
        &store,
        gpus_per_node,
        SimDuration::from_mins(60),
        SimDuration::from_mins(5),
    );
    let (p, r, l, i) = w.fractions();
    println!("\n-- goodput waterfall (fraction of capacity) --");
    println!(
        "  productive {:.1}% | restart {:.2}% | replay {:.2}% | idle {:.1}%",
        p * 100.0,
        r * 100.0,
        l * 100.0,
        i * 100.0
    );

    // Fleet availability.
    let fleet = fleet_availability(&store);
    println!("\n-- availability --");
    println!(
        "  fleet availability {:.3}%, MTTR {:.1} h (p90 {:.1} h), {:.1} node-days lost",
        fleet.fleet_availability * 100.0,
        fleet.mttr_hours,
        fleet.mttr_p90_hours,
        fleet.lost_node_days
    );
    println!("  worst nodes:");
    for a in worst_nodes(&fleet, 3) {
        println!(
            "    {}: {} repairs, {:.1} h down",
            a.node,
            a.repairs,
            a.downtime.as_hours()
        );
    }

    // Failure causes + process character.
    let rates = cause_rates(&store, &AttributionConfig::paper_default());
    println!("\n-- top failure causes (per GPU-hour) --");
    for (cause, rate) in rates.rates.iter().take(4) {
        println!(
            "    {:<16} {rate:.2e}",
            cause.map(|c| c.label()).unwrap_or("unattributed")
        );
    }
    if let Some(fit) = fit_failure_process(&store, 20) {
        let verdict = if fit.shape < 0.85 {
            "bursty — look for shared causes"
        } else if fit.shape > 1.15 {
            "suspiciously regular"
        } else {
            "Poisson-like, 1/N projections apply"
        };
        println!(
            "  failure process: Weibull shape {:.2} over {} gaps ({verdict})",
            fit.shape, fit.samples
        );
    }

    // Check calibration.
    let calib = completed_jobs_seeing_checks(&store);
    println!("\n-- health-check calibration --");
    println!(
        "  {:.2}% of completed jobs saw a failed check (target: <1%)",
        calib * 100.0
    );

    // Queueing.
    println!("\n-- queueing --");
    println!("  mean wait overall: {:.2} h", mean_wait_hours(&store));
    for b in wait_by_size_and_qos(&store) {
        if b.qos == QosClass::High && b.count >= 5 {
            println!(
                "  high-QoS {:>4}+ GPUs: {:.2} h mean over {} starts",
                b.gpus_lo, b.mean_wait_hours, b.count
            );
        }
    }

    // Lemon candidates.
    let features = compute_features(&store, SimTime::ZERO, store.horizon());
    let detector = LemonDetector::rsc_default();
    let flagged = detector.detect(&features);
    println!("\n-- lemon candidates --");
    if flagged.is_empty() {
        println!("  none flagged this window");
    }
    for node in &flagged {
        let f = &features[node.as_usize()];
        println!(
            "  {} (tickets {}, out {}, multi-node fails {}, xids {})",
            node, f.tickets, f.out_count, f.multi_node_node_fails, f.xid_cnt
        );
    }
    println!("\n(every number above computes from the same JobRecord/HealthEvent/");
    println!(" NodeEvent streams a production Slurm cluster already has)");
}
