//! Quickstart: simulate a small research cluster for a week and compute
//! the paper's headline reliability numbers from its telemetry.
//!
//! Run with: `cargo run --release --example quickstart`

use rsc_reliability::analysis::attribution::{cause_rates, AttributionConfig};
use rsc_reliability::analysis::cluster_goodput::utilization;
use rsc_reliability::analysis::mttf::{estimate_node_failure_rate, MttfProjection};
use rsc_reliability::analysis::report::status_breakdown;
use rsc_reliability::sim::{ScenarioRunner, ScenarioSpec, SimConfig};

fn main() {
    // A 64-node (512 GPU) cluster with RSC-1-like failure behaviour.
    let config = SimConfig::small_test_cluster();
    println!(
        "simulating {} ({} GPUs) for 28 days...",
        config.cluster.name(),
        config.cluster.total_gpus()
    );
    let spec = ScenarioSpec::new(config, 42, 28);
    let telemetry = ScenarioRunner::new().run_one(&spec); // simulated, or loaded from cache
    let util = utilization(&telemetry, spec.config.cluster.gpus_per_node());
    println!("mean utilization: {:.1}%", util * 100.0);

    println!("\njob records: {}", telemetry.jobs().len());
    println!("health events: {}", telemetry.health_events().len());
    println!(
        "injected failures (ground truth): {}",
        telemetry.ground_truth_failures().len()
    );

    println!("\nscheduler status breakdown:");
    for share in status_breakdown(&telemetry) {
        if share.job_fraction > 0.0 {
            println!(
                "  {:<14} {:>6.2}% of jobs, {:>6.2}% of GPU time",
                share.status.label(),
                share.job_fraction * 100.0,
                share.gpu_time_fraction * 100.0
            );
        }
    }

    let attribution = AttributionConfig::paper_default();
    let rates = cause_rates(&telemetry, &attribution);
    println!("\ntop attributed failure causes (per GPU-hour):");
    for (cause, rate) in rates.rates.iter().take(5) {
        let label = cause.map(|c| c.label()).unwrap_or("unattributed");
        println!("  {label:<16} {rate:.2e}");
    }

    // Small clusters see few large-job failures in a week; fall back to the
    // paper's published rate when the estimate is empty.
    let r_f = estimate_node_failure_rate(&telemetry, &attribution, 8);
    let r_f = if r_f > 0.0 { r_f } else { 6.5e-3 };
    let projection = MttfProjection::new(r_f);
    println!(
        "\nnode failure rate: {:.2} per 1000 node-days",
        r_f * 1000.0
    );
    println!("projected MTTF if this cluster ran one giant job:");
    for gpus in [512u32, 4096, 16_384] {
        println!("  {gpus:>6} GPUs -> {:>7.1} h", projection.mttf_hours(gpus));
    }
}
