//! Ablation: health-check sweep period.
//!
//! The clusters run checks every five minutes (§II-A). Longer periods
//! delay detection, letting faulty nodes linger and first-line defenses
//! erode; shorter periods buy little once detection beats the job-restart
//! timescale.

use rsc_core::attribution::AttributionConfig;
use rsc_core::goodput::goodput_loss;
use rsc_sim::config::SimConfig;
use rsc_sim::driver::ClusterSim;
use rsc_sim_core::time::SimDuration;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Ablation",
        "Health-check period sweep (paper default: 5 minutes)",
        "RSC-1 at 1/8 scale, 90 simulated days per point",
    );
    println!(
        "\n{:>10} {:>16} {:>20} {:>18}",
        "period", "health events", "goodput loss (GPU-h)", "mean utilization"
    );
    println!("{}", "-".repeat(70));
    let mut rows = Vec::new();
    for period_mins in [1u64, 5, 15, 60] {
        let mut config = SimConfig::rsc1().scaled_down(8);
        config.registry = config
            .registry
            .with_period(SimDuration::from_mins(period_mins));
        let mut sim = ClusterSim::new(config, rsc_bench::FIGURE_SEED);
        sim.run(SimDuration::from_days(90));
        let util = sim.mean_utilization();
        let store = sim.into_telemetry().seal();
        let events = store.health_events().len();
        let loss = goodput_loss(&store, &AttributionConfig::paper_default());
        let total = loss.total_failure_loss + loss.total_preemption_loss;
        println!(
            "{:>7}min {:>16} {:>20.0} {:>17.1}%",
            period_mins,
            events,
            total,
            util * 100.0
        );
        rows.push(vec![
            period_mins.to_string(),
            events.to_string(),
            format!("{total:.1}"),
            format!("{util:.4}"),
        ]);
    }
    println!("\n(the curve is flat: detection latency is tiny next to repair times");
    println!(" and job lengths, so the 5-minute default costs nothing — the paper's");
    println!(" motivation for the period is responsiveness of *removal*, which even");
    println!(" hour-granularity sweeps largely preserve at these failure rates)");
    rsc_bench::save_csv(
        "ablation_check_period.csv",
        &[
            "period_mins",
            "health_events",
            "goodput_loss_gpu_hours",
            "utilization",
        ],
        rows,
    );
}
