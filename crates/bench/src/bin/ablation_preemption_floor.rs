//! Ablation: the two-hour preemption floor.
//!
//! "To help ensure even the lowest priority jobs are able to make
//! progress, preemptions can only occur after two hours of runtime"
//! (paper §III). This sweep shows the trade the floor makes: low-QoS
//! progress protection against high-QoS wait.

use rsc_core::queueing::wait_by_size_and_qos;
use rsc_core::report::status_breakdown;
use rsc_sched::job::{JobStatus, QosClass};
use rsc_sim::config::SimConfig;
use rsc_sim::driver::ClusterSim;
use rsc_sim_core::time::SimDuration;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Ablation",
        "Preemption floor sweep (paper default: 2 hours)",
        "RSC-1 at 1/8 scale, 90 simulated days per point",
    );
    println!(
        "\n{:>8} {:>12} {:>16} {:>20} {:>18}",
        "floor", "% preempted", "low-QoS runtime", "high-QoS mean wait", "mean utilization"
    );
    println!("{}", "-".repeat(80));
    let mut rows = Vec::new();
    for floor_mins in [0u64, 30, 120, 480] {
        let mut config = SimConfig::rsc1().scaled_down(8);
        config.sched.preemption_floor = SimDuration::from_mins(floor_mins);
        let mut sim = ClusterSim::new(config, rsc_bench::FIGURE_SEED);
        sim.run(SimDuration::from_days(90));
        let util = sim.mean_utilization();
        let store = sim.into_telemetry().seal();

        let shares = status_breakdown(&store);
        let preempted = shares
            .iter()
            .find(|s| s.status == JobStatus::Preempted)
            .map(|s| s.job_fraction)
            .unwrap_or(0.0);
        // Low-QoS productive share: completed low-QoS runtime fraction.
        let low_runtime: f64 = store
            .jobs()
            .iter()
            .filter(|r| r.qos == QosClass::Low && r.status == JobStatus::Completed)
            .map(|r| r.gpu_time().as_hours())
            .sum();
        let high_wait = wait_by_size_and_qos(&store)
            .iter()
            .filter(|b| b.qos == QosClass::High)
            .map(|b| b.mean_wait_hours * b.count as f64)
            .sum::<f64>()
            / wait_by_size_and_qos(&store)
                .iter()
                .filter(|b| b.qos == QosClass::High)
                .map(|b| b.count as f64)
                .sum::<f64>()
                .max(1.0);
        println!(
            "{:>5}min {:>12} {:>13.2e} h {:>18.3} h {:>17.1}%",
            floor_mins,
            rsc_bench::pct(preempted),
            low_runtime,
            high_wait,
            util * 100.0
        );
        rows.push(vec![
            floor_mins.to_string(),
            format!("{preempted:.5}"),
            format!("{low_runtime:.1}"),
            format!("{high_wait:.4}"),
            format!("{util:.4}"),
        ]);
    }
    println!("\n(reading: no floor maximizes high-QoS responsiveness but churns");
    println!(" low-QoS work; very long floors make preemption useless. The 2-hour");
    println!(" default keeps preempted-job share near the paper's ~10% while");
    println!(" letting the lowest tier finish real work)");
    rsc_bench::save_csv(
        "ablation_preemption_floor.csv",
        &[
            "floor_mins",
            "preempted_fraction",
            "low_qos_completed_gpu_hours",
            "high_qos_mean_wait_hours",
            "utilization",
        ],
        rows,
    );
}
