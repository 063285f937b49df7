//! Ablation: the two-hour preemption floor.
//!
//! "To help ensure even the lowest priority jobs are able to make
//! progress, preemptions can only occur after two hours of runtime"
//! (paper §III). This sweep shows the trade the floor makes: low-QoS
//! progress protection against high-QoS wait.

use rsc_cluster::node::GPUS_PER_NODE;
use rsc_core::cluster_goodput::utilization;
use rsc_core::queueing::wait_by_size_and_qos;
use rsc_core::report::status_breakdown;
use rsc_sched::job::{JobStatus, QosClass};
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
    let floors = [0u64, 30, 120, 480];
    let specs = floors.map(|mins| {
        let mut spec = rsc_bench::rsc1_spec(8, 90, rsc_bench::FIGURE_SEED);
        spec.config.sched.preemption_floor = SimDuration::from_mins(mins);
        spec
    });
    let mut rows = Vec::new();
    for (floor_mins, store) in floors.into_iter().zip(rsc_bench::run_specs(&specs)) {
        let util = utilization(&store, GPUS_PER_NODE as u32);
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
        let high: Vec<_> = wait_by_size_and_qos(&store)
            .into_iter()
            .filter(|b| b.qos == QosClass::High)
            .collect();
        let high_wait = high
            .iter()
            .map(|b| b.mean_wait_hours * b.count as f64)
            .sum::<f64>()
            / high.iter().map(|b| b.count as f64).sum::<f64>().max(1.0);
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
