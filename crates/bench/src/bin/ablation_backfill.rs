//! Ablation: backfill policy.
//!
//! The paper's Fig. 9 notes that its largest job runs waited *less* than
//! average — large-job wait time is a scheduler-policy outcome. This
//! sweep compares EASY-style unreserved backfill against conservative
//! reservations on the same workload.

use rsc_core::queueing::wait_by_size_and_qos;
use rsc_sched::job::QosClass;
use rsc_sched::sched::BackfillPolicy;
use rsc_sim::config::SimConfig;
use rsc_sim::driver::ClusterSim;
use rsc_sim_core::time::SimDuration;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Ablation",
        "Backfill policy: unreserved vs conservative reservations",
        "RSC-1 at 1/8 scale, 120 simulated days per policy",
    );
    let mut rows = Vec::new();
    for (name, policy) in [
        ("unreserved", BackfillPolicy::Unreserved),
        ("conservative", BackfillPolicy::Conservative),
    ] {
        let mut config = SimConfig::rsc1().scaled_down(8);
        config.sched.backfill = policy;
        let mut sim = ClusterSim::new(config, rsc_bench::FIGURE_SEED);
        sim.run(SimDuration::from_days(120));
        let util = sim.mean_utilization();
        let store = sim.into_telemetry().seal();
        println!("\n--- {name} (mean utilization {:.1}%) ---", util * 100.0);
        println!(
            "{:>8} {:>8} {:>8} {:>14} {:>12}",
            "GPUs", "QoS", "starts", "mean wait (h)", "max wait (h)"
        );
        for b in wait_by_size_and_qos(&store) {
            if b.count >= 30 && (b.gpus_lo >= 64 || b.qos == QosClass::Low) {
                println!(
                    "{:>8} {:>8} {:>8} {:>14.2} {:>12.1}",
                    b.gpus_lo, b.qos, b.count, b.mean_wait_hours, b.max_wait_hours
                );
                rows.push(vec![
                    name.to_string(),
                    b.gpus_lo.to_string(),
                    b.qos.to_string(),
                    b.count.to_string(),
                    format!("{:.3}", b.mean_wait_hours),
                    format!("{:.2}", b.max_wait_hours),
                ]);
            }
        }
    }
    println!("\n(reading: reservations trade a little small-job wait and utilization");
    println!(" for bounded large-job waits — the knob behind Fig. 9's observation");
    println!(" that the biggest runs waited less than average)");
    rsc_bench::save_csv(
        "ablation_backfill.csv",
        &[
            "policy",
            "gpus_lo",
            "qos",
            "starts",
            "mean_wait_hours",
            "max_wait_hours",
        ],
        rows,
    );
}
