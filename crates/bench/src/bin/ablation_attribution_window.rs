//! Ablation: the failure-attribution window.
//!
//! The paper attributes a job failure to a cause seen within 10 minutes
//! before / 5 minutes after the job's end. This sweep shows the trade-off
//! that choice navigates: short windows miss causes (low coverage), long
//! windows pick up unrelated events (misattribution against ground truth).

use rsc_core::attribution::{attribute_failures, attribution_accuracy, AttributionConfig};
use rsc_sched::job::JobStatus;
use rsc_sim_core::time::SimDuration;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Ablation",
        "Attribution window sweep (paper default: 10 min before / 5 after)",
        "RSC-1 at 1/8 scale, 120 simulated days",
    );
    let store = rsc_bench::run_rsc1(8, 120, rsc_bench::FIGURE_SEED);

    println!(
        "\n{:>14} {:>12} {:>14} {:>16}",
        "window before", "coverage", "accuracy", "(vs ground truth)"
    );
    println!("{}", "-".repeat(60));
    let mut rows = Vec::new();
    for before_mins in [1u64, 2, 5, 10, 20, 40, 60, 120] {
        let config = AttributionConfig {
            window_before: SimDuration::from_mins(before_mins),
            window_after: SimDuration::from_mins(5),
        };
        let attributions = attribute_failures(&store, &config);
        // Coverage: infra-interrupted records (NODE_FAIL / REQUEUED) that
        // received a cause.
        let infra: Vec<_> = attributions
            .iter()
            .filter(|a| {
                matches!(
                    store.jobs()[a.record_index].status,
                    JobStatus::NodeFail | JobStatus::Requeued
                )
            })
            .collect();
        let covered = infra.iter().filter(|a| a.is_attributed()).count();
        let coverage = covered as f64 / infra.len().max(1) as f64;
        let accuracy = attribution_accuracy(&store, &config);
        println!(
            "{:>10} min {:>12} {:>14}",
            before_mins,
            rsc_bench::pct(coverage),
            rsc_bench::pct(accuracy)
        );
        rows.push(vec![
            before_mins.to_string(),
            format!("{coverage:.4}"),
            format!("{accuracy:.4}"),
        ]);
    }
    println!("\n(reading: detection is prompt in this substrate, so coverage saturates");
    println!(" well before the paper's 10-minute choice — the uncovered remainder is");
    println!(" heartbeat-only NODE_FAILs — while very wide windows start trading");
    println!(" accuracy for stray events)");
    rsc_bench::save_csv(
        "ablation_attribution_window.csv",
        &["window_before_mins", "coverage", "accuracy"],
        rows,
    );
}
