//! Fig. 10: checkpoint-interval and failure-rate requirements for
//! 100k-GPU job runs (restart overhead coupled to the interval).

use rsc_core::ettr::requirements::max_coupled_interval_mins;

fn main() {
    rsc_bench::banner(
        "Fig. 10",
        "Checkpoint & failure-rate requirements at 100k GPUs",
        "analytic sweep; u0 coupled to Δt_cp, 1-min queues, 7-day runs",
    );
    let rates: Vec<f64> = vec![1.0e-3, 2.34e-3, 4.0e-3, 6.5e-3, 1.0e-2];
    let intervals: Vec<f64> = vec![1.0, 2.0, 5.0, 7.0, 10.0, 21.0, 30.0, 60.0];

    println!("\nE[ETTR] grid (rows = r_f per 1000 node-days, cols = checkpoint mins):");
    print!("{:>10}", "r_f");
    for cp in &intervals {
        print!("{cp:>8.0}m");
    }
    println!();
    println!("{}", "-".repeat(10 + 9 * intervals.len()));
    let mut rows = Vec::new();
    for &r_f in &rates {
        print!("{:>10.2}", r_f * 1000.0);
        for &cp in &intervals {
            // Coupled overhead: evaluate with u0 = Δt_cp directly.
            let p = rsc_core::ettr::analytical::EttrParams {
                nodes: 12_500,
                r_f,
                queue_time: 1.0 / 60.0 / 24.0,
                restart_overhead: cp / 60.0 / 24.0,
                checkpoint_interval: cp / 60.0 / 24.0,
                productive_time: 7.0,
            };
            let e = rsc_core::ettr::analytical::expected_ettr(&p);
            print!("{e:>9.2}");
            rows.push(vec![
                format!("{:.4}", r_f),
                format!("{cp:.1}"),
                format!("{e:.4}"),
            ]);
        }
        println!();
    }

    println!("\nRequired checkpoint interval (u0 = Δt_cp) for target E[ETTR]:");
    println!(
        "{:>26} {:>14} {:>14}",
        "failure rate", "ETTR = 0.5", "ETTR = 0.9"
    );
    for (label, r_f) in [
        ("RSC-1-like (6.50)", 6.5e-3),
        ("RSC-2-like (2.34)", 2.34e-3),
    ] {
        let half = max_coupled_interval_mins(100_000, r_f, 0.5, 1.0, 7.0)
            .map(|m| format!("{m:.1} min"))
            .unwrap_or_else(|| "unreachable".into());
        let nine = max_coupled_interval_mins(100_000, r_f, 0.9, 1.0, 7.0)
            .map(|m| format!("{m:.1} min"))
            .unwrap_or_else(|| "unreachable".into());
        println!("{label:>26} {half:>14} {nine:>14}");
    }
    println!("\n(paper: ~7 min for ETTR 0.5 at the RSC-1 rate, ~21 min at the RSC-2");
    println!(" rate; ETTR 0.9 at the RSC-2 rate needs ~2-min checkpoints + restarts)");
    rsc_bench::save_csv(
        "fig10_requirements.csv",
        &["r_f_per_node_day", "checkpoint_mins", "expected_ettr"],
        rows,
    );
}
