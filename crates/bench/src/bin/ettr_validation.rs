//! §III validation: the analytic E\[ETTR\] approximation vs Monte Carlo,
//! across job scales (the paper reports ~5% agreement).

use rsc_core::ettr::analytical::{expected_ettr, EttrParams};
use rsc_core::ettr::montecarlo::monte_carlo_ettr;
use rsc_sim_core::rng::SimRng;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "ETTR validation",
        "Analytic E[ETTR] vs Monte Carlo",
        "10,000 trials per scale; RSC-1 rate; Δt_cp = 60 min, u0 = 5 min",
    );
    let mut rng = SimRng::seed_from(rsc_bench::FIGURE_SEED);
    println!(
        "\n{:>8} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "GPUs", "nodes", "analytic", "monte-carlo", "rel diff", "E[failures]"
    );
    println!("{}", "-".repeat(70));
    let mut rows = Vec::new();
    for gpus in [64u32, 256, 1024, 2048, 8192, 16_384] {
        let nodes = gpus / 8;
        let params = EttrParams {
            nodes,
            r_f: 6.5e-3,
            queue_time: 5.0 / 60.0 / 24.0,
            restart_overhead: 5.0 / 60.0 / 24.0,
            checkpoint_interval: 1.0 / 24.0,
            productive_time: 7.0,
        };
        let analytic = expected_ettr(&params);
        let mc = monte_carlo_ettr(&params, 10_000, &mut rng);
        let rel = (mc.mean - analytic).abs() / mc.mean;
        println!(
            "{gpus:>8} {nodes:>10} {analytic:>12.4} {:>12.4} {:>9.2}% {:>12.2}",
            mc.mean,
            rel * 100.0,
            mc.mean_failures
        );
        rows.push(vec![
            gpus.to_string(),
            format!("{analytic:.5}"),
            format!("{:.5}", mc.mean),
            format!("{rel:.5}"),
            format!("{:.3}", mc.mean_failures),
        ]);
    }
    println!("\n(paper: the approximation is accurate to within ~5% even for large,");
    println!(" long-running hypothetical jobs such as 8k GPUs)");
    rsc_bench::save_csv(
        "ettr_validation.csv",
        &[
            "gpus",
            "analytic",
            "monte_carlo",
            "rel_diff",
            "mean_failures",
        ],
        rows,
    );
}
