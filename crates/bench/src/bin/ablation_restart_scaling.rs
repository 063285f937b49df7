//! Ablation: restart-overhead scaling (§V).
//!
//! NCCL initialization "can scale poorly with the number of GPU nodes";
//! this sweep shows what a scale-proof restart path buys as clusters grow
//! — the paper's argument for investing in fast, reliable restart
//! routines.

use rsc_core::ettr::restart::RestartOverheadModel;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Ablation",
        "Restart-overhead scaling: naive vs optimized restart path",
        "analytic; RSC-2 failure rate, 5-minute checkpoints, week-long runs",
    );
    let r_f = 2.34e-3;
    let cp = 5.0 / 60.0 / 24.0;
    let naive = RestartOverheadModel::naive();
    let optimized = RestartOverheadModel::optimized();

    println!(
        "\n{:>10} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "GPUs", "naive u0", "optimized u0", "ETTR naive", "ETTR optim", "gain"
    );
    println!("{}", "-".repeat(78));
    let mut rows = Vec::new();
    for gpus in [1024u32, 8192, 16_384, 65_536, 100_000, 131_072] {
        let nodes = gpus.div_ceil(8);
        let n_u0 = naive.u0_secs(nodes);
        let o_u0 = optimized.u0_secs(nodes);
        let n_ettr = naive.expected_ettr(gpus, r_f, 1e-4, cp, 7.0);
        let o_ettr = optimized.expected_ettr(gpus, r_f, 1e-4, cp, 7.0);
        println!(
            "{gpus:>10} {:>11.0} s {:>11.0} s {n_ettr:>12.3} {o_ettr:>12.3} {:>+9.3}",
            n_u0,
            o_u0,
            o_ettr - n_ettr
        );
        rows.push(vec![
            gpus.to_string(),
            format!("{n_u0:.1}"),
            format!("{o_u0:.1}"),
            format!("{n_ettr:.4}"),
            format!("{o_ettr:.4}"),
        ]);
    }
    println!("\n(reading: below ~10k GPUs restart latency is noise; at 100k GPUs the");
    println!(" naive path's ~15-minute restarts cost several points of ETTR on top");
    println!(" of checkpoint losses — §V's case for rearchitecting initialization)");
    rsc_bench::save_csv(
        "ablation_restart_scaling.csv",
        &[
            "gpus",
            "naive_u0_secs",
            "optimized_u0_secs",
            "ettr_naive",
            "ettr_optimized",
        ],
        rows,
    );
}
