//! §III text numbers: MTTF projections for frontier-scale jobs from the
//! measured failure rates.

use rsc_core::mttf::MttfProjection;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Projections",
        "MTTF at frontier scale from 1/(N·r_f)",
        "analytic; r_f from the paper's published rates",
    );
    let mut rows = Vec::new();
    for (name, r_f) in [("RSC-1", 6.50e-3), ("RSC-2", 2.34e-3)] {
        let proj = MttfProjection::new(r_f);
        println!(
            "\n--- {name} (r_f = {:.2} per 1000 node-days) ---",
            r_f * 1000.0
        );
        println!("{:>12} {:>12} {:>14}", "GPUs", "nodes", "MTTF");
        println!("{}", "-".repeat(40));
        for gpus in [
            1024u32, 4096, 8192, 16_384, 32_768, 65_536, 100_000, 131_072,
        ] {
            let hours = proj.mttf_hours(gpus);
            let fmt = if hours >= 1.0 {
                format!("{hours:.2} h")
            } else {
                format!("{:.1} min", hours * 60.0)
            };
            println!("{gpus:>12} {:>12} {fmt:>14}", gpus.div_ceil(8));
            rows.push(vec![
                name.to_string(),
                gpus.to_string(),
                format!("{hours:.4}"),
            ]);
        }
    }
    println!("\n(paper: 16,384 GPUs → 1.8 h; 131,072 GPUs → 0.23 h at the RSC-1 rate;");
    println!(" ~15 min MTTF at 100k GPUs motivates sub-10-minute checkpointing)");
    rsc_bench::save_csv(
        "projections_mttf.csv",
        &["cluster", "gpus", "mttf_hours"],
        rows,
    );
}
