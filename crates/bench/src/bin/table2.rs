//! Table II: lemon-node root-cause fractions.
//!
//! Plants the paper's 40 lemons (24 RSC-1 + 16 RSC-2) from the Table II
//! distribution and reports the realized root-cause histogram next to the
//! paper's percentages.

use rsc_failure::lemon::{LemonPlan, ROOT_CAUSE_TABLE};
use rsc_sim_core::rng::SimRng;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Table II",
        "Fraction of lemon-node root causes",
        "40 planted lemons (24 on RSC-1, 16 on RSC-2), seeded",
    );
    let mut rng = SimRng::seed_from(rsc_bench::FIGURE_SEED);
    let rsc1 = LemonPlan::plant(&mut rng, 2048, 24);
    let rsc2 = LemonPlan::plant(&mut rng, 1024, 16);

    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "component", "paper %", "planted n", "planted %"
    );
    println!("{}", "-".repeat(50));
    let mut rows = Vec::new();
    let total = (rsc1.lemons().len() + rsc2.lemons().len()) as f64;
    for (kind, paper_pct) in ROOT_CAUSE_TABLE {
        let n = rsc1
            .lemons()
            .iter()
            .chain(rsc2.lemons())
            .filter(|l| l.root_cause == kind)
            .count();
        let planted_pct = n as f64 / total * 100.0;
        println!(
            "{:<10} {:>11.1}% {:>12} {:>11.1}%",
            kind.label(),
            paper_pct,
            n,
            planted_pct
        );
        rows.push(vec![
            kind.label().to_string(),
            format!("{paper_pct:.1}"),
            n.to_string(),
            format!("{planted_pct:.1}"),
        ]);
    }
    rsc_bench::save_csv(
        "table2_lemon_root_causes.csv",
        &["component", "paper_pct", "planted_count", "planted_pct"],
        rows,
    );
}
