//! Fig. 11: lemon-node feature CDFs over a 28-day window, with the planted
//! lemons' feature values for contrast.

use rsc_core::lemon::{compute_features, feature_cdfs};
use rsc_sim_core::time::SimTime;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Fig. 11",
        "Lemon-detection feature CDFs (28-day window)",
        "RSC-1 at 1/4 scale with 6 planted lemons, 28 simulated days",
    );
    let mut spec = rsc_bench::rsc1_spec(4, 28, rsc_bench::FIGURE_SEED);
    spec.config.lemon_count = 6;
    let lemon_ids = spec.config.planted_lemons(spec.seed).node_ids();
    let store = rsc_bench::runner().run_one(&spec);

    let features = compute_features(&store, SimTime::ZERO, store.horizon());
    let cdfs = feature_cdfs(&features);

    let mut rows = Vec::new();
    for (name, cdf) in &cdfs {
        println!("\n{name} (node CDF; sparse features step sharply):");
        for q in [0.50, 0.90, 0.99, 1.00] {
            let v = cdf.quantile(q).unwrap_or(0.0);
            println!("  p{:<3.0} = {v:.3}", q * 100.0);
            rows.push(vec![name.to_string(), format!("{q:.2}"), format!("{v:.4}")]);
        }
        // Lemon nodes' values for contrast.
        let lemon_vals: Vec<f64> = features
            .iter()
            .filter(|f| lemon_ids.contains(&f.node))
            .map(|f| match *name {
                "excl_jobid_count" => f.excl_jobid_count as f64,
                "xid_cnt" => f.xid_cnt as f64,
                "tickets" => f.tickets as f64,
                "out_count" => f.out_count as f64,
                "multi_node_node_fails" => f.multi_node_node_fails as f64,
                "single_node_node_fails" => f.single_node_node_fails as f64,
                _ => f.single_node_node_failure_rate,
            })
            .collect();
        let mean = lemon_vals.iter().sum::<f64>() / lemon_vals.len().max(1) as f64;
        println!("  planted lemons' mean value: {mean:.3}");
    }
    println!("\n(paper: most features are highly sparse — non-smooth CDFs — and");
    println!(" excl_jobid_count correlates weakly, motivating automated detection)");
    rsc_bench::save_csv(
        "fig11_lemon_feature_cdfs.csv",
        &["feature", "quantile", "value"],
        rows,
    );
}
