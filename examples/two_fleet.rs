//! Two-fleet run: full-size RSC-1 and RSC-2 simulated side by side in one
//! process, reduced to the paper's cross-fleet comparison (§III).
//!
//! Both fleets are one `ScenarioRunner::run_all` batch, so they simulate
//! concurrently on the worker pool and each fleet's sealed telemetry
//! lands in the artifact cache under its own fingerprint. RSC-2 is seeded
//! with `seed + 1`, as the figure binaries do. Each fleet's node-failure
//! rate `r_f` is `rsc-core`'s paper estimator (attributed infra failures
//! of jobs above 128 GPUs), the same one fig7, fig9 and the benchmark
//! report. The comparison is written as `two_fleet_comparison.csv`.
//!
//! Run with: `cargo run --release --example two_fleet [-- --days N]
//! [--seed N]` (defaults: 30 days, seed 42). Both fleets simulate and seal
//! in memory. A mistyped flag or a bad value exits 2 with a message.

use std::process::ExitCode;

use rsc_reliability::analysis::attribution::AttributionConfig;
use rsc_reliability::analysis::mttf::estimate_node_failure_rate;
use rsc_reliability::sim::runner::snapshot_file_name;
use rsc_reliability::sim::{ScenarioRunner, ScenarioSpec, SimConfig};
use rsc_reliability::simcore::cli;
use rsc_reliability::telemetry::csv::write_csv_file;

const USAGE: &str = "two_fleet [--days N] [--seed N]";

/// The horizon in days and the RSC-1 seed the flags name.
fn parse_args(raw: impl Iterator<Item = String>) -> Result<(u64, u64), String> {
    let args = cli::parse(raw, &["days", "seed"], &[])?;
    let days = args.parse_or("days", 30)?;
    if days == 0 {
        return Err("--days must be positive".to_string());
    }
    Ok((days, args.parse_or("seed", 42)?))
}

fn main() -> ExitCode {
    let (days, seed) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: {USAGE}");
            return ExitCode::from(2);
        }
    };

    let names = ["RSC-1", "RSC-2"];
    let specs = [
        ScenarioSpec::new(SimConfig::rsc1(), seed, days),
        ScenarioSpec::new(SimConfig::rsc2(), seed + 1, days),
    ];
    println!("two-fleet run: {days} days");
    for (name, spec) in names.iter().zip(&specs) {
        println!(
            "  {name:<6} {:>7} nodes  seed {}",
            spec.config.cluster.num_nodes(),
            spec.seed
        );
    }

    let runner = ScenarioRunner::new().workers(2);
    let t0 = std::time::Instant::now();
    let views = runner.run_all(&specs);
    let cache = runner.stats();
    println!(
        "\nsimulated {} fleets in {:.2} s (cache: {} hit, {} miss)",
        views.len(),
        t0.elapsed().as_secs_f64(),
        cache.hits,
        cache.misses
    );
    for ((name, spec), view) in names.iter().zip(&specs).zip(&views) {
        println!(
            "  {name:<6} artifact {}  ({} job records)",
            snapshot_file_name(spec.fingerprint()),
            view.jobs().len()
        );
    }

    let header = [
        "fleet",
        "nodes",
        "seed",
        "job_records",
        "failures_per_1000_node_days",
        "gpu_swaps",
        "exclusions",
    ];
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&specs)
        .zip(&views)
        .map(|((name, spec), view)| {
            let r_f = estimate_node_failure_rate(view, &AttributionConfig::paper_default(), 128);
            vec![
                name.to_string(),
                view.num_nodes().to_string(),
                spec.seed.to_string(),
                view.jobs().len().to_string(),
                format!("{:.3}", r_f * 1000.0),
                view.gpu_swaps().to_string(),
                view.exclusions().len().to_string(),
            ]
        })
        .collect();
    println!(
        "\n{:<6} {:>7} {:>6} {:>10} {:>12} {:>10} {:>10}",
        "fleet", "nodes", "seed", "jobs", "r_f/1k n-d", "gpu swaps", "exclusions"
    );
    for r in &rows {
        println!(
            "{:<6} {:>7} {:>6} {:>10} {:>12} {:>10} {:>10}",
            r[0], r[1], r[2], r[3], r[4], r[5], r[6]
        );
    }
    println!("(paper §III: RSC-1 6.50, RSC-2 2.34 failures per 1000 node-days)");

    let out = "two_fleet_comparison.csv";
    write_csv_file(out, &header, rows).expect("write comparison CSV");
    println!("[csv] wrote {out}");
    ExitCode::SUCCESS
}
