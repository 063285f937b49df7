//! Fig. 5: evolution of the cluster failure rate over the measurement
//! year, broken down by failure mode, with health-check introduction dates
//! annotated (30-day rolling average).

use rsc_core::attribution::{attribute_failures, is_infra_failure, AttributionConfig};
use rsc_health::registry::CheckRegistry;
use rsc_sim_core::time::{SimDuration, SimTime};
use rsc_telemetry::rolling::rolling_rate;

fn main() {
    let args = rsc_bench::BenchArgs::parse(8);
    rsc_bench::banner(
        "Fig. 5",
        "Failure-rate evolution by mode (30-day rolling average)",
        &args.scale_note("RSC-1"),
    );
    let store = rsc_bench::run_rsc1(args.scale, args.days, args.seed);
    let num_nodes = store.num_nodes();
    let horizon = store.horizon();
    let attributions = attribute_failures(&store, &AttributionConfig::paper_default());

    // Collect failure times per attributed cause (infra failures only).
    let mut series: std::collections::BTreeMap<String, Vec<SimTime>> = Default::default();
    for a in &attributions {
        let r = &store.jobs()[a.record_index];
        if !is_infra_failure(r.status, a) {
            continue;
        }
        let label = a
            .cause
            .map(|c| c.label().to_string())
            .unwrap_or_else(|| "unattributed".into());
        series.entry(label).or_default().push(r.ended_at);
    }
    for times in series.values_mut() {
        times.sort();
    }

    println!("\nHealth-check rollout annotations:");
    for (check, at) in CheckRegistry::rsc_default().rollout_annotations() {
        println!("  day {:>4.0}: {} check introduced", at.as_days(), check);
    }

    let window = SimDuration::from_days(30);
    let step = SimDuration::from_days(10);
    let mut rows: Vec<Vec<String>> = Vec::new();
    println!("\nfailures per 1000 node-days (rows = day, columns = mode):");
    let labels: Vec<String> = series.keys().cloned().collect();
    println!(
        "{:>6} {}",
        "day",
        labels
            .iter()
            .map(|l| format!("{l:>14}"))
            .collect::<String>()
    );
    let per_mode: Vec<Vec<rsc_telemetry::rolling::SeriesPoint>> = labels
        .iter()
        .map(|l| rolling_rate(&series[l], horizon, window, step, num_nodes))
        .collect();
    if let Some(first) = per_mode.first() {
        for (i, p) in first.iter().enumerate() {
            let mut row = vec![format!("{:.0}", p.day)];
            print!("{:>6.0} ", p.day);
            for mode_series in &per_mode {
                let v = mode_series[i].value * 1000.0;
                print!("{v:>14.3}");
                row.push(format!("{v:.4}"));
            }
            println!();
            rows.push(row);
        }
    }
    println!("\n(paper: GSP-timeout era early in the year fixed by a driver patch;");
    println!(" mount failures appear once the FS-mount check ships; an IB-link");
    println!(" spike from a handful of nodes in the summer)");

    let mut header: Vec<&str> = vec!["day"];
    header.extend(labels.iter().map(|s| s.as_str()));
    rsc_bench::save_csv("fig5_failure_rate_evolution.csv", &header, rows);
}
