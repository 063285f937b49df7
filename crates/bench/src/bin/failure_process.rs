//! Supplementary analysis: is the failure process actually Poisson?
//!
//! The 1/(N·r_f) projection and Gamma CIs assume exponential failure
//! interarrivals. This harness fits Weibull models to simulated failure
//! streams: stationary clusters come out shape ≈ 1 (Poisson-like), while
//! lemon nodes and era effects push shape < 1 (bursty) — the regime where
//! Obs. 8 warns that small-job MTTFs grow "less predictable".

use rsc_core::fit::{fit_failure_process, fit_weibull};
use rsc_core::queueing::{mean_wait_hours, wait_by_size_and_qos};
use rsc_sim::config::{EraPreset, SimConfig};
use rsc_sim::runner::ScenarioSpec;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Failure process",
        "Weibull fit of failure interarrivals + queue waits",
        "RSC-1 at 1/8 scale, 330 days: stationary vs lemons+eras",
    );

    println!(
        "\n{:>26} {:>8} {:>10} {:>10} {:>8}",
        "scenario", "gaps", "shape", "scale (h)", "KS"
    );
    println!("{}", "-".repeat(68));
    let mut rows = Vec::new();
    let scenarios: Vec<(&str, SimConfig)> = vec![
        ("stationary, no lemons", {
            let mut c = SimConfig::rsc1().scaled_down(8);
            c.eras = EraPreset::None;
            c.lemon_count = 0;
            // Keep the observed total comparable: fold the lemon share
            // back into the base.
            c.modes = c.modes.scaled_rates(1.0 / 0.78);
            c
        }),
        ("lemons + eras (default)", SimConfig::rsc1().scaled_down(8)),
    ];
    let specs: Vec<ScenarioSpec> = scenarios
        .iter()
        .map(|(_, config)| {
            ScenarioSpec::new(
                config.clone(),
                rsc_bench::FIGURE_SEED,
                rsc_bench::MEASUREMENT_DAYS,
            )
        })
        .collect();
    let views = rsc_bench::run_specs(&specs);
    for ((name, _), store) in scenarios.iter().zip(views) {
        let fit = fit_failure_process(&store, 50).expect("enough failures");
        println!(
            "{name:>26} {:>8} {:>10.3} {:>10.2} {:>8.3}",
            fit.samples, fit.shape, fit.scale, fit.ks_distance
        );
        rows.push(vec![
            name.to_string(),
            fit.samples.to_string(),
            format!("{:.4}", fit.shape),
            format!("{:.3}", fit.scale),
            format!("{:.4}", fit.ks_distance),
        ]);

        if name.starts_with("lemons") {
            println!("\nqueue waits by size and QoS (same run):");
            println!(
                "{:>8} {:>8} {:>8} {:>12} {:>12}",
                "GPUs", "QoS", "starts", "mean wait", "max wait"
            );
            for b in wait_by_size_and_qos(&store) {
                if b.count >= 20 {
                    println!(
                        "{:>8} {:>8} {:>8} {:>10.2} h {:>10.1} h",
                        b.gpus_lo, b.qos, b.count, b.mean_wait_hours, b.max_wait_hours
                    );
                }
            }
            println!("  overall mean wait: {:.2} h", mean_wait_hours(&store));
        }
    }

    // A deliberately bursty process: one mode spiking 25x for two months.
    {
        use rsc_failure::injector::FailureInjector;
        use rsc_failure::modes::ModeCatalog;
        use rsc_failure::process::{HazardSchedule, NodeFilter, RateModifier};
        use rsc_failure::taxonomy::FailureSymptom;
        use rsc_sim_core::rng::SimRng;
        use rsc_sim_core::time::SimTime;

        let mut schedule = HazardSchedule::new(ModeCatalog::rsc1());
        let ib = schedule
            .mode_by_symptom(FailureSymptom::InfinibandLink)
            .expect("ib mode");
        schedule.add_modifier(RateModifier {
            mode: ib,
            nodes: NodeFilter::All,
            from: SimTime::from_days(100),
            until: SimTime::from_days(160),
            multiplier: 25.0,
        });
        let mut injector = FailureInjector::new(schedule, 256, SimRng::seed_from(3));
        let events = injector.drain_until(SimTime::from_days(330));
        let mut times: Vec<SimTime> = events.iter().map(|e| e.at).collect();
        times.sort();
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_hours())
            .filter(|&dt| dt > 0.0)
            .collect();
        let fit = fit_weibull(&gaps);
        println!(
            "{:>26} {:>8} {:>10.3} {:>10.2} {:>8.3}",
            "25x shared-mode era", fit.samples, fit.shape, fit.scale, fit.ks_distance
        );
        rows.push(vec![
            "25x shared-mode era".to_string(),
            fit.samples.to_string(),
            format!("{:.4}", fit.shape),
            format!("{:.3}", fit.scale),
            format!("{:.4}", fit.ks_distance),
        ]);
    }

    // Reference: a pure exponential sample of the same size fits shape 1.
    let mut rng = rsc_sim_core::rng::SimRng::seed_from(1);
    let reference: Vec<f64> = (0..2000).map(|_| rng.exponential(1.0)).collect();
    let ref_fit = fit_weibull(&reference);
    println!(
        "\nreference exponential sample: shape {:.3} (calibration check)",
        ref_fit.shape
    );
    println!("\n(reading: cluster-wide interarrivals stay Poisson-like even with");
    println!(" lemons — the superposition of many independent node processes");
    println!(" washes out per-node heterogeneity (Palm–Khintchine), which is why");
    println!(" the paper's 1/(N*r_f) model holds; only strong *shared* eras, like");
    println!(" a fleet-wide driver regression, make the pooled process bursty)");
    rsc_bench::save_csv(
        "failure_process_fit.csv",
        &[
            "scenario",
            "gaps",
            "weibull_shape",
            "weibull_scale_hours",
            "ks_distance",
        ],
        rows,
    );
}
