//! §IV-A / Obs. 11: lemon-node detection quality and the effect of lemon
//! removal on large-job failure rates (paper: >85% accuracy; 512+ GPU job
//! failures 14% → 4%).

use rsc_core::lemon::{compute_features, large_job_failure_rate, DetectionQuality, LemonDetector};
use rsc_sim::config::SimConfig;
use rsc_sim::driver::ClusterSim;
use rsc_sim_core::time::{SimDuration, SimTime};

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Lemon evaluation",
        "Detection accuracy and large-job failure reduction",
        "RSC-1 at 1/4 scale, 24 lemons planted, 84 days, 56-day feature window",
    );

    // The observed RSC-1 rate *includes* the lemons' contribution; the
    // stationary background is the lemon-free residual. Scaling the base
    // modes to ~35% leaves lemons responsible for roughly two thirds of
    // failures — the regime where their removal moves large-job failure
    // rates the way the paper reports.
    let mut config = SimConfig::rsc1().scaled_down(4);
    config.modes = config.modes.scaled_rates(0.35);
    config.lemon_count = 24;
    let mut sim = ClusterSim::new(config.clone(), rsc_bench::FIGURE_SEED);
    sim.run(SimDuration::from_days(84));
    let truth = sim.lemons().node_ids();
    let store = sim.into_telemetry().seal();
    let from = store.horizon() - SimDuration::from_days(56);
    let features = compute_features(&store, from, store.horizon());
    let detector = LemonDetector::rsc_default();
    let detected = detector.detect(&features);
    let quality = DetectionQuality::evaluate(&detected, &truth);

    println!("\nplanted lemons: {}", truth.len());
    println!("flagged nodes:  {}", detected.len());
    println!(
        "precision: {} (paper 'accuracy': >85%)   recall: {}",
        rsc_bench::pct(quality.precision()),
        rsc_bench::pct(quality.recall())
    );
    println!(
        "TP = {}, FP = {}, FN = {}",
        quality.true_positives, quality.false_positives, quality.false_negatives
    );

    // Counterfactual: the same cluster with lemons removed.
    let with_lemons = large_job_failure_rate(&store, 128);
    let mut clean_config = config;
    clean_config.lemon_count = 0;
    let mut clean = ClusterSim::new(clean_config, rsc_bench::FIGURE_SEED);
    clean.run(SimDuration::from_days(84));
    let clean_store = clean.into_telemetry().seal();
    let without_lemons = large_job_failure_rate(&clean_store, 128);

    println!(
        "\nlarge-job (128+ GPU at this scale) infra-failure rate:\n  with lemons:    {}\n  lemons removed: {}",
        rsc_bench::pct(with_lemons),
        rsc_bench::pct(without_lemons)
    );
    if with_lemons > 0.0 {
        println!(
            "  reduction: {} (paper: 14% → 4% on 512+ GPU jobs)",
            rsc_bench::pct((with_lemons - without_lemons) / with_lemons)
        );
    }

    let mut rows = vec![vec![
        "detection".to_string(),
        format!("{:.4}", quality.precision()),
        format!("{:.4}", quality.recall()),
        with_lemons.to_string(),
        without_lemons.to_string(),
    ]];
    rows[0].truncate(5);
    rsc_bench::save_csv(
        "lemon_eval.csv",
        &[
            "row",
            "precision",
            "recall",
            "large_job_failure_with",
            "large_job_failure_without",
        ],
        rows,
    );

    let _ = SimTime::ZERO;
}
