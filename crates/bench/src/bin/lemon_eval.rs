//! §IV-A / Obs. 11: lemon-node detection quality and the effect of lemon
//! removal on large-job failure rates (paper: >85% accuracy; 512+ GPU job
//! failures 14% → 4%).

use rsc_core::lemon::{compute_features, large_job_failure_rate, DetectionQuality, LemonDetector};
use rsc_sim_core::time::SimDuration;

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Lemon evaluation",
        "Detection accuracy and large-job failure reduction",
        "RSC-1 at 1/4 scale, 24 lemons planted, 84 days, 56-day feature window",
    );

    // The scenario and its counterfactual: the same cluster with lemons
    // removed.
    let spec = rsc_bench::lemon_eval_spec();
    let mut clean = spec.clone();
    clean.config.lemon_count = 0;
    let truth = spec.config.planted_lemons(spec.seed).node_ids();
    let views = rsc_bench::run_specs(&[spec, clean]);
    let (store, clean_store) = (&views[0], &views[1]);

    let from = store.horizon() - SimDuration::from_days(56);
    let features = compute_features(store, from, store.horizon());
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

    let with_lemons = large_job_failure_rate(store, 128);
    let without_lemons = large_job_failure_rate(clean_store, 128);

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

    let rows = vec![vec![
        "detection".to_string(),
        format!("{:.4}", quality.precision()),
        format!("{:.4}", quality.recall()),
        with_lemons.to_string(),
        without_lemons.to_string(),
    ]];
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
}
