//! Checkpoint/failure-rate requirements at extreme scale (paper Fig. 10).
//!
//! Answers "what checkpoint interval do I need to reach a target E\[ETTR\]
//! at 100k GPUs for a given failure rate?" by inverting the analytical
//! estimator.

use super::analytical::{expected_ettr, EttrParams};

/// Finds (by bisection) the largest checkpoint interval, in minutes, that
/// still achieves `target_ettr`. Returns `None` when even near-continuous
/// checkpointing cannot reach the target.
pub fn max_checkpoint_interval_mins(
    gpus: u32,
    r_f: f64,
    target_ettr: f64,
    queue_time_mins: f64,
    restart_overhead_mins: f64,
    productive_days: f64,
) -> Option<f64> {
    let eval = |cp_mins: f64| {
        let params = EttrParams {
            nodes: gpus.div_ceil(8),
            r_f,
            queue_time: queue_time_mins / 60.0 / 24.0,
            restart_overhead: restart_overhead_mins / 60.0 / 24.0,
            checkpoint_interval: cp_mins / 60.0 / 24.0,
            productive_time: productive_days,
        };
        expected_ettr(&params)
    };
    // ETTR is monotone decreasing in the checkpoint interval.
    let mut lo = 0.01; // ~continuous
    let mut hi = 24.0 * 60.0; // one day
    if eval(lo) < target_ettr {
        return None;
    }
    if eval(hi) >= target_ettr {
        return Some(hi);
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if eval(mid) >= target_ettr {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Like [`max_checkpoint_interval_mins`] but with the restart overhead
/// *coupled* to the checkpoint interval (`u0 = Δt_cp`), matching the
/// paper's Fig. 10 framing where both must shrink together at scale
/// ("~2 minute checkpointing and ~2 minute restart overhead").
pub fn max_coupled_interval_mins(
    gpus: u32,
    r_f: f64,
    target_ettr: f64,
    queue_time_mins: f64,
    productive_days: f64,
) -> Option<f64> {
    let eval = |cp_mins: f64| {
        let params = EttrParams {
            nodes: gpus.div_ceil(8),
            r_f,
            queue_time: queue_time_mins / 60.0 / 24.0,
            restart_overhead: cp_mins / 60.0 / 24.0,
            checkpoint_interval: cp_mins / 60.0 / 24.0,
            productive_time: productive_days,
        };
        expected_ettr(&params)
    };
    let mut lo = 0.01;
    let mut hi = 24.0 * 60.0;
    if eval(lo) < target_ettr {
        return None;
    }
    if eval(hi) >= target_ettr {
        return Some(hi);
    }
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if eval(mid) >= target_ettr {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RSC1_RATE: f64 = 6.5e-3;
    const RSC2_RATE: f64 = 2.34e-3;

    #[test]
    fn paper_100k_gpu_requirements() {
        // Fig. 10 narrative (restart overhead coupled to the checkpoint
        // interval): at 100k GPUs with an RSC-1-like failure rate,
        // E[ETTR] = 0.5 needs a ~7-minute checkpoint interval…
        let cp = max_coupled_interval_mins(100_000, RSC1_RATE, 0.5, 1.0, 7.0).expect("reachable");
        assert!((4.0..=10.0).contains(&cp), "cp={cp}");
        // …which relaxes to ~21 minutes at an RSC-2-like rate.
        let cp2 = max_coupled_interval_mins(100_000, RSC2_RATE, 0.5, 1.0, 7.0).expect("reachable");
        assert!((13.0..=25.0).contains(&cp2), "cp2={cp2}");
        assert!(cp2 > 2.0 * cp);
    }

    #[test]
    fn ettr_09_at_rsc2_rate_needs_couple_minute_checkpoints() {
        // "To reach ETTR of 0.9 at an RSC-2 failure rate, you would need
        // ~2 minute checkpointing and ~2 minute restart overhead."
        let cp = max_coupled_interval_mins(100_000, RSC2_RATE, 0.9, 1.0, 7.0).expect("reachable");
        assert!((1.0..=5.0).contains(&cp), "cp={cp}");
    }

    #[test]
    fn rsc1_8k_gpu_requirement_is_about_half_an_hour() {
        // Obs. 10: 8,000 GPUs on RSC-1 with 1-minute queues needs roughly
        // 30-minute checkpoints for ETTR 0.9.
        let cp =
            max_checkpoint_interval_mins(8_000, RSC1_RATE, 0.9, 1.0, 5.0, 7.0).expect("reachable");
        assert!((20.0..=45.0).contains(&cp), "cp={cp}");
    }

    #[test]
    fn unreachable_targets_return_none() {
        assert!(max_checkpoint_interval_mins(1_000_000, 0.05, 0.99, 1.0, 30.0, 7.0).is_none());
    }
}
