//! Monitor configuration: estimator windows, the reference job for the
//! continuous E\[ETTR\] readout, and the alerting policy.

use rsc_core::ettr::analytical::EttrParams;
use rsc_core::lemon::LemonDetector;
use rsc_sim_core::time::SimDuration;

/// The hypothetical training job whose expected ETTR the monitor tracks
/// continuously as the streaming failure-rate estimate evolves (paper
/// Eq. 1). All durations in days, matching [`EttrParams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefJob {
    /// Nodes the reference job occupies.
    pub nodes: u32,
    /// Expected queue time after submission and each interruption, days.
    pub queue_time: f64,
    /// Restart overhead `u0`, days.
    pub restart_overhead: f64,
    /// Checkpoint interval, days.
    pub checkpoint_interval: f64,
    /// Productive runtime the job needs, days.
    pub productive_time: f64,
}

impl RefJob {
    /// The paper's hypothetical: a 128-node job, 5-minute restart
    /// overhead, hourly checkpoints, one week of productive time.
    pub fn rsc_default() -> Self {
        RefJob {
            nodes: 128,
            queue_time: 5.0 / 60.0 / 24.0,
            restart_overhead: 5.0 / 60.0 / 24.0,
            checkpoint_interval: 1.0 / 24.0,
            productive_time: 7.0,
        }
    }

    /// Completes the reference job into [`EttrParams`] with a failure
    /// rate (failures per node-day).
    pub fn params(&self, r_f: f64) -> EttrParams {
        EttrParams {
            nodes: self.nodes,
            r_f,
            queue_time: self.queue_time,
            restart_overhead: self.restart_overhead,
            checkpoint_interval: self.checkpoint_interval,
            productive_time: self.productive_time,
        }
    }
}

/// Raise/clear thresholds and the transition debounce for the alert
/// pipeline.
///
/// Every alert has distinct raise and clear conditions (hysteresis), and
/// once a key transitions (raise or clear) the opposite transition is
/// suppressed until `debounce` has elapsed — so alerts cannot flap faster
/// than the debounce window no matter how noisy the estimators get.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertPolicy {
    /// Minimum simulated time between opposite transitions of one alert.
    pub debounce: SimDuration,
    /// After a key clears, suppress re-raising *that key* until this much
    /// time has elapsed since the clear. `ZERO` (the default) disables the
    /// cooldown, reproducing pre-cooldown alert logs exactly.
    pub reraise_cooldown: SimDuration,
    /// Raise `MttfRegression` when the rolling-window MTTF's upper
    /// confidence bound falls below this fraction of the cumulative MTTF.
    pub mttf_raise_ratio: f64,
    /// Clear `MttfRegression` when the rolling point estimate recovers to
    /// this fraction of the cumulative MTTF.
    pub mttf_clear_ratio: f64,
    /// Minimum failures inside the rolling window before `MttfRegression`
    /// may raise (significance floor for the moment-based interval).
    pub min_rolling_failures: u64,
    /// Raise `QuarantineSurge` at this many quarantines in the window.
    pub quarantine_raise: u32,
    /// Clear `QuarantineSurge` at or below this many.
    pub quarantine_clear: u32,
    /// Clear a `LemonSuspect` only when the node's windowed score drops
    /// this many criteria below the detector's raise threshold.
    pub lemon_clear_margin: u32,
}

impl AlertPolicy {
    /// Defaults: 2-day debounce, raise on a 2× MTTF regression with ≥ 5
    /// windowed failures, quarantine surge at 3 nodes.
    pub fn rsc_default() -> Self {
        AlertPolicy {
            debounce: SimDuration::from_days(2),
            reraise_cooldown: SimDuration::ZERO,
            mttf_raise_ratio: 0.5,
            mttf_clear_ratio: 0.8,
            min_rolling_failures: 5,
            quarantine_raise: 3,
            quarantine_clear: 1,
            lemon_clear_margin: 1,
        }
    }
}

impl Default for AlertPolicy {
    fn default() -> Self {
        AlertPolicy::rsc_default()
    }
}

/// Full monitor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Read by nothing. It exists only because `rsc-control`'s
    /// `ClosedLoopSpec::fingerprint` hashes this config's `Debug` text, so
    /// removing it would move every pinned closed-loop fingerprint.
    pub enabled: bool,
    /// Job-size floor (GPUs, exclusive) for the streaming failure-rate
    /// estimator — the paper computes `r_f` over multi-GPU jobs.
    pub min_gpus: u32,
    /// Rolling window for the regression-detecting MTTF estimate.
    pub mttf_window: SimDuration,
    /// Trailing window for the Table-II lemon signals.
    pub lemon_window: SimDuration,
    /// Trailing window for the quarantine-surge counter.
    pub quarantine_window: SimDuration,
    /// Threshold classifier applied to the windowed lemon features.
    pub detector: LemonDetector,
    /// Reference job for the continuous expected-ETTR readout.
    pub ref_job: RefJob,
    /// Alerting thresholds and debounce.
    pub alerts: AlertPolicy,
}

impl MonitorConfig {
    /// The default: 7-day MTTF window, the paper's 28-day lemon
    /// window, 7-day quarantine window, default detector and alert policy.
    pub fn rsc_default() -> Self {
        MonitorConfig {
            enabled: true,
            min_gpus: 1,
            mttf_window: SimDuration::from_days(7),
            lemon_window: SimDuration::from_days(28),
            quarantine_window: SimDuration::from_days(7),
            detector: LemonDetector::rsc_default(),
            ref_job: RefJob::rsc_default(),
            alerts: AlertPolicy::rsc_default(),
        }
    }

    /// Agreement-mode configuration: every trailing window stretched to at
    /// least `horizon_days`, so nothing is ever evicted and the windowed
    /// estimators must converge to the batch analyses exactly. Used by the
    /// streaming-vs-batch agreement harness.
    pub fn unwindowed(horizon_days: u64) -> Self {
        let w = SimDuration::from_days(horizon_days.max(1) * 2);
        MonitorConfig {
            lemon_window: w,
            quarantine_window: w,
            ..MonitorConfig::rsc_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwindowed_covers_horizon() {
        let cfg = MonitorConfig::unwindowed(30);
        assert!(cfg.lemon_window >= SimDuration::from_days(30));
        assert!(cfg.quarantine_window >= SimDuration::from_days(30));
    }

    #[test]
    fn ref_job_params_carry_rate() {
        let p = RefJob::rsc_default().params(6.5e-3);
        assert_eq!(p.nodes, 128);
        assert_eq!(p.r_f, 6.5e-3);
    }
}
