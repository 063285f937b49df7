//! Cached closed-loop scenario execution.
//!
//! A closed-loop run is parameterized by more than `(config, seed, days)`
//! — the control policy and the monitor configuration shape the telemetry
//! too, so [`ClosedLoopSpec`] carries all five and fingerprints over all
//! of them. Artifacts are namespaced `cl-{fingerprint:016x}.snap` in the
//! same cache directory as open-loop snapshots: the prefix keeps the two
//! artifact families from ever colliding on a shared fingerprint.
//!
//! [`ClosedLoopSpec::run`] executes through a [`ScenarioRunner`], so
//! closed-loop artifacts share the open-loop cache path: the
//! chain-verified load, the atomic publish, and the runner's
//! hit/miss/corrupt ledger.

use std::sync::Arc;

use rsc_monitor::config::MonitorConfig;
use rsc_sim::config::SimConfig;
use rsc_sim::control::CommandQueue;
use rsc_sim::driver::ClusterSim;
use rsc_sim::runner::{ObservedOutcome, ScenarioRunner};
use rsc_sim_core::fnv::Fnv1a;
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::snapshot::SNAPSHOT_VERSION;
use rsc_telemetry::store::ControlActionKind;
use rsc_telemetry::view::TelemetryView;

use crate::controller::ReliabilityController;
use crate::policy::ControlPolicy;

/// One closed-loop scenario: a simulation plus the controller watching
/// and actuating it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopSpec {
    /// Scenario configuration.
    pub config: SimConfig,
    /// RNG seed for the deterministic simulation.
    pub seed: u64,
    /// Horizon in days.
    pub days: u64,
    /// The controller's mitigation policy.
    pub policy: ControlPolicy,
    /// The monitor configuration the controller watches through.
    pub monitor: MonitorConfig,
}

impl ClosedLoopSpec {
    /// A spec with the default (enabled) monitor configuration.
    pub fn new(config: SimConfig, seed: u64, days: u64, policy: ControlPolicy) -> Self {
        ClosedLoopSpec {
            config,
            seed,
            days,
            policy,
            monitor: MonitorConfig::rsc_default(),
        }
    }

    /// Stable cache fingerprint: FNV-1a 64 over the `Debug` renderings of
    /// the simulation config, control policy, and monitor config, plus
    /// seed, horizon, and snapshot format version. Any parameter change —
    /// including a policy knob — yields a cache miss, never a stale hit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(format!("{:?}", self.config).as_bytes());
        h.write(format!("{:?}", self.policy).as_bytes());
        h.write(format!("{:?}", self.monitor).as_bytes());
        h.write(&self.seed.to_le_bytes());
        h.write(&self.days.to_le_bytes());
        h.write(&SNAPSHOT_VERSION.to_le_bytes());
        h.finish()
    }

    /// The namespaced cache file name for this spec.
    pub fn cache_file_name(&self) -> String {
        format!("cl-{:016x}.snap", self.fingerprint())
    }

    /// Runs the closed loop synchronously (no cache) and seals the
    /// result: controller attached as an observer, its command queue
    /// wired into the driver.
    pub fn simulate(&self) -> TelemetryView {
        let queue = CommandQueue::new();
        let mut sim = ClusterSim::new(self.config.clone(), self.seed);
        sim.set_command_queue(queue.clone());
        sim.attach_observer(Box::new(ReliabilityController::new(
            self.policy.clone(),
            self.monitor.clone(),
            queue,
        )));
        sim.run(SimDuration::from_days(self.days));
        sim.into_telemetry().seal()
    }

    /// Executes the spec through `runner`'s artifact cache: loads the
    /// sealed view when `cl-{fingerprint}.snap` holds one (chain-verified
    /// by the snapshot codec), simulates and publishes it otherwise.
    /// Either path returns identical bytes — the replay test pins the
    /// recorded action log bitwise.
    pub fn run(&self, runner: &ScenarioRunner) -> ClosedLoopRun {
        let (view, outcome) = runner.run_artifact(&self.cache_file_name(), || self.simulate());
        ClosedLoopRun { view, outcome }
    }
}

/// One executed closed-loop scenario.
#[derive(Debug)]
pub struct ClosedLoopRun {
    /// The sealed telemetry, control actions included.
    pub view: Arc<TelemetryView>,
    /// Whether the scenario simulated live or loaded from cache.
    pub outcome: ObservedOutcome,
}

impl ClosedLoopRun {
    /// The checkpoint interval in force at the end of the run: the last
    /// accepted retune, or `fallback` if the controller never retuned.
    pub fn effective_checkpoint_interval(&self, fallback: SimDuration) -> SimDuration {
        self.view
            .control_actions()
            .iter()
            .rev()
            .find(|a| a.kind == ControlActionKind::RetuneCheckpoint && a.accepted)
            .map(|a| SimDuration::from_secs(a.value))
            .unwrap_or(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_pinned() {
        // Cached closed-loop artifacts are filed under this value; a change
        // to the spec's shape must not rename them.
        let spec = ClosedLoopSpec::new(
            SimConfig::rsc1(),
            20250301,
            30,
            ControlPolicy::rsc_default(),
        );
        assert_eq!(spec.fingerprint(), 0x0198_54ab_179f_1167);
    }
}
