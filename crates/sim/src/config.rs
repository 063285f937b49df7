//! Simulation scenario configuration and presets.

use rsc_cluster::spec::ClusterSpec;
use rsc_failure::cooccur::CooccurrenceProfile;
use rsc_failure::lemon::LemonPlan;
use rsc_failure::modes::ModeCatalog;
use rsc_health::lifecycle::RemediationPolicy;
use rsc_health::registry::CheckRegistry;
use rsc_health::remediation::RepairPolicy;
use rsc_sched::project::ProjectQuotas;
use rsc_sched::sched::SchedConfig;
use rsc_sim_core::rng::SimRng;
use rsc_sim_core::time::SimDuration;
use rsc_storage::checkpoint::CheckpointFallbackPolicy;
use rsc_workload::profile::WorkloadProfile;

/// Which era storyline (paper Fig. 5) to overlay on the failure rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraPreset {
    /// Stationary rates.
    None,
    /// RSC-1: GSP driver regression early, IB-link node spike in summer.
    Rsc1,
    /// RSC-2: the IB-link spike only.
    Rsc2,
}

/// Full description of a simulated cluster scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Cluster sizing.
    pub cluster: ClusterSpec,
    /// Workload profile (should be pre-calibrated to the cluster size).
    pub workload: WorkloadProfile,
    /// Failure-mode catalog with per-mode rates.
    pub modes: ModeCatalog,
    /// Signal co-occurrence structure.
    pub cooccurrence: CooccurrenceProfile,
    /// Deployed health checks.
    pub registry: CheckRegistry,
    /// Repair-duration model.
    pub repair: RepairPolicy,
    /// Fallible-remediation lifecycle (escalation ladder, retry budgets,
    /// probation). The default, [`RemediationPolicy::infallible`], keeps the
    /// legacy always-succeeds repair path and its exact RNG stream.
    pub remediation: RemediationPolicy,
    /// Fallible checkpoint restores. The default,
    /// [`CheckpointFallbackPolicy::disabled`], keeps restarts lossless
    /// beyond the usual floor-to-checkpoint rule.
    pub ckpt_fallback: CheckpointFallbackPolicy,
    /// Scheduler policy.
    pub sched: SchedConfig,
    /// Project GPU quotas (unlimited by default).
    pub quotas: ProjectQuotas,
    /// Era storyline.
    pub eras: EraPreset,
    /// Number of lemon nodes to plant.
    pub lemon_count: usize,
    /// Median extra failure rate per lemon, failures/day.
    pub lemon_extra_rate_median: f64,
    /// Nodes participating in the summer IB-link spike.
    pub ib_spike_node_count: usize,
    /// How long until the scheduler declares a hung node NODE_FAIL.
    pub heartbeat_timeout: SimDuration,
    /// Probability a user excludes a node after their job fails on it.
    pub exclusion_prob: f64,
    /// Probability a low-severity fault crashes each job on the node.
    pub low_severity_crash_prob: f64,
    /// Probability the Slurm prolog (preflight) check catches a silently
    /// broken node at job start, sending it to remediation instead of
    /// failing the job (paper §II-A: checks run before a job).
    pub preflight_detect_prob: f64,
}

impl SimConfig {
    /// The lemons a run of this scenario at `seed` plants (its ground
    /// truth), drawn without simulating from the run's own stream.
    pub fn planted_lemons(&self, seed: u64) -> LemonPlan {
        self.setup_streams(&mut SimRng::seed_from(seed)).1
    }

    /// Forks 1 and 2 of a run's stream: the era stream (the IB-spike node
    /// set) and the planted lemons.
    pub(crate) fn setup_streams(&self, rng: &mut SimRng) -> (SimRng, LemonPlan) {
        let era_rng = rng.fork(1);
        let lemons = LemonPlan::plant_with_rate(
            &mut rng.fork(2),
            self.cluster.num_nodes(),
            self.lemon_count,
            self.lemon_extra_rate_median,
        );
        (era_rng, lemons)
    }

    /// Full-fidelity RSC-1: 2,048 nodes, 7.2k jobs/day, the Fig. 5 era
    /// storyline, 24 lemon nodes.
    pub fn rsc1() -> Self {
        let cluster = ClusterSpec::rsc1();
        let mut workload = WorkloadProfile::rsc1();
        workload.calibrate_load(cluster.total_gpus(), 0.95);
        SimConfig {
            cluster,
            workload,
            // Residual background: 24 lemons × 0.12/day ≈ 22% of the
            // observed 6.50/1000 node-day total, so the base modes carry
            // the rest and base + lemons reproduces the published rate.
            modes: ModeCatalog::rsc1().scaled_rates(0.78),
            cooccurrence: CooccurrenceProfile::rsc1(),
            registry: CheckRegistry::rsc_default(),
            repair: RepairPolicy::rsc_default(),
            remediation: RemediationPolicy::infallible(),
            ckpt_fallback: CheckpointFallbackPolicy::disabled(),
            sched: SchedConfig::rsc_default(),
            quotas: ProjectQuotas::unlimited(),
            eras: EraPreset::Rsc1,
            lemon_count: 24,
            lemon_extra_rate_median: 0.12,
            ib_spike_node_count: 12,
            heartbeat_timeout: SimDuration::from_mins(10),
            exclusion_prob: 0.25,
            low_severity_crash_prob: 0.5,
            preflight_detect_prob: 0.5,
        }
    }

    /// Full-fidelity RSC-2: 1,024 nodes, 4.4k jobs/day, 16 lemons.
    pub fn rsc2() -> Self {
        let cluster = ClusterSpec::rsc2();
        let mut workload = WorkloadProfile::rsc2();
        workload.calibrate_load(cluster.total_gpus(), 0.95);
        SimConfig {
            cluster,
            workload,
            // 16 lemons × 0.05/day ≈ a third of RSC-2's 2.34/1000
            // node-day total; base modes carry the residual.
            modes: ModeCatalog::rsc2().scaled_rates(0.67),
            cooccurrence: CooccurrenceProfile::rsc2(),
            registry: CheckRegistry::rsc_default(),
            repair: RepairPolicy::rsc_default(),
            remediation: RemediationPolicy::infallible(),
            ckpt_fallback: CheckpointFallbackPolicy::disabled(),
            sched: SchedConfig::rsc_default(),
            quotas: ProjectQuotas::unlimited(),
            eras: EraPreset::Rsc2,
            lemon_count: 16,
            lemon_extra_rate_median: 0.05,
            ib_spike_node_count: 8,
            heartbeat_timeout: SimDuration::from_mins(10),
            exclusion_prob: 0.25,
            low_severity_crash_prob: 0.5,
            preflight_detect_prob: 0.5,
        }
    }

    /// A scaled-down replica of a full config: `1/divisor` of the nodes and
    /// arrival rate, with the workload's oversized jobs folded away. Failure
    /// *rates* are per node-day and stay unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or does not divide the node count.
    pub fn scaled_down(&self, divisor: u32) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        let nodes = self.cluster.num_nodes() / divisor;
        assert!(nodes > 0, "too large a divisor");
        let cluster = ClusterSpec::new(format!("{}/{}", self.cluster.name(), divisor), nodes);
        let mut workload = self.workload.scaled(1.0 / divisor as f64);
        workload.calibrate_load(cluster.total_gpus(), 0.95);
        SimConfig {
            cluster,
            workload,
            lemon_count: (self.lemon_count as u32 / divisor).max(1) as usize,
            ib_spike_node_count: (self.ib_spike_node_count as u32 / divisor).max(3) as usize,
            ..self.clone()
        }
    }

    /// A 64-node scenario for tests and examples: RSC-1-like behaviour at
    /// 1/32 scale, no lemons, stationary rates.
    pub fn small_test_cluster() -> Self {
        let cluster = ClusterSpec::small_test();
        let mut workload = WorkloadProfile::rsc1().scaled(1.0 / 32.0);
        workload.calibrate_load(cluster.total_gpus(), 0.95);
        SimConfig {
            cluster,
            workload,
            modes: ModeCatalog::rsc1(),
            cooccurrence: CooccurrenceProfile::rsc1(),
            registry: CheckRegistry::rsc_default(),
            repair: RepairPolicy::rsc_default(),
            remediation: RemediationPolicy::infallible(),
            ckpt_fallback: CheckpointFallbackPolicy::disabled(),
            sched: SchedConfig::rsc_default(),
            quotas: ProjectQuotas::unlimited(),
            eras: EraPreset::None,
            lemon_count: 0,
            lemon_extra_rate_median: 0.12,
            ib_spike_node_count: 0,
            heartbeat_timeout: SimDuration::from_mins(10),
            exclusion_prob: 0.25,
            low_severity_crash_prob: 0.5,
            preflight_detect_prob: 0.5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let c = SimConfig::rsc1();
        assert_eq!(c.cluster.total_gpus(), 16_384);
        // Residual base + expected lemon contribution ≈ published total.
        let lemon_rate =
            c.lemon_count as f64 * c.lemon_extra_rate_median / c.cluster.num_nodes() as f64;
        let total = c.modes.total_rate() + lemon_rate;
        assert!((total - 6.5e-3).abs() < 0.5e-3, "rsc1 total={total}");
        let c2 = SimConfig::rsc2();
        assert_eq!(c2.cluster.total_gpus(), 8_192);
        let lemon_rate2 =
            c2.lemon_count as f64 * c2.lemon_extra_rate_median / c2.cluster.num_nodes() as f64;
        let total2 = c2.modes.total_rate() + lemon_rate2;
        assert!((total2 - 2.34e-3).abs() < 0.3e-3, "rsc2 total={total2}");
    }

    #[test]
    fn scaled_down_divides_cluster_and_load() {
        let c = SimConfig::rsc1().scaled_down(8);
        assert_eq!(c.cluster.num_nodes(), 256);
        assert!((c.workload.jobs_per_day - 900.0).abs() < 1.0);
        // Offered load re-calibrated to the smaller cluster.
        let offered = c.workload.offered_gpu_hours_per_day();
        let target = c.cluster.total_gpus() as f64 * 24.0 * 0.95;
        assert!((offered - target).abs() / target < 1e-6);
    }

    #[test]
    fn small_test_cluster_is_small() {
        let c = SimConfig::small_test_cluster();
        assert_eq!(c.cluster.num_nodes(), 64);
        assert_eq!(c.lemon_count, 0);
    }
}
