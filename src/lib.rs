#![warn(missing_docs)]

//! # rsc-reliability
//!
//! A reliability-analysis toolkit and cluster simulator reproducing
//! *"Revisiting Reliability in Large-Scale Machine Learning Research
//! Clusters"* (HPCA 2025).
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! - [`simcore`] — discrete-event simulation primitives;
//! - [`cluster`] — the hardware model (nodes, GPUs, racks, pods);
//! - [`network`] — the rail-optimized InfiniBand fabric and adaptive routing;
//! - [`failure`] — failure taxonomy, hazard processes, and lemon nodes;
//! - [`health`] — periodic health checks and remediation;
//! - [`sched`] — the Slurm-like gang scheduler;
//! - [`workload`] — RSC-1/RSC-2 synthetic workload profiles;
//! - [`storage`] — NFS/AirStore/ObjectStore tiers and checkpoint costs;
//! - [`telemetry`] — simulated cluster logs and time-window queries;
//! - [`sim`] — the wired-up cluster simulation;
//! - [`analysis`] — the paper's contribution: attribution, MTTF, ETTR,
//!   lemon detection, and goodput accounting;
//! - [`monitor`] — the online streaming reliability monitor and alerting
//!   pipeline over the simulator's event bus;
//! - [`serve`] — the `rsc-serve` scenario service: sweep submission over
//!   HTTP, cached analysis queries, and live SSE alert streaming.
//!
//! # Quickstart
//!
//! Simulate a small cluster for a week and measure its utilization. A
//! scenario is (config, seed, days); the runner simulates it, or loads its
//! sealed telemetry from the artifact cache when one is configured:
//!
//! ```
//! use rsc_reliability::analysis::cluster_goodput::utilization;
//! use rsc_reliability::sim::{ScenarioRunner, ScenarioSpec, SimConfig};
//!
//! let spec = ScenarioSpec::new(SimConfig::small_test_cluster(), 42, 7);
//! let telemetry = ScenarioRunner::without_cache().run_one(&spec);
//! assert!(telemetry.jobs().len() > 0);
//! assert!(utilization(&telemetry, spec.config.cluster.gpus_per_node()) > 0.0);
//! ```

pub use rsc_cluster as cluster;
pub use rsc_core as analysis;
pub use rsc_failure as failure;
pub use rsc_health as health;
pub use rsc_monitor as monitor;
pub use rsc_network as network;
pub use rsc_sched as sched;
pub use rsc_serve as serve;
pub use rsc_sim as sim;
pub use rsc_sim_core as simcore;
pub use rsc_storage as storage;
pub use rsc_telemetry as telemetry;
pub use rsc_workload as workload;
