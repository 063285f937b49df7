#![warn(missing_docs)]

//! The wired-up cluster simulation for the `rsc-reliability` workspace.
//!
//! [`driver::ClusterSim`] combines the substrates — cluster hardware model,
//! Slurm-like scheduler, failure injector, health monitor, and workload
//! generator — into one deterministic discrete-event simulation that emits
//! the telemetry streams (`rsc-telemetry`) every analysis in `rsc-core`
//! consumes. [`config::SimConfig`] describes a scenario; presets replicate
//! the paper's RSC-1 and RSC-2 environments at full or reduced scale.
//! [`runner::ScenarioRunner`] executes batches of scenarios across worker
//! threads with an on-disk telemetry artifact cache, returning sealed
//! [`rsc_telemetry::TelemetryView`]s that are byte-identical whether
//! simulated sequentially, in parallel, or loaded from cache. A run's
//! planted lemons come from [`SimConfig::planted_lemons`] unsimulated.
//!
//! # Example
//!
//! ```
//! use rsc_sim::{ScenarioRunner, ScenarioSpec, SimConfig};
//!
//! let mut config = SimConfig::small_test_cluster();
//! config.lemon_count = 2;
//! let spec = ScenarioSpec::new(config, 42, 3);
//! let lemons = spec.config.planted_lemons(spec.seed);
//! let telemetry = ScenarioRunner::without_cache().run_one(&spec);
//! assert!(!telemetry.jobs().is_empty());
//! assert_eq!(lemons.node_ids().len(), 2);
//! ```

pub mod bus;
pub mod config;
pub mod control;
pub mod driver;
pub mod runner;

pub use bus::{SimEvent, SimObserver};
pub use config::{EraPreset, SimConfig};
pub use control::{CommandQueue, ControlCommand, ControlVerb};
pub use driver::ClusterSim;
pub use runner::{CacheStats, ObservedOutcome, ScenarioRunner, ScenarioSpec};
