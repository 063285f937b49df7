//! `rsc-monitor`: an online streaming reliability monitor over the
//! simulator's event bus.
//!
//! The batch analyses in `rsc-core` answer reliability questions after a
//! run has sealed its telemetry. This crate answers the same questions
//! *while the run is happening*, the way a production observability stack
//! would: a [`ReliabilityMonitor`] attaches to the
//! [`rsc_sim::bus`] event stream and feeds each event to bounded-memory
//! incremental estimators. The exact readouts are the `rsc-core` folds
//! the batch analyses run over a sealed view, fed live, so streaming
//! equals batch by construction:
//!
//! - cumulative per-job-size MTTF with Gamma confidence intervals
//!   ([`rsc_core::mttf::MttfBuckets`], behind
//!   [`rsc_core::mttf::mttf_by_job_size`]);
//! - the status-only failure rate `r_f`
//!   ([`rsc_core::mttf::StreamingFailureRate`]) and a continuously
//!   re-evaluated analytic expected ETTR for a reference job (paper
//!   Eq. 1);
//! - fleet availability, MTTR and lost node-days
//!   ([`rsc_core::availability::RemediationVisits`]);
//! - windowed lemon scores over the paper's Table-II signals
//!   ([`rsc_core::lemon::WindowedLemon`]).
//!
//! What only an online consumer needs lives here ([`estimators`]): the
//! arrival-order MTTF totals that set the regression alert's threshold, a
//! rolling-window MTTF with a moment-based interval, log-bucketed
//! time-to-detect / time-to-repair histograms and the event counters;
//! plus a typed, deduplicated alert pipeline ([`alerts`]) with
//! raise/clear hysteresis and debounce.
//!
//! Two delivery paths produce identical end states: live attachment
//! during simulation, and [`replay::replay_view`] over a sealed
//! [`rsc_telemetry::view::TelemetryView`] (used when the scenario cache
//! skips simulation, and by `rsc-serve` to rebuild an analysis from a
//! sealed snapshot). [`tap::MonitorTap`] streams the monitor's
//! transitions either way; [`export`] renders its alert log and a view's
//! control actions as CSV rows. The crate writes no files. The agreement
//! tests in `tests/agreement.rs` pin that the live bus and the replay
//! deliver every record: the exact readouts equal the batch analyses bit
//! for bit, histogram-based readouts match within documented tolerances,
//! and a live and a replayed report are equal.
//!
//! # Quickstart
//!
//! ```
//! use rsc_monitor::config::MonitorConfig;
//! use rsc_monitor::monitor::ReliabilityMonitor;
//! use rsc_sim::bus::SharedObserver;
//! use rsc_sim::config::SimConfig;
//! use rsc_sim::driver::ClusterSim;
//! use rsc_sim_core::time::SimDuration;
//!
//! let handle = SharedObserver::new(ReliabilityMonitor::new(MonitorConfig::rsc_default()));
//! let mut sim = ClusterSim::new(SimConfig::small_test_cluster(), 42);
//! sim.attach_observer(Box::new(handle.clone()));
//! sim.run(SimDuration::from_days(3));
//! let report = handle.with(|m| m.report());
//! assert!(report.counters.jobs > 0);
//! ```

#![warn(missing_docs)]

pub mod alerts;
pub mod config;
pub mod estimators;
pub mod export;
pub mod monitor;
pub mod replay;
pub mod report;
pub mod tap;

pub use alerts::{Alert, AlertEngine, AlertKey, AlertSignal};
pub use config::{AlertPolicy, MonitorConfig, RefJob};
pub use estimators::{
    Counters, DetectionLatency, LogHistogram, RollingMttf, RollingMttfEstimate,
    StreamingAvailability, StreamingMttf,
};
pub use monitor::ReliabilityMonitor;
pub use replay::replay_view;
pub use report::{HistogramSummary, LemonSuspect, MonitorReport};
