#![warn(missing_docs)]

//! Telemetry collection and querying for the `rsc-reliability` workspace.
//!
//! A [`store::TelemetryStore`] gathers everything a simulated cluster run
//! logs — job accounting records, health-check events, node lifecycle
//! transitions, user node exclusions, and the ground-truth failure stream —
//! and seals into an immutable [`view::TelemetryView`] with the per-node,
//! time-sorted indexes the analyses in `rsc-core` are built on — window
//! queries on a sealed view are `&self` binary searches, so one run can be
//! shared across analyses and threads. [`record`] describes each of the
//! seven record types once (section, row codec, chain fold), [`snapshot`]
//! persists a sealed view to disk in a versioned, hand-rolled text format
//! (the scenario cache's artifact), [`rolling`] provides the 30-day rolling failure-rate series
//! behind the paper's Fig. 5, [`csv`] a dependency-free CSV exporter,
//! [`json`] the workspace's one JSON writer (every JSON body is built
//! with it), and [`trace`] a `sacct`-like job-trace schema so the analyses
//! can run over real accounting data.
//!
//! # Example
//!
//! ```
//! use rsc_telemetry::rolling::rolling_rate;
//! use rsc_sim_core::time::{SimDuration, SimTime};
//!
//! let failures = vec![SimTime::from_days(10), SimTime::from_days(12)];
//! let series = rolling_rate(
//!     &failures,
//!     SimTime::from_days(60),
//!     SimDuration::from_days(30),
//!     SimDuration::from_days(5),
//!     100,
//! );
//! assert!(!series.is_empty());
//! ```

pub mod chain;
pub mod csv;
pub mod json;
pub mod record;
pub mod rolling;
mod rows;
pub mod snapshot;
pub mod store;
pub mod trace;
pub mod view;

pub use chain::{ChainHasher, GENESIS};
pub use record::{Record, Streams};
pub use store::{
    CheckpointFallbackEvent, ControlActionEvent, ControlActionKind, ControlTrigger, ExclusionEvent,
    NodeEvent, NodeEventKind, SegmentStats, TelemetryStore,
};
pub use view::TelemetryView;
