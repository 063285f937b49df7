#![warn(missing_docs)]

//! Discrete-event simulation foundation for the `rsc-reliability` workspace.
//!
//! This crate provides the deterministic building blocks every other crate
//! rests on:
//!
//! - [`cli`] — the command-line flag parser every tool shares;
//! - [`time`] — integer-second [`time::SimTime`] / [`time::SimDuration`]
//!   newtypes with saturating arithmetic;
//! - [`event`] — a future-event queue with deterministic tie-breaking;
//! - [`fnv`] — the FNV-1a hash behind artifact fingerprints and
//!   sealed-snapshot pins;
//! - [`bitset`] — a hierarchical bitset backing the queue's sparse slot
//!   index and the scheduler's hot node indexes;
//! - [`rng`] — a fork-able seeded RNG plus the distribution samplers used by
//!   the failure and workload models;
//! - [`stats`] — streaming statistics, quantiles, and empirical CDFs;
//! - [`special`] — log-gamma, incomplete gamma, and normal/Gamma
//!   CDF/quantile functions backing the confidence-interval math.
//!
//! # Example
//!
//! A minimal self-stepping simulation:
//!
//! ```
//! use rsc_sim_core::event::EventQueue;
//! use rsc_sim_core::rng::SimRng;
//! use rsc_sim_core::time::{SimDuration, SimTime};
//!
//! let mut rng = SimRng::seed_from(1);
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//! let mut arrivals = 0;
//! while let Some((now, ())) = queue.pop_until(SimTime::from_hours(1)) {
//!     arrivals += 1;
//!     let gap = SimDuration::from_secs_f64(rng.exponential(1.0 / 60.0));
//!     queue.schedule(now + gap, ());
//! }
//! assert!(arrivals > 0);
//! ```

pub mod bitset;
pub mod cli;
pub mod event;
pub mod fnv;
pub mod rng;
pub mod special;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
