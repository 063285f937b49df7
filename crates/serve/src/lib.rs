//! `rsc-serve`: a long-running, dependency-light scenario service over
//! the telemetry artifact cache, with live alert streaming.
//!
//! The batch tooling in this workspace answers reliability questions one
//! process at a time: run a sweep, read the sealed artifacts. This crate
//! turns the same substrate into a *service* — many clients submitting
//! scenario sweeps, polling job state, fetching sealed analyses
//! (per-size MTTF with confidence intervals, ETTR, availability, lemon
//! scores, control actions) as JSON, and following alerts, estimator
//! heartbeats, and control actions live over Server-Sent Events — the
//! shape a production reliability dashboard sits on.
//!
//! Built on `std` only (`TcpListener` + worker threads), like the rest
//! of the workspace:
//!
//! - [`http`] — a bounded, panic-free HTTP/1.1 parser and response
//!   writer; every malformed input maps to a typed 4xx.
//! - [`core`] — the socket-free service brain: routing, the sweep → job
//!   pipeline over `rsc_sim::runner::ScenarioRunner` with a
//!   `rsc_monitor::tap::MonitorTap` attached (artifact-cache hits replay
//!   instead of re-simulating), and the analysis read path. One function
//!   there derives every analysis body — JSON, alerts and actions CSV, SSE
//!   frames — from a sealed view; the sealed snapshot is the only file the
//!   service writes.
//! - [`jobs`] — the bounded job queue and its state machine
//!   (queued → running → sealed/failed); overflow is a visible `429`.
//! - [`cache`] — the in-memory LRU of sealed analyses over the on-disk
//!   artifact cache.
//! - [`sse`] — the event fan-out hub: bounded per-subscriber buffers,
//!   slow consumers drop (counted) instead of blocking.
//! - [`events`] — `rsc_monitor::tap::MonitorEvent` → SSE JSON payloads.
//! - [`server`] — the accept loop, HTTP worker pool, and SSE streamer
//!   threads.
//! - [`client`] — a minimal blocking client for tests, the bench, and
//!   the smoke flow.
//!
//! # The determinism contract
//!
//! An analysis response is a pure function of the scenario fingerprint
//! and the monitor configuration: the simulation is deterministic in
//! (config, seed), a cache hit replays the sealed view through the same
//! monitor, and the JSON is rendered once from the resulting report. So
//! the same request returns **byte-identical** bodies whether the
//! scenario was computed live, replayed from the artifact cache, served
//! from the LRU, or reloaded from disk by a different process — and N
//! concurrent clients all receive those same bytes (`tests/e2e.rs` pins
//! this over real sockets). The SSE stream inherits the same property:
//! live and replayed runs emit identical frame sequences, and alert
//! frames enumerate the served alerts CSV rows in order.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod core;
pub mod events;
pub mod http;
pub mod jobs;
pub mod server;
pub mod sse;

/// The workspace's one JSON writer, re-exported under its old path.
pub use rsc_telemetry::json;
