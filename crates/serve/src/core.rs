//! The socket-free service core: routing, the job pipeline, and the
//! analysis read path.
//!
//! Everything the service *decides* lives here — which handler a request
//! hits, how a sweep becomes queued jobs, how a job executes through the
//! shared [`ScenarioRunner`] with a [`MonitorTap`] attached (live on a
//! cache miss, replayed on a hit), and how a sealed analysis is found
//! (LRU, then the snapshot on disk). Every analysis body — JSON, both
//! CSVs, SSE frames — comes out of one function, [`seal_analysis`], and
//! the sealed snapshot is the only file the service writes.
//! The socket layer in [`crate::server`] only moves bytes. That split is
//! what makes the determinism contract testable: `handle` is a plain
//! function from a parsed [`Request`] to an [`Action`], so byte-identity
//! of responses is asserted without ever opening a port.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rsc_monitor::config::MonitorConfig;
use rsc_monitor::monitor::ReliabilityMonitor;
use rsc_monitor::replay::replay_view;
use rsc_monitor::tap::{MonitorSink, MonitorTap};
use rsc_sim::bus::SharedObserver;
use rsc_sim::config::SimConfig;
use rsc_sim::runner::{snapshot_file_name, ObservedOutcome, ScenarioRunner, ScenarioSpec};
use rsc_telemetry::snapshot::{load_snapshot_file, SnapshotError};
use rsc_telemetry::view::TelemetryView;

use crate::cache::{AnalysisCache, SealedAnalysis};
use crate::events::monitor_event_json;
use crate::http::{Method, Request, Response};
use crate::jobs::{JobRegistry, JobSnapshot, SubmitError};
use crate::json;
use crate::sse::{EventHub, Subscription};

/// Longest accepted sweep horizon, days — bounds how long one queued job
/// can occupy a worker.
pub const MAX_SWEEP_DAYS: u64 = 3650;

/// Tunables for one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queued jobs.
    pub job_workers: usize,
    /// Pending-queue capacity (submissions beyond it get `429`).
    pub queue_capacity: usize,
    /// Resident sealed analyses in the in-memory LRU.
    pub lru_capacity: usize,
    /// Per-SSE-subscriber frame buffer (frames beyond it are dropped and
    /// counted, never blocking the publisher).
    pub sse_buffer: usize,
    /// Artifact-cache directory shared with the batch runners.
    pub cache_dir: PathBuf,
    /// Most seeds accepted in one sweep submission.
    pub max_sweep_jobs: usize,
}

impl ServiceConfig {
    /// Sensible defaults over `cache_dir`: 2 job workers, a 64-deep
    /// queue, 32 resident analyses, 256-frame SSE buffers.
    pub fn with_cache_dir(cache_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            job_workers: 2,
            queue_capacity: 64,
            lru_capacity: 32,
            sse_buffer: 256,
            cache_dir: cache_dir.into(),
            max_sweep_jobs: 32,
        }
    }
}

/// What the socket layer should do with one request.
#[derive(Debug)]
pub enum Action {
    /// Write the response and close.
    Respond(Response),
    /// Switch the connection to an SSE stream fed by this subscription.
    Stream(Subscription),
    /// Write the response, then shut the whole service down.
    Shutdown(Response),
}

/// The shared state behind every connection and worker: the scenario
/// runner (with its artifact cache), the job registry, the analysis LRU,
/// and the SSE hub.
#[derive(Debug)]
pub struct ServiceState {
    config: ServiceConfig,
    runner: ScenarioRunner,
    jobs: JobRegistry,
    cache: AnalysisCache,
    hub: EventHub,
    requests: AtomicU64,
    /// Sealed snapshots that existed on disk but failed to load when a
    /// read asked for them.
    corrupt_reads: AtomicU64,
    /// Requests whose handler panicked; the socket layer answered each
    /// with `500 internal_error`.
    handler_panics: AtomicU64,
}

impl ServiceState {
    /// Builds the state for one service instance.
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        Arc::new(ServiceState {
            runner: ScenarioRunner::new()
                .with_cache_dir(&config.cache_dir)
                .workers(1),
            jobs: JobRegistry::new(config.queue_capacity),
            cache: AnalysisCache::new(config.lru_capacity),
            hub: EventHub::new(config.sse_buffer),
            requests: AtomicU64::new(0),
            corrupt_reads: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            config,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The event hub (exposed for the socket layer and tests).
    pub fn hub(&self) -> &EventHub {
        &self.hub
    }

    /// The job registry (exposed for tests).
    pub fn jobs(&self) -> &JobRegistry {
        &self.jobs
    }

    /// Spawns the job worker pool. Threads exit when
    /// [`Self::begin_shutdown`] runs and the queue drains.
    pub fn spawn_job_workers(self: &Arc<Self>) -> Vec<JoinHandle<()>> {
        (0..self.config.job_workers.max(1))
            .map(|i| {
                let state = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("rsc-serve-job-{i}"))
                    .spawn(move || {
                        while let Some((id, spec)) = state.jobs.claim_next() {
                            state.execute_job(id, &spec);
                        }
                    })
                    .expect("spawn job worker")
            })
            .collect()
    }

    /// Stops accepting and executing work: the queue rejects submissions,
    /// blocked workers wake and exit, every SSE subscriber is closed.
    pub fn begin_shutdown(&self) {
        self.jobs.shutdown();
        self.hub.close_all();
    }

    /// Executes one claimed job through the runner with a [`MonitorTap`]
    /// attached — live on a miss, replayed on a hit, its monitor events
    /// streaming to the hub either way — and seals the analysis into the
    /// LRU.
    fn execute_job(self: &Arc<Self>, id: u64, spec: &ScenarioSpec) {
        let hub = Arc::clone(self);
        let sink: MonitorSink = Box::new(move |event| {
            hub.hub
                .publish(id, event.label(), &monitor_event_json(event));
        });
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let tap = SharedObserver::new(fresh_tap(sink));
            let (view, outcome) = self.runner.run_one_observed(spec, Box::new(tap.clone()));
            tap.with(|tap| seal_analysis(spec.fingerprint(), &view, tap, outcome))
        }));
        match run {
            Ok(sealed) => {
                self.cache.insert(Arc::new(sealed));
                self.jobs.mark_sealed(id);
            }
            Err(_) => {
                self.jobs
                    .mark_failed(id, "panic during scenario execution".to_string());
            }
        }
    }

    /// The sealed analysis for a fingerprint: LRU first, then the on-disk
    /// snapshot replayed through [`seal_analysis`] (and re-inserted). All
    /// three paths — live execution, LRU hit, disk reload — render the
    /// identical bytes, because the analysis is a pure function of
    /// (fingerprint, sealed view, monitor config).
    ///
    /// # Errors
    ///
    /// As [`Self::sealed_view`]: `Ok(None)` when no snapshot is on record.
    pub fn analysis_for(
        &self,
        fingerprint: u64,
    ) -> Result<Option<Arc<SealedAnalysis>>, SnapshotError> {
        if let Some(hit) = self.cache.get(fingerprint) {
            return Ok(Some(hit));
        }
        let Some(view) = self.sealed_view(fingerprint)? else {
            return Ok(None);
        };
        let mut tap = fresh_tap(Box::new(|_| {}));
        let sealed = Arc::new(seal_analysis(
            fingerprint,
            &view,
            &mut tap,
            ObservedOutcome::CachedSkipped,
        ));
        self.cache.insert(Arc::clone(&sealed));
        Ok(Some(sealed))
    }

    /// The sealed snapshot for a fingerprint from the artifact cache, or
    /// `Ok(None)` when there is no such file.
    ///
    /// # Errors
    ///
    /// A snapshot that exists but fails to load (corrupt, truncated, not
    /// readable) is an error, counted in `/healthz`
    /// `artifact_cache.corrupt`, and never reads as missing.
    fn sealed_view(&self, fingerprint: u64) -> Result<Option<TelemetryView>, SnapshotError> {
        let path = self.config.cache_dir.join(snapshot_file_name(fingerprint));
        match load_snapshot_file(&path) {
            Ok(view) => Ok(Some(view)),
            Err(_) if !path.exists() => Ok(None),
            Err(e) => {
                self.corrupt_reads.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Requests handled so far (any route, including rejections).
    pub fn requests_handled(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The counter the socket layer bumps when [`Self::handle`] panics,
    /// served as `/healthz` `handler_panics`.
    pub(crate) fn handler_panics(&self) -> &AtomicU64 {
        &self.handler_panics
    }

    /// Routes one parsed request. Pure with respect to the connection:
    /// no socket I/O happens here.
    pub fn handle(&self, req: &Request) -> Action {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        match (req.method, segments.as_slice()) {
            (Method::Get, ["healthz"]) => Action::Respond(Response::json(200, self.healthz_json())),
            (Method::Post, ["api", "v1", "sweeps"]) => Action::Respond(self.submit_sweep(req)),
            (Method::Get, ["api", "v1", "jobs"]) => {
                let jobs = self.jobs.list();
                let body = format!(
                    "{{\"jobs\":[{}]}}",
                    jobs.iter().map(job_json).collect::<Vec<_>>().join(",")
                );
                Action::Respond(Response::json(200, body))
            }
            (Method::Get, ["api", "v1", "jobs", id]) => Action::Respond(self.job_status(id)),
            (Method::Get, ["api", "v1", "jobs", id, "analysis"]) => {
                Action::Respond(self.job_analysis(id, req))
            }
            (Method::Get, ["api", "v1", "analysis", fp]) => {
                Action::Respond(self.fingerprint_analysis(fp))
            }
            (Method::Get, ["api", "v1", "events"]) => match req.query("job") {
                Some(raw) => match raw.parse::<u64>() {
                    Ok(id) => Action::Stream(self.hub.subscribe(Some(id))),
                    Err(_) => Action::Respond(Response::error(
                        400,
                        "bad_job_id",
                        "job filter must be an integer",
                    )),
                },
                None => Action::Stream(self.hub.subscribe(None)),
            },
            (Method::Post, ["api", "v1", "shutdown"]) => Action::Shutdown(Response::json(
                200,
                "{\"status\":\"shutting_down\"}".to_string(),
            )),
            (Method::Post, ["healthz" | "api", ..]) => Action::Respond(Response::error(
                405,
                "method_not_allowed",
                "use GET for this route",
            )),
            _ => Action::Respond(Response::error(404, "not_found", "unknown route")),
        }
    }

    /// The `/healthz` body: queue depths, artifact-cache counters
    /// (including failed publishes, and corruption whether the runner or
    /// an analysis read found it), LRU counters, SSE hub counters, and
    /// requests handled and panicked.
    fn healthz_json(&self) -> String {
        let queue = self.jobs.counts();
        let artifacts = self.runner.stats();
        let lru = self.cache.stats();
        let sse = self.hub.stats();
        json::Object::new()
            .field("status", "\"ok\"")
            .field(
                "queue",
                &json::Object::new()
                    .field("queued", &queue.queued.to_string())
                    .field("running", &queue.running.to_string())
                    .field("sealed", &queue.sealed.to_string())
                    .field("failed", &queue.failed.to_string())
                    .field("capacity", &queue.capacity.to_string())
                    .finish(),
            )
            .field(
                "artifact_cache",
                &json::Object::new()
                    .field("hits", &artifacts.hits.to_string())
                    .field("misses", &artifacts.misses.to_string())
                    .field(
                        "corrupt",
                        &(artifacts.corrupt as u64 + self.corrupt_reads.load(Ordering::Relaxed))
                            .to_string(),
                    )
                    .field("publish_failed", &artifacts.publish_failed.to_string())
                    .finish(),
            )
            .field(
                "analysis_lru",
                &json::Object::new()
                    .field("entries", &lru.entries.to_string())
                    .field("capacity", &self.config.lru_capacity.to_string())
                    .field("hits", &lru.hits.to_string())
                    .field("misses", &lru.misses.to_string())
                    .field("evictions", &lru.evictions.to_string())
                    .finish(),
            )
            .field(
                "sse",
                &json::Object::new()
                    .field("subscribers", &sse.subscribers.to_string())
                    .field("published", &sse.published.to_string())
                    .field("dropped", &sse.dropped.to_string())
                    .finish(),
            )
            .field("requests", &self.requests_handled().to_string())
            .field(
                "handler_panics",
                &self.handler_panics.load(Ordering::Relaxed).to_string(),
            )
            .finish()
    }

    /// `POST /api/v1/sweeps?preset=&seeds=&days=&scale=` — expands the
    /// sweep into one queued job per seed.
    fn submit_sweep(&self, req: &Request) -> Response {
        let preset = req.query("preset").unwrap_or("small_test");
        let scale = match req.query("scale").map(str::parse::<u32>) {
            None => None,
            Some(Ok(d)) if d > 0 => Some(d),
            Some(_) => {
                return Response::error(400, "bad_scale", "scale must be a positive integer")
            }
        };
        let Some(base) = preset_config(preset) else {
            return Response::error(
                400,
                "unknown_preset",
                "preset must be small_test, rsc1, or rsc2",
            );
        };
        let config = match scale {
            Some(divisor) if base.cluster.num_nodes() / divisor == 0 => {
                return Response::error(
                    400,
                    "bad_scale",
                    "scale must leave the preset at least one node",
                )
            }
            Some(divisor) if divisor > 1 => base.scaled_down(divisor),
            _ => base,
        };
        let days = match req.query("days").map(str::parse::<u64>) {
            None => 3,
            Some(Ok(d)) if (1..=MAX_SWEEP_DAYS).contains(&d) => d,
            Some(_) => {
                return Response::error(400, "bad_days", "days must be an integer in 1..=3650")
            }
        };
        let seeds = match parse_seeds(req.query("seeds").unwrap_or("1")) {
            Some(seeds) if !seeds.is_empty() => seeds,
            _ => {
                return Response::error(
                    400,
                    "bad_seeds",
                    "seeds must be a comma-separated list of integers",
                )
            }
        };
        if seeds.len() > self.config.max_sweep_jobs {
            return Response::error(400, "too_many_seeds", "sweep exceeds max_sweep_jobs");
        }

        let mut accepted = Vec::new();
        for &seed in &seeds {
            let spec = ScenarioSpec::new(config.clone(), seed, days);
            match self.jobs.submit(spec, preset) {
                Ok(id) => accepted.push((id, seed)),
                Err(SubmitError::QueueFull) => {
                    // Jobs already accepted stay queued; the client sees
                    // how far the sweep got and can resubmit the rest.
                    return Response::error(
                        429,
                        "queue_full",
                        &format!(
                            "queue full after {} of {} jobs",
                            accepted.len(),
                            seeds.len()
                        ),
                    );
                }
                Err(SubmitError::ShuttingDown) => {
                    return Response::error(503, "shutting_down", "service is shutting down")
                }
            }
        }
        let jobs = accepted
            .iter()
            .map(|(id, seed)| {
                let snap = self.jobs.get(*id).expect("just submitted");
                json::Object::new()
                    .field("id", &id.to_string())
                    .field("seed", &seed.to_string())
                    .field(
                        "fingerprint",
                        &json::string(&format!("{:016x}", snap.fingerprint)),
                    )
                    .finish()
            })
            .collect::<Vec<_>>()
            .join(",");
        Response::json(
            202,
            json::Object::new()
                .field("preset", &json::string(preset))
                .field("days", &days.to_string())
                .field("jobs", &format!("[{jobs}]"))
                .finish(),
        )
    }

    fn job_status(&self, raw_id: &str) -> Response {
        match raw_id.parse::<u64>().ok().and_then(|id| self.jobs.get(id)) {
            Some(snap) => Response::json(200, job_json(&snap)),
            None => Response::error(404, "unknown_job", "no such job id"),
        }
    }

    /// `GET /api/v1/jobs/{id}/analysis` — the canonical analysis JSON,
    /// or, when the client sends `Accept: text/csv`, a CSV download of
    /// the sealed alert log (`?kind=alerts`, the default) or control
    /// actions (`?kind=actions`).
    fn job_analysis(&self, raw_id: &str, req: &Request) -> Response {
        let snap = match raw_id.parse::<u64>().ok().and_then(|id| self.jobs.get(id)) {
            Some(snap) => snap,
            None => return Response::error(404, "unknown_job", "no such job id"),
        };
        match &snap.state {
            crate::jobs::JobState::Sealed => {
                if wants_csv(req) {
                    return self
                        .analysis_csv(snap.fingerprint, req.query("kind").unwrap_or("alerts"));
                }
                match self.analysis_for(snap.fingerprint) {
                    Ok(Some(sealed)) => Response::json(200, sealed.json.to_string()),
                    Ok(None) => {
                        Response::error(404, "analysis_missing", "sealed artifact not found")
                    }
                    Err(e) => corrupt_artifact(&e),
                }
            }
            crate::jobs::JobState::Failed(detail) => Response::error(500, "job_failed", detail),
            _ => Response::error(409, "not_sealed", "job has not sealed yet; poll its status"),
        }
    }

    /// One CSV body of a fingerprint's sealed analysis, rendered from the
    /// analysis [`Self::analysis_for`] finds, so it is the same bytes on
    /// every path.
    fn analysis_csv(&self, fingerprint: u64, kind: &str) -> Response {
        let render: fn(&SealedAnalysis) -> Vec<u8> = match kind {
            "alerts" => SealedAnalysis::alerts_csv,
            "actions" => SealedAnalysis::actions_csv,
            _ => return Response::error(400, "bad_kind", "kind must be alerts or actions"),
        };
        match self.analysis_for(fingerprint) {
            Ok(Some(sealed)) => Response::csv(200, render(&sealed)),
            Ok(None) => Response::error(404, "csv_missing", "sealed CSV artifact not found"),
            Err(e) => corrupt_artifact(&e),
        }
    }

    fn fingerprint_analysis(&self, raw_fp: &str) -> Response {
        let found = u64::from_str_radix(raw_fp, 16)
            .ok()
            .map_or(Ok(None), |fp| self.analysis_for(fp));
        match found {
            Ok(Some(sealed)) => Response::json(200, sealed.json.to_string()),
            Ok(None) => Response::error(404, "unknown_fingerprint", "no sealed analysis on record"),
            Err(e) => corrupt_artifact(&e),
        }
    }
}

/// A tap over a fresh monitor with the configuration every analysis the
/// service serves is derived under.
fn fresh_tap(sink: MonitorSink) -> MonitorTap {
    MonitorTap::new(ReliabilityMonitor::new(MonitorConfig::rsc_default()), sink)
}

/// Derives the sealed analysis of one view: the single path every served
/// analysis body — JSON, both CSVs, SSE frames — comes out of. A tap that
/// watched the run live already holds its end state; on
/// [`ObservedOutcome::CachedSkipped`] the view is replayed into it first,
/// which streams the identical event sequence to its sink.
fn seal_analysis(
    fingerprint: u64,
    view: &TelemetryView,
    tap: &mut MonitorTap,
    outcome: ObservedOutcome,
) -> SealedAnalysis {
    if outcome == ObservedOutcome::CachedSkipped {
        replay_view(view, tap);
    }
    SealedAnalysis::new(
        fingerprint,
        tap.monitor().report(),
        view.control_actions().to_vec(),
    )
}

/// The answer for a sealed artifact that exists but failed to load: a
/// server-side fault, not a missing resource.
fn corrupt_artifact(e: &SnapshotError) -> Response {
    Response::error(
        500,
        "artifact_corrupt",
        &format!("sealed artifact failed to load: {e}"),
    )
}

/// Whether the request negotiates a CSV body (`Accept` mentions
/// `text/csv`). Anything else — absent header, `*/*`, JSON — keeps the
/// canonical JSON body.
fn wants_csv(req: &Request) -> bool {
    req.header("accept")
        .is_some_and(|v| v.to_ascii_lowercase().contains("text/csv"))
}

/// Renders one job record.
fn job_json(snap: &JobSnapshot) -> String {
    let error = match &snap.state {
        crate::jobs::JobState::Failed(detail) => json::string(detail),
        _ => "null".to_string(),
    };
    json::Object::new()
        .field("id", &snap.id.to_string())
        .field("preset", &json::string(&snap.preset))
        .field("seed", &snap.seed.to_string())
        .field("days", &snap.days.to_string())
        .field(
            "fingerprint",
            &json::string(&format!("{:016x}", snap.fingerprint)),
        )
        .field("state", &json::string(snap.state.label()))
        .field("error", &error)
        .finish()
}

/// Resolves a preset name to its full-size configuration.
fn preset_config(preset: &str) -> Option<SimConfig> {
    match preset {
        "small_test" => Some(SimConfig::small_test_cluster()),
        "rsc1" => Some(SimConfig::rsc1()),
        "rsc2" => Some(SimConfig::rsc2()),
        _ => None,
    }
}

/// Parses `1,2,3` into seeds; `None` on any non-integer entry.
fn parse_seeds(raw: &str) -> Option<Vec<u64>> {
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse::<u64>().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use std::time::{Duration, Instant};

    fn temp_cache(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rsc-serve-core-{tag}-{}", std::process::id()))
    }

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        parse_request(&mut raw.as_bytes()).unwrap().unwrap()
    }

    fn post(path: &str) -> Request {
        let raw = format!("POST {path} HTTP/1.1\r\n\r\n");
        parse_request(&mut raw.as_bytes()).unwrap().unwrap()
    }

    fn respond(state: &ServiceState, req: &Request) -> Response {
        match state.handle(req) {
            Action::Respond(r) | Action::Shutdown(r) => r,
            Action::Stream(_) => panic!("expected plain response"),
        }
    }

    fn wait_sealed(state: &ServiceState, id: u64) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match state.jobs().get(id).map(|s| s.state) {
                Some(crate::jobs::JobState::Sealed) => return,
                Some(crate::jobs::JobState::Failed(e)) => panic!("job failed: {e}"),
                _ if Instant::now() > deadline => panic!("job never sealed"),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    #[test]
    fn routes_reject_unknowns_with_typed_errors() {
        let dir = temp_cache("routes");
        let state = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        assert_eq!(respond(&state, &get("/nope")).status, 404);
        assert_eq!(respond(&state, &post("/healthz")).status, 405);
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?preset=bogus")).status,
            400
        );
        assert_eq!(respond(&state, &post("/api/v1/sweeps?days=0")).status, 400);
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?seeds=1,x")).status,
            400
        );
        // A scale that divides the preset down to no nodes.
        let bad_scale = respond(&state, &post("/api/v1/sweeps?preset=small_test&scale=1000"));
        assert_eq!(bad_scale.status, 400);
        assert!(String::from_utf8(bad_scale.body)
            .unwrap()
            .contains("\"bad_scale\""));
        // The largest scale that leaves one node is accepted.
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?preset=small_test&scale=64")).status,
            202
        );
        assert_eq!(respond(&state, &get("/api/v1/jobs/99")).status, 404);
        assert_eq!(respond(&state, &get("/api/v1/analysis/zz")).status, 404);
        let health = respond(&state, &get("/healthz"));
        assert_eq!(health.status, 200);
        let body = String::from_utf8(health.body).unwrap();
        assert!(body.starts_with("{\"status\":\"ok\",\"queue\":{"));
        assert!(body.contains(
            "\"artifact_cache\":{\"hits\":0,\"misses\":0,\"corrupt\":0,\"publish_failed\":0}"
        ));
        assert!(body.ends_with(",\"handler_panics\":0}"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_overflow_surfaces_as_429() {
        let dir = temp_cache("overflow");
        let mut config = ServiceConfig::with_cache_dir(&dir);
        config.queue_capacity = 1;
        // No workers spawned: the queue never drains.
        let state = ServiceState::new(config);
        let first = respond(&state, &post("/api/v1/sweeps?seeds=1"));
        assert_eq!(first.status, 202);
        let second = respond(&state, &post("/api/v1/sweeps?seeds=2"));
        assert_eq!(second.status, 429);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_job_serves_byte_identical_analysis_on_every_path() {
        let dir = temp_cache("identity");
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let workers = state.spawn_job_workers();

        let accepted = respond(
            &state,
            &post("/api/v1/sweeps?preset=small_test&seeds=5&days=2"),
        );
        assert_eq!(accepted.status, 202);
        let body = String::from_utf8(accepted.body).unwrap();
        assert!(body.contains("\"jobs\":[{\"id\":0,"));
        wait_sealed(&state, 0);

        let via_job = respond(&state, &get("/api/v1/jobs/0/analysis"));
        assert_eq!(via_job.status, 200);
        let fp = state.jobs().get(0).unwrap().fingerprint;
        let via_fp = respond(&state, &get(&format!("/api/v1/analysis/{fp:016x}")));
        assert_eq!(via_job.body, via_fp.body);

        // Evict the LRU entry by rebuilding the state: the disk-reload
        // path (snapshot -> replay -> render) must produce identical
        // bytes.
        let fresh = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let reloaded = respond(&fresh, &get(&format!("/api/v1/analysis/{fp:016x}")));
        assert_eq!(reloaded.status, 200);
        assert_eq!(via_job.body, reloaded.body);

        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn get_csv(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\nAccept: text/csv\r\n\r\n");
        parse_request(&mut raw.as_bytes()).unwrap().unwrap()
    }

    /// Both CSV bodies of a spec, computed in-process: simulate, replay
    /// through the service's monitor config, render.
    fn expected_csvs(spec: &ScenarioSpec) -> (Vec<u8>, Vec<u8>) {
        use rsc_monitor::export::{
            actions_rows, alerts_rows, ACTIONS_CSV_HEADER, ALERTS_CSV_HEADER,
        };
        use rsc_telemetry::csv::write_csv;
        let view = spec.simulate();
        let mut monitor = ReliabilityMonitor::new(MonitorConfig::rsc_default());
        replay_view(&view, &mut monitor);
        let (mut alerts, mut actions) = (Vec::new(), Vec::new());
        write_csv(
            &mut alerts,
            &ALERTS_CSV_HEADER,
            alerts_rows(&monitor.report().alerts),
        )
        .unwrap();
        write_csv(
            &mut actions,
            &ACTIONS_CSV_HEADER,
            actions_rows(view.control_actions()),
        )
        .unwrap();
        (alerts, actions)
    }

    #[test]
    fn accept_csv_downloads_sealed_artifacts() {
        let dir = temp_cache("csv");
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let workers = state.spawn_job_workers();
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?seeds=5&days=2")).status,
            202
        );
        wait_sealed(&state, 0);
        let fp = state.jobs().get(0).unwrap().fingerprint;
        let (expected_alerts, expected_actions) =
            expected_csvs(&ScenarioSpec::new(SimConfig::small_test_cluster(), 5, 2));

        // Default JSON is untouched by the negotiation.
        let json = respond(&state, &get("/api/v1/jobs/0/analysis"));
        assert_eq!(json.content_type, "application/json");

        // Accept: text/csv serves the sealed alert log.
        let alerts = respond(&state, &get_csv("/api/v1/jobs/0/analysis"));
        assert_eq!((alerts.status, alerts.content_type), (200, "text/csv"));
        assert_eq!(alerts.body, expected_alerts);
        assert!(alerts.body.starts_with(b"kind,node,raised_at_days"));

        // kind=actions selects the control-action log.
        let actions = respond(&state, &get_csv("/api/v1/jobs/0/analysis?kind=actions"));
        assert_eq!((actions.status, actions.content_type), (200, "text/csv"));
        assert_eq!(actions.body, expected_actions);

        // A cold LRU reloads the snapshot and renders the same bytes.
        let fresh = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        assert_eq!(fresh.analysis_csv(fp, "alerts").body, expected_alerts);
        assert_eq!(fresh.analysis_csv(fp, "actions").body, expected_actions);

        // Unknown kinds reject crisply.
        assert_eq!(
            respond(&state, &get_csv("/api/v1/jobs/0/analysis?kind=nope")).status,
            400
        );

        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_dir_still_seals_and_serves_from_the_lru() {
        // A cache dir below a regular file fails every create with
        // ENOTDIR, even for root (which permission bits would not stop).
        let blocker = temp_cache("unwritable");
        let _ = std::fs::remove_dir_all(&blocker);
        std::fs::write(&blocker, b"a file, not a directory\n").unwrap();
        let state = ServiceState::new(ServiceConfig::with_cache_dir(blocker.join("cache")));
        let workers = state.spawn_job_workers();
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?seeds=5&days=2")).status,
            202
        );
        wait_sealed(&state, 0);

        // Nothing reached the disk, so every read comes from the LRU.
        let json = respond(&state, &get("/api/v1/jobs/0/analysis"));
        assert_eq!(json.status, 200);
        let fp = state.jobs().get(0).unwrap().fingerprint;
        let expected = state.analysis_for(fp).unwrap().unwrap();
        assert_eq!(json.body, expected.json.as_bytes());
        // Both CSV bodies render from the resident analysis, the same
        // bytes a writable cache dir serves.
        let (expected_alerts, expected_actions) =
            expected_csvs(&ScenarioSpec::new(SimConfig::small_test_cluster(), 5, 2));
        let alerts = respond(&state, &get_csv("/api/v1/jobs/0/analysis"));
        assert_eq!((alerts.status, alerts.content_type), (200, "text/csv"));
        assert_eq!(alerts.body, expected_alerts);
        let actions = respond(&state, &get_csv("/api/v1/jobs/0/analysis?kind=actions"));
        assert_eq!((actions.status, actions.content_type), (200, "text/csv"));
        assert_eq!(actions.body, expected_actions);
        assert_eq!(
            actions.body,
            b"kind,trigger,at_days,node,job,accepted,value\n"
        );

        // The worker was freed: a second job seals too.
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?seeds=6&days=2")).status,
            202
        );
        wait_sealed(&state, 1);
        let health = String::from_utf8(respond(&state, &get("/healthz")).body).unwrap();
        assert!(
            health.contains(
                "\"artifact_cache\":{\"hits\":0,\"misses\":2,\"corrupt\":0,\"publish_failed\":2}"
            ),
            "{health}"
        );

        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn corrupt_sealed_artifact_is_a_typed_500_not_a_404() {
        let dir = temp_cache("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let workers = state.spawn_job_workers();
        assert_eq!(
            respond(&state, &post("/api/v1/sweeps?seeds=5&days=2")).status,
            202
        );
        wait_sealed(&state, 0);
        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let fp = state.jobs().get(0).unwrap().fingerprint;

        // Re-spell the first row after the first frame line with a leading
        // `+`: the same record, bytes the writer never emits.
        let snap = dir.join(snapshot_file_name(fp));
        let text = std::fs::read_to_string(&snap).unwrap();
        let frame = text.find("\nframe ").unwrap() + 1;
        let row = frame + text[frame..].find('\n').unwrap() + 1;
        std::fs::write(&snap, format!("{}+{}", &text[..row], &text[row..])).unwrap();

        // A fresh state has a cold LRU, so the read goes to disk.
        let fresh = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let resp = respond(&fresh, &get(&format!("/api/v1/analysis/{fp:016x}")));
        assert_eq!(resp.status, 500);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("\"artifact_corrupt\""));
        let missing = respond(&fresh, &get(&format!("/api/v1/analysis/{:016x}", fp ^ 1)));
        assert_eq!(missing.status, 404);

        // The CSV route reads the same snapshot on a cold LRU.
        let actions = fresh.analysis_csv(fp, "actions");
        assert_eq!(actions.status, 500);
        assert!(String::from_utf8(actions.body)
            .unwrap()
            .contains("\"artifact_corrupt\""));
        let health = String::from_utf8(respond(&fresh, &get("/healthz")).body).unwrap();
        assert!(health.contains("\"corrupt\":2,"), "{health}");
        // The state whose LRU holds the analysis never reads the disk.
        let actions = respond(&state, &get_csv("/api/v1/jobs/0/analysis?kind=actions"));
        assert_eq!(actions.status, 200);
        let health = String::from_utf8(respond(&state, &get("/healthz")).body).unwrap();
        assert!(health.contains("\"corrupt\":0,"), "{health}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sealed_jobs_leave_only_snapshots_in_the_cache_dir() {
        let dir = temp_cache("only-snapshots");
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let workers = state.spawn_job_workers();
        // Seed 5 twice: the second job is an artifact-cache hit, replayed.
        for (id, seeds) in [(0, "5,6"), (2, "5")] {
            let accepted = respond(
                &state,
                &post(&format!("/api/v1/sweeps?seeds={seeds}&days=2")),
            );
            assert_eq!(accepted.status, 202);
            wait_sealed(&state, id);
        }
        wait_sealed(&state, 1);
        let health = String::from_utf8(respond(&state, &get("/healthz")).body).unwrap();
        assert!(health.contains("\"hits\":1,\"misses\":2,"), "{health}");

        let mut expected: Vec<String> = (0..2)
            .map(|id| snapshot_file_name(state.jobs().get(id).unwrap().fingerprint))
            .collect();
        expected.sort();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, expected);

        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_stream_carries_monitor_events_and_finishes() {
        let dir = temp_cache("stream");
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServiceState::new(ServiceConfig::with_cache_dir(&dir));
        let sub = match state.handle(&get("/api/v1/events?job=0")) {
            Action::Stream(sub) => sub,
            other => panic!("expected stream, got {other:?}"),
        };
        let workers = state.spawn_job_workers();
        let accepted = respond(&state, &post("/api/v1/sweeps?seeds=3&days=2"));
        assert_eq!(accepted.status, 202);
        wait_sealed(&state, 0);

        let mut saw_finished = false;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match sub.try_recv() {
                Some(frame) if frame.contains("event: finished\n") => {
                    saw_finished = true;
                    break;
                }
                Some(_) => continue,
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(saw_finished, "stream never delivered the finished frame");

        state.begin_shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
