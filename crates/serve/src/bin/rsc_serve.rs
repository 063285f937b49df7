//! The `rsc-serve` binary: a concurrent scenario service over the
//! telemetry artifact cache.
//!
//! ```text
//! rsc-serve [--addr HOST:PORT] [--job-workers N] [--http-workers N]
//!           [--queue N] [--lru N] [--cache-dir PATH] [--smoke]
//! ```
//!
//! `--smoke` runs the full client flow against an ephemeral port —
//! subscribe, submit, poll, fetch twice, compare bytes, shut down — and
//! exits non-zero on any failure; CI uses it as the service's end-to-end
//! gate.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rsc_serve::client;
use rsc_serve::core::ServiceConfig;
use rsc_serve::server::Server;
use rsc_sim::runner::default_cache_dir;
use rsc_sim_core::cli;

const USAGE: &str = "rsc-serve [--addr HOST:PORT] [--job-workers N] [--http-workers N]\n\
                     \x20         [--queue N] [--lru N] [--cache-dir PATH] [--smoke]";

struct Args {
    addr: String,
    job_workers: usize,
    http_workers: usize,
    queue: usize,
    lru: usize,
    cache_dir: PathBuf,
    smoke: bool,
}

/// The parsed command line, or `None` after printing `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let args = cli::parse(
        std::env::args().skip(1),
        &[
            "addr",
            "job-workers",
            "http-workers",
            "queue",
            "lru",
            "cache-dir",
        ],
        &["smoke", "help"],
    )?;
    if args.switch("help") {
        println!("{USAGE}");
        return Ok(None);
    }
    Ok(Some(Args {
        addr: args.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        job_workers: args.parse_or("job-workers", 2)?,
        http_workers: args.parse_or("http-workers", 8)?,
        queue: args.parse_or("queue", 64)?,
        lru: args.parse_or("lru", 32)?,
        cache_dir: args
            .get("cache-dir")
            .map_or_else(default_cache_dir, PathBuf::from),
        smoke: args.switch("smoke"),
    }))
}

fn config_from(args: &Args) -> ServiceConfig {
    let mut config = ServiceConfig::with_cache_dir(&args.cache_dir);
    config.job_workers = args.job_workers;
    config.queue_capacity = args.queue;
    config.lru_capacity = args.lru;
    config
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("rsc-serve: {err}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return match smoke(&args) {
            Ok(()) => {
                println!("rsc-serve smoke: PASS");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("rsc-serve smoke: FAIL: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let server = match Server::bind(&args.addr, config_from(&args), args.http_workers) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("rsc-serve: bind {}: {err}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "rsc-serve listening on {} (cache: {})",
        server.local_addr(),
        args.cache_dir.display()
    );
    println!("  POST /api/v1/sweeps?preset=small_test&seeds=1,2&days=3 to submit");
    println!("  POST /api/v1/shutdown to stop");
    server.join();
    ExitCode::SUCCESS
}

/// The self-contained end-to-end flow: everything a real client does, on
/// an ephemeral port with a private cache dir, finishing with a clean
/// shutdown.
fn smoke(args: &Args) -> Result<(), String> {
    let cache_dir = std::env::temp_dir().join(format!("rsc-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut config = config_from(args);
    config.cache_dir.clone_from(&cache_dir);

    let server =
        Server::bind("127.0.0.1:0", config, args.http_workers).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let result = smoke_flow(addr);
    // The flow ends with POST /api/v1/shutdown; join must return.
    server.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

fn smoke_flow(addr: SocketAddr) -> Result<(), String> {
    let mut stream = client::SseClient::connect(addr, "/api/v1/events?job=0")
        .map_err(|e| format!("subscribe: {e}"))?;

    let accepted = client::post(addr, "/api/v1/sweeps?preset=small_test&seeds=11&days=2")
        .map_err(|e| format!("submit: {e}"))?;
    if accepted.status != 202 {
        return Err(format!(
            "submit answered {}: {}",
            accepted.status,
            accepted.text()
        ));
    }
    println!("submitted: {}", accepted.text());

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client::get(addr, "/api/v1/jobs/0").map_err(|e| format!("poll: {e}"))?;
        let body = status.text();
        if body.contains("\"state\":\"sealed\"") {
            break;
        }
        if body.contains("\"state\":\"failed\"") {
            return Err(format!("job failed: {body}"));
        }
        if Instant::now() > deadline {
            return Err("job never sealed".to_string());
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let first = client::get(addr, "/api/v1/jobs/0/analysis").map_err(|e| format!("fetch: {e}"))?;
    let second =
        client::get(addr, "/api/v1/jobs/0/analysis").map_err(|e| format!("refetch: {e}"))?;
    if first.status != 200 || first.body != second.body {
        return Err("analysis responses were not byte-identical".to_string());
    }
    println!("analysis: {} identical bytes twice", first.body.len());

    // The stream must carry the job to its finished marker.
    loop {
        match stream.next_frame().map_err(|e| format!("stream: {e}"))? {
            Some(frame) if frame.event == "finished" => break,
            Some(_) => continue,
            None => return Err("stream closed before finished frame".to_string()),
        }
    }

    let health = client::get(addr, "/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 || !health.text().contains("\"status\":\"ok\"") {
        return Err(format!("healthz answered {}", health.status));
    }
    println!("healthz: {}", health.text());

    let down = client::post(addr, "/api/v1/shutdown").map_err(|e| format!("shutdown: {e}"))?;
    if down.status != 200 {
        return Err(format!("shutdown answered {}", down.status));
    }
    Ok(())
}
