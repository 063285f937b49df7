//! End-to-end service tests over real sockets: the full client flow, the
//! byte-identity determinism contract under concurrency, the SSE stream
//! pinned against the served alert log, and a bad request that leaves the
//! worker serving.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rsc_monitor::config::MonitorConfig;
use rsc_monitor::monitor::ReliabilityMonitor;
use rsc_monitor::replay::replay_view;
use rsc_serve::cache::SealedAnalysis;
use rsc_serve::client::{self, SseClient, SseFrame};
use rsc_serve::core::ServiceConfig;
use rsc_serve::server::Server;
use rsc_sim::config::SimConfig;
use rsc_sim::runner::ScenarioSpec;

fn temp_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rsc-serve-e2e-{tag}-{}", std::process::id()))
}

fn start_server(cache_dir: &PathBuf) -> Server {
    Server::bind("127.0.0.1:0", ServiceConfig::with_cache_dir(cache_dir), 8)
        .expect("bind ephemeral port")
}

/// The analysis bytes the service *must* serve for a spec, computed
/// entirely in-process: deterministic simulation, replay through the
/// service's monitor config, render once.
fn expected_analysis(spec: &ScenarioSpec, monitor_config: &MonitorConfig) -> String {
    let view = spec.simulate();
    let mut monitor = ReliabilityMonitor::new(monitor_config.clone());
    replay_view(&view, &mut monitor);
    SealedAnalysis::new(
        spec.fingerprint(),
        monitor.report(),
        view.control_actions().to_vec(),
    )
    .json
    .to_string()
}

/// Picks a small scenario whose horizon raises at least one alert, so the
/// SSE-vs-CSV comparison below is not vacuously empty.
fn alerting_spec(monitor_config: &MonitorConfig) -> (ScenarioSpec, usize) {
    for seed in 1..64 {
        let spec = ScenarioSpec::new(SimConfig::small_test_cluster(), seed, 6);
        let view = spec.simulate();
        let mut monitor = ReliabilityMonitor::new(monitor_config.clone());
        replay_view(&view, &mut monitor);
        let alerts = monitor.report().alerts.len();
        if alerts > 0 {
            return (spec, alerts);
        }
    }
    panic!("no small_test seed in 1..64 raises an alert over 6 days");
}

/// `GET target` with `Accept: text/csv`, which [`client::get`] does not
/// send: the status line and the body.
fn get_csv(addr: SocketAddr, target: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nAccept: text/csv\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

fn wait_for_sealed(addr: SocketAddr, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = client::get(addr, &format!("/api/v1/jobs/{job}")).expect("poll status");
        assert_eq!(status.status, 200, "poll answered: {}", status.text());
        let body = status.text();
        if body.contains("\"state\":\"sealed\"") {
            return;
        }
        assert!(!body.contains("\"state\":\"failed\""), "job failed: {body}");
        assert!(Instant::now() < deadline, "job never sealed: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn drain_job_frames(stream: &mut SseClient) -> Vec<SseFrame> {
    let mut frames = Vec::new();
    loop {
        match stream.next_frame().expect("read SSE frame") {
            Some(frame) => {
                let done = frame.event == "finished";
                frames.push(frame);
                if done {
                    return frames;
                }
            }
            None => panic!("stream closed before the finished frame"),
        }
    }
}

#[test]
fn submit_poll_fetch_matches_in_process_analysis_bitwise() {
    let dir = temp_cache("flow");
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_server(&dir);
    let addr = server.local_addr();
    let monitor_config = MonitorConfig::rsc_default();

    let accepted = client::post(addr, "/api/v1/sweeps?preset=small_test&seeds=5&days=3")
        .expect("submit sweep");
    assert_eq!(accepted.status, 202, "submit answered: {}", accepted.text());
    wait_for_sealed(addr, 0);

    let served = client::get(addr, "/api/v1/jobs/0/analysis").expect("fetch analysis");
    assert_eq!(served.status, 200);
    let spec = ScenarioSpec::new(SimConfig::small_test_cluster(), 5, 3);
    // The served bytes equal the in-process computation, bit for bit.
    assert_eq!(served.text(), expected_analysis(&spec, &monitor_config));

    // The fingerprint route serves the same bytes.
    let by_fp = client::get(
        addr,
        &format!("/api/v1/analysis/{:016x}", spec.fingerprint()),
    )
    .expect("fetch by fingerprint");
    assert_eq!(by_fp.body, served.body);

    // A second identical submission is a cache hit (replayed, never
    // re-simulated) and still seals to the same bytes.
    let again =
        client::post(addr, "/api/v1/sweeps?preset=small_test&seeds=5&days=3").expect("resubmit");
    assert_eq!(again.status, 202);
    wait_for_sealed(addr, 1);
    let health = client::get(addr, "/healthz").expect("healthz").text();
    assert!(
        health.contains(
            "\"artifact_cache\":{\"hits\":1,\"misses\":1,\"corrupt\":0,\"publish_failed\":0}"
        ),
        "resubmission was not a cache hit: {health}"
    );
    let replayed = client::get(addr, "/api/v1/jobs/1/analysis").expect("fetch replayed");
    assert_eq!(replayed.body, served.body);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_artifact_is_resimulated_counted_and_served_right() {
    let dir = temp_cache("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = ScenarioSpec::new(SimConfig::small_test_cluster(), 9, 3);
    std::fs::write(dir.join(spec.cache_file_name()), b"not a snapshot\n").unwrap();
    let server = start_server(&dir);
    let addr = server.local_addr();
    let monitor_config = MonitorConfig::rsc_default();

    let accepted =
        client::post(addr, "/api/v1/sweeps?preset=small_test&seeds=9&days=3").expect("submit");
    assert_eq!(accepted.status, 202, "submit answered: {}", accepted.text());
    wait_for_sealed(addr, 0);
    let served = client::get(addr, "/api/v1/jobs/0/analysis").expect("fetch analysis");
    assert_eq!(served.status, 200);
    assert_eq!(served.text(), expected_analysis(&spec, &monitor_config));
    let health = client::get(addr, "/healthz").expect("healthz").text();
    assert!(
        health.contains(
            "\"artifact_cache\":{\"hits\":0,\"misses\":1,\"corrupt\":1,\"publish_failed\":0}"
        ),
        "garbage artifact not counted corrupt: {health}"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_clients_receive_byte_identical_analyses() {
    let dir = temp_cache("concurrent");
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_server(&dir);
    let addr = server.local_addr();
    let monitor_config = MonitorConfig::rsc_default();

    let accepted = client::post(addr, "/api/v1/sweeps?preset=small_test&seeds=9&days=3")
        .expect("submit sweep");
    assert_eq!(accepted.status, 202);
    wait_for_sealed(addr, 0);

    let spec = ScenarioSpec::new(SimConfig::small_test_cluster(), 9, 3);
    let expected = Arc::new(expected_analysis(&spec, &monitor_config));
    let target = format!("/api/v1/analysis/{:016x}", spec.fingerprint());

    // N concurrent clients hammer both analysis routes; every response
    // must be the same bytes, equal to the in-process computation.
    std::thread::scope(|scope| {
        for i in 0..12 {
            let expected = Arc::clone(&expected);
            let target = if i % 2 == 0 {
                target.clone()
            } else {
                "/api/v1/jobs/0/analysis".to_string()
            };
            scope.spawn(move || {
                for _ in 0..5 {
                    let resp = client::get(addr, &target).expect("concurrent fetch");
                    assert_eq!(resp.status, 200);
                    assert_eq!(resp.text(), *expected);
                }
            });
        }
    });

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sse_stream_matches_sealed_alert_log_live_and_replayed() {
    let dir = temp_cache("sse");
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_server(&dir);
    let addr = server.local_addr();
    let monitor_config = MonitorConfig::rsc_default();
    let (spec, expected_alerts) = alerting_spec(&monitor_config);

    // Subscribe before submitting so no frame can be missed.
    let mut live_stream = SseClient::connect(addr, "/api/v1/events?job=0").expect("subscribe");
    let submit = format!(
        "/api/v1/sweeps?preset=small_test&seeds={}&days={}",
        spec.seed, spec.days
    );
    assert_eq!(client::post(addr, &submit).expect("submit").status, 202);
    let live = drain_job_frames(&mut live_stream);
    // The finished frame precedes the seal; the analysis routes answer
    // once the job is sealed.
    wait_for_sealed(addr, 0);

    // Raise frames enumerate the sealed alert log in order: same count
    // and field order as the rows of the served alerts CSV.
    let raises: Vec<&SseFrame> = live.iter().filter(|f| f.event == "alert").collect();
    assert_eq!(
        raises.len(),
        expected_alerts,
        "scenario raised a different alert count"
    );
    let (status, csv) = get_csv(addr, "/api/v1/jobs/0/analysis");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert_eq!(rows.len(), raises.len(), "csv rows vs raise frames");
    for (seq, (frame, row)) in raises.iter().zip(&rows).enumerate() {
        assert!(
            frame.data.starts_with(&format!("{{\"seq\":{seq},")),
            "raise frames out of log order: {}",
            frame.data
        );
        // The csv row leads with kind,node — the frame's alert carries
        // the same identity.
        let mut cols = row.split(',');
        let kind = cols.next().expect("kind column");
        let node = cols.next().expect("node column");
        assert!(frame.data.contains(&format!("\"kind\":\"{kind}\"")));
        let node_json = if node.is_empty() {
            "\"node\":null".to_string()
        } else {
            format!("\"node\":{node}")
        };
        assert!(
            frame.data.contains(&node_json),
            "frame {} vs csv node {node:?}",
            frame.data
        );
    }

    // The same scenario resubmitted hits the artifact cache and replays;
    // the frame sequence must be identical to the live one, event for
    // event (only hub sequence ids differ).
    let mut replay_stream = SseClient::connect(addr, "/api/v1/events?job=1").expect("resubscribe");
    assert_eq!(client::post(addr, &submit).expect("resubmit").status, 202);
    let replayed = drain_job_frames(&mut replay_stream);
    let strip = |frames: &[SseFrame]| -> Vec<(String, String)> {
        frames
            .iter()
            .map(|f| (f.event.clone(), f.data.clone()))
            .collect()
    };
    assert_eq!(strip(&live), strip(&replayed));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_scale_is_a_typed_400_and_the_only_worker_keeps_serving() {
    let dir = temp_cache("bad-scale");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind("127.0.0.1:0", ServiceConfig::with_cache_dir(&dir), 1)
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);

    let rejected = client::post(addr, "/api/v1/sweeps?preset=small_test&scale=1000")
        .expect("a bad scale still gets an answer");
    assert_eq!(rejected.status, 400);
    assert!(
        rejected.text().contains("\"bad_scale\""),
        "{}",
        rejected.text()
    );

    // The one HTTP worker survived the request.
    assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_endpoint_stops_the_service() {
    let dir = temp_cache("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_server(&dir);
    let addr = server.local_addr();
    let down = client::post(addr, "/api/v1/shutdown").expect("shutdown request");
    assert_eq!(down.status, 200);
    // Every thread exits; join would hang forever otherwise.
    server.join();
    // New submissions are refused (connection fails or 503 depending on
    // how far teardown got).
    if let Ok(resp) = client::post(addr, "/api/v1/sweeps?seeds=1") {
        assert_eq!(resp.status, 503);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
