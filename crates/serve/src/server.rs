//! The socket layer: a `TcpListener` accept loop feeding a bounded HTTP
//! worker pool, with SSE connections handed off to dedicated streamer
//! threads.
//!
//! Nothing here makes a routing or serialization decision — every request
//! goes through [`ServiceState::handle`] and every byte written comes
//! from a [`Response`] or a pre-rendered SSE frame. The pool bounds
//! concurrent request parsing; streaming connections move off the pool so
//! a slow SSE consumer can never starve request handling (its buffer is
//! bounded by the hub instead — see [`crate::sse`]). A handler that
//! panics costs its request a typed `500 internal_error`, never the
//! worker.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::core::{Action, ServiceConfig, ServiceState};
use crate::http::{parse_request, Request, Response};
use crate::sse::Subscription;

/// How long a worker waits for a slow client to send its request.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Streamer wake-up cadence for checking hub shutdown on an idle stream.
const SSE_POLL: Duration = Duration::from_millis(200);

/// The pending-connection queue between the accept loop and the pool.
#[derive(Debug, Default)]
struct ConnQueue {
    inner: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn push(&self, conn: TcpStream) {
        let mut inner = self.inner.lock().expect("conn queue poisoned");
        if inner.1 {
            return; // shutting down: drop the connection
        }
        inner.0.push_back(conn);
        self.ready.notify_one();
    }

    /// Next connection, or `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().expect("conn queue poisoned");
        loop {
            if let Some(conn) = inner.0.pop_front() {
                return Some(conn);
            }
            if inner.1 {
                return None;
            }
            inner = self.ready.wait(inner).expect("conn queue poisoned");
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().expect("conn queue poisoned");
        inner.1 = true;
        self.ready.notify_all();
    }
}

#[derive(Debug)]
struct Shared {
    state: Arc<ServiceState>,
    conns: ConnQueue,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// One running service: the listener, its accept thread, the HTTP worker
/// pool, and the job worker pool.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// every thread. The service runs until [`Self::shutdown`] or a
    /// `POST /api/v1/shutdown`.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept setup failures.
    pub fn bind(addr: &str, config: ServiceConfig, http_workers: usize) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = ServiceState::new(config);
        let shared = Arc::new(Shared {
            state: Arc::clone(&state),
            conns: ConnQueue::default(),
            shutdown: AtomicBool::new(false),
            addr: local,
        });

        let mut threads = state.spawn_job_workers();
        for i in 0..http_workers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rsc-serve-http-{i}"))
                    .spawn(move || {
                        while let Some(conn) = shared.conns.pop() {
                            let state = &shared.state;
                            if handle_connection(
                                conn,
                                |req| state.handle(req),
                                state.handler_panics(),
                            ) {
                                trigger_shutdown(&shared);
                            }
                        }
                    })
                    .expect("spawn http worker"),
            );
        }
        let accept_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("rsc-serve-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if accept_shared.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(conn) = conn {
                            accept_shared.conns.push(conn);
                        }
                    }
                    accept_shared.conns.close();
                })
                .expect("spawn accept thread"),
        );

        Ok(Server { shared, threads })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared service state.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.shared.state
    }

    /// Triggers a graceful shutdown (idempotent): stop accepting, reject
    /// new work, close every SSE subscriber, wake every blocked thread.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Waits for every service thread to exit. Call after
    /// [`Self::shutdown`], or let a client's `POST /api/v1/shutdown`
    /// end the service.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn trigger_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.state.begin_shutdown();
    shared.conns.close();
    // Unblock the accept loop: it re-checks the flag per connection.
    let _ = TcpStream::connect(shared.addr);
}

/// Serves one connection: parse, route through `handle`, respond — or
/// hand off to an SSE streamer thread. Returns whether the response asked
/// for a service shutdown (already written by then). All failure paths
/// just close the socket; a client abandoning its request cannot take a
/// worker with it past the read timeout.
fn handle_connection(
    conn: TcpStream,
    handle: impl FnOnce(&Request) -> Action,
    panics: &AtomicU64,
) -> bool {
    let _ = conn.set_read_timeout(Some(READ_TIMEOUT));
    let reader = match conn.try_clone() {
        Ok(clone) => clone,
        Err(_) => return false,
    };
    let mut writer = conn;
    match parse_request(&mut BufReader::new(reader)) {
        Err(err) => {
            let _ = Response::from_request_error(&err).write_to(&mut writer);
        }
        Ok(None) => {}
        Ok(Some(req)) => match dispatch(&req, handle, panics) {
            Action::Respond(resp) => {
                let _ = resp.write_to(&mut writer);
            }
            Action::Shutdown(resp) => {
                let _ = resp.write_to(&mut writer);
                return true;
            }
            Action::Stream(sub) => spawn_streamer(writer, sub),
        },
    }
    false
}

/// Runs `handle` on one request. A panic inside it unwinds no further: it
/// is counted in `panics` and answered `500 internal_error`, so the worker
/// that ran it goes on to the next connection. Shared state the handler
/// left mid-update stays behind its locks; a poisoned lock panics the next
/// handler that takes it, which is answered the same way.
fn dispatch(req: &Request, handle: impl FnOnce(&Request) -> Action, panics: &AtomicU64) -> Action {
    match panic::catch_unwind(AssertUnwindSafe(|| handle(req))) {
        Ok(action) => action,
        Err(_) => {
            panics.fetch_add(1, Ordering::Relaxed);
            Action::Respond(Response::error(
                500,
                "internal_error",
                "the request handler panicked",
            ))
        }
    }
}

/// Moves an SSE connection off the worker pool onto its own thread, which
/// exits when the client disconnects or the hub closes the subscription.
fn spawn_streamer(mut conn: TcpStream, sub: Subscription) {
    let _ = std::thread::Builder::new()
        .name("rsc-serve-sse".to_string())
        .spawn(move || {
            let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                        Cache-Control: no-store\r\nConnection: close\r\n\r\n";
            if conn
                .write_all(head.as_bytes())
                .and_then(|_| conn.flush())
                .is_err()
            {
                return;
            }
            loop {
                match sub.recv_timeout(SSE_POLL) {
                    Some(frame) => {
                        if conn
                            .write_all(frame.as_bytes())
                            .and_then(|_| conn.flush())
                            .is_err()
                        {
                            return; // client went away; Drop prunes us
                        }
                    }
                    None => {
                        if sub.is_closed() {
                            return;
                        }
                    }
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn a_panicking_handler_is_a_typed_500_and_the_only_worker_keeps_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let panics = Arc::new(AtomicU64::new(0));
        let worker_panics = Arc::clone(&panics);
        // One worker serving connections in turn, as a pool of one does.
        let worker = std::thread::spawn(move || {
            for _ in 0..3 {
                let (conn, _) = listener.accept().expect("accept");
                let handle = |req: &Request| match req.path.as_str() {
                    "/boom" => panic!("handler panic under test"),
                    _ => Action::Respond(Response::json(200, "{\"ok\":true}".to_string())),
                };
                assert!(!handle_connection(conn, handle, &worker_panics));
            }
        });

        let ok = client::get(addr, "/ok").expect("first request");
        assert_eq!((ok.status, ok.text()), (200, "{\"ok\":true}".to_string()));
        let boom = client::get(addr, "/boom").expect("a panicking handler still answers");
        assert_eq!(boom.status, 500);
        assert!(
            boom.text().contains("\"internal_error\""),
            "{}",
            boom.text()
        );
        let after = client::get(addr, "/ok").expect("the worker survived the panic");
        assert_eq!(after.status, 200);

        worker.join().expect("the worker thread never unwound");
        assert_eq!(panics.load(Ordering::Relaxed), 1);
    }
}
