//! Zero-dependency HTTP exposition endpoint.
//!
//! A hand-rolled `std::net::TcpListener` server — no async runtime, no
//! HTTP crate — serving read-only routes:
//!
//! * `/metrics` — Prometheus text exposition of the global registry;
//! * `/metrics.json` — the same snapshot as JSON;
//! * `/traces` — a dump of the global event journal, one event per line;
//! * `/profile` — the hierarchical profile tree as JSON (see
//!   [`crate::profile`]);
//! * `/healthz` — liveness: build version, requests served, journal
//!   capacity/recorded/overwritten, active/total alert counts. "Uptime"
//!   is reported in *ticks* (the journal's sequence clock), not
//!   wall-clock seconds — the workspace's deterministic notion of time;
//! * `/alerts` — evaluate the global alert engine against a fresh
//!   registry snapshot and report per-rule firing state (see
//!   [`crate::health`]); scraping *is* the evaluation tick;
//! * `/health/deep` — the full closed-loop health view: overall status
//!   (degraded by the highest active severity), alert counts, journal
//!   stats, profile size, and every `swh_audit_*` gauge;
//! * `/lineage/<dataset>/<partition>` — the lineage record of one stored
//!   sample, resolved through an injected callback (this crate sits below
//!   the warehouse and cannot read stores itself);
//! * `/lifecycle` — per-dataset partition lifecycle status (hot/warm/cold
//!   tier counts, compaction tombstones, retention policies), resolved
//!   through an injected callback like `/lineage`.
//!
//! Each connection carries one request and is then closed; that is all a
//! scrape loop or `curl` needs, and it keeps the server a single blocking
//! `accept` loop with no connection bookkeeping.

use crate::journal::journal;
use crate::metrics::Counter;
use crate::registry::global;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Resolves `/lineage/<dataset>/<partition>` to a JSON body, or `None`
/// for 404. Injected by the binary that owns store access.
pub type LineageResolver = Box<dyn Fn(&str, &str) -> Option<String> + Send + Sync>;

/// Resolves `/lifecycle` to a JSON status body (tier counts, tombstones,
/// policies), or `None` for 404. Injected by the binary that owns store
/// access, like [`LineageResolver`].
pub type LifecycleResolver = Box<dyn Fn() -> Option<String> + Send + Sync>;

/// The exposition server. Bind, then drive with [`Server::serve`] (forever
/// or for a bounded number of requests).
pub struct Server {
    listener: TcpListener,
    lineage: Option<LineageResolver>,
    lifecycle: Option<LifecycleResolver>,
    requests: Counter,
    errors: Counter,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("listener", &self.listener)
            .field("lineage", &self.lineage.is_some())
            .field("lifecycle", &self.lifecycle.is_some())
            .finish()
    }
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:9898`; port 0 picks a free port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            lineage: None,
            lifecycle: None,
            requests: global().counter(
                "swh_serve_requests_total",
                "HTTP requests answered by swh serve",
            ),
            errors: global().counter(
                "swh_serve_errors_total",
                "Connections swh serve dropped on an I/O error (e.g. a peer reset)",
            ),
        })
    }

    /// Install the `/lineage/...` resolver.
    pub fn with_lineage(mut self, resolver: LineageResolver) -> Self {
        self.lineage = Some(resolver);
        self
    }

    /// Install the `/lifecycle` resolver.
    pub fn with_lifecycle(mut self, resolver: LifecycleResolver) -> Self {
        self.lifecycle = Some(resolver);
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and answer requests. `max_requests` of `None` serves forever;
    /// `Some(n)` returns after `n` connections (used by tests and CI). A
    /// connection that fails mid-request (a peer reset, a write to a closed
    /// socket) is counted in `swh_serve_errors_total` and does not stop
    /// the server; only a failing `accept` is returned.
    pub fn serve(&self, max_requests: Option<u64>) -> io::Result<()> {
        let mut served = 0u64;
        loop {
            if let Some(limit) = max_requests {
                if served >= limit {
                    return Ok(());
                }
            }
            let (stream, _) = self.listener.accept()?;
            if self.answer(stream).is_err() {
                self.errors.inc();
            }
            served += 1;
        }
    }

    /// Answer one request on an accepted connection. Malformed requests
    /// get a 400 and are not an error.
    fn answer(&self, mut stream: TcpStream) -> io::Result<()> {
        // Bound how long a stalled client can hold the accept loop.
        // swh-analyze: allow(determinism) -- socket timeout, not entropy; no
        // time value ever reaches sampling state or the journal.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
        self.requests.inc();
        let path = match read_request_path(&mut stream) {
            Some(p) => p,
            None => {
                return respond(&mut stream, 400, "text/plain", "bad request\n");
            }
        };
        self.route(&mut stream, &path)
    }

    fn route(&self, stream: &mut TcpStream, path: &str) -> io::Result<()> {
        match path {
            "/metrics" => {
                let body = global().snapshot().to_prometheus();
                respond(stream, 200, "text/plain; version=0.0.4", &body)
            }
            "/metrics.json" => {
                let body = global().snapshot().to_json();
                respond(stream, 200, "application/json", &body)
            }
            "/traces" => respond(stream, 200, "text/plain", &journal().dump()),
            "/profile" => {
                let body = crate::profile::snapshot().to_json();
                respond(stream, 200, "application/json", &body)
            }
            "/healthz" => respond(stream, 200, "application/json", &self.healthz()),
            "/lifecycle" => match self.lifecycle.as_ref().and_then(|r| r()) {
                Some(body) => respond(stream, 200, "application/json", &body),
                None => respond(stream, 404, "text/plain", "no lifecycle status\n"),
            },
            "/alerts" => {
                crate::health::tick_global();
                let body = crate::health::engine().status().to_json();
                respond(stream, 200, "application/json", &body)
            }
            "/health/deep" => {
                crate::health::tick_global();
                let j = journal();
                let body = crate::health::deep_json(
                    env!("CARGO_PKG_VERSION"),
                    &crate::health::engine().status(),
                    &global().snapshot(),
                    (j.capacity(), j.recorded(), j.overwritten(), j.enabled()),
                    crate::profile::snapshot().nodes.len(),
                );
                respond(stream, 200, "application/json", &body)
            }
            _ => {
                if let Some(rest) = path.strip_prefix("/lineage/") {
                    if let Some((dataset, partition)) = rest.split_once('/') {
                        if let Some(resolver) = &self.lineage {
                            if let Some(body) = resolver(dataset, partition) {
                                return respond(stream, 200, "application/json", &body);
                            }
                        }
                        return respond(stream, 404, "text/plain", "no such sample\n");
                    }
                }
                respond(stream, 404, "text/plain", "not found\n")
            }
        }
    }

    /// The `/healthz` body. Clock-free by design: "uptime" is the journal
    /// sequence clock (events recorded since process start), which is the
    /// same deterministic time base the traces use.
    fn healthz(&self) -> String {
        let j = journal();
        let engine = crate::health::engine();
        format!(
            "{{\"status\": \"ok\", \"version\": \"{}\", \
             \"requests_total\": {}, \"uptime_ticks\": {}, \
             \"alerts\": {{\"active\": {}, \"total\": {}}}, \
             \"journal\": {{\"capacity\": {}, \"recorded\": {}, \
             \"overwritten\": {}, \"enabled\": {}}}, \
             \"profile_nodes\": {}}}\n",
            env!("CARGO_PKG_VERSION"),
            self.requests.get(),
            j.recorded(),
            engine.active_count(),
            engine.rule_count(),
            j.capacity(),
            j.recorded(),
            j.overwritten(),
            j.enabled(),
            crate::profile::snapshot().nodes.len(),
        )
    }
}

/// Read the request head and return the GET path, or `None` if the request
/// is malformed, uses another method, or exceeds the 8 KiB head limit.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let text = std::str::from_utf8(&head).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Ignore any query string; routes take no parameters.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut content_type = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line.strip_prefix("Content-Type: ") {
                content_type = v.trim().to_string();
            }
            if line == "\r\n" {
                break;
            }
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        (status, content_type, body)
    }

    fn spawn_server(server: Server, requests: u64) -> SocketAddr {
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.serve(Some(requests)).unwrap());
        addr
    }

    #[test]
    fn serves_metrics_in_both_formats() {
        global()
            .counter("swh_serve_selftest_total", "serve self test")
            .add(3);
        let addr = spawn_server(Server::bind("127.0.0.1:0").unwrap(), 2);
        let (status, ctype, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(ctype.starts_with("text/plain"));
        assert!(body.contains("swh_serve_selftest_total"));
        let (status, ctype, body) = get(addr, "/metrics.json");
        assert_eq!(status, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"swh_serve_selftest_total\""));
    }

    #[test]
    fn serves_traces_and_lineage() {
        crate::journal::record(crate::EventKind::StoreWrite, 0, 0, 0, 0);
        let server =
            Server::bind("127.0.0.1:0")
                .unwrap()
                .with_lineage(Box::new(|dataset, partition| {
                    (dataset == "ds1" && partition == "p0").then(|| "{\"events\": []}".to_string())
                }));
        let addr = spawn_server(server, 3);
        let (status, _, body) = get(addr, "/traces");
        assert_eq!(status, 200);
        assert!(body.contains("kind=store_write"), "{body}");
        let (status, _, body) = get(addr, "/lineage/ds1/p0");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"events\": []}");
        let (status, _, _) = get(addr, "/lineage/ds1/p9");
        assert_eq!(status, 404);
    }

    #[test]
    fn serves_healthz_and_profile() {
        crate::journal::record(crate::EventKind::Ingest, 0, 0, 1, 0);
        crate::profile::record("serve_test/route", 42);
        let addr = spawn_server(Server::bind("127.0.0.1:0").unwrap(), 2);
        let (status, ctype, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        assert!(
            body.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
            "{body}"
        );
        assert!(body.contains("\"capacity\": "), "{body}");
        assert!(body.contains("\"overwritten\": "), "{body}");
        let (status, ctype, body) = get(addr, "/profile");
        assert_eq!(status, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"path\": \"serve_test/route\""), "{body}");
    }

    #[test]
    fn serves_alerts_and_deep_health() {
        let addr = spawn_server(Server::bind("127.0.0.1:0").unwrap(), 3);
        let (status, ctype, body) = get(addr, "/alerts");
        assert_eq!(status, 200);
        assert_eq!(ctype, "application/json");
        // The builtin rule set is always present and its audit metrics
        // may or may not exist yet; the shape is what this pins.
        assert!(body.contains("\"ticks\": "), "{body}");
        assert!(body.contains("\"rules\": ["), "{body}");
        assert!(body.contains("\"audit_uniformity_drift\""), "{body}");
        let (status, ctype, body) = get(addr, "/health/deep");
        assert_eq!(status, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"status\": "), "{body}");
        assert!(body.contains("\"alerts\": {\"active\": "), "{body}");
        assert!(body.contains("\"audit\": {"), "{body}");
        // /healthz carries the alert counts too (satellite).
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"alerts\": {\"active\": "), "{body}");
        assert!(body.contains("\"total\": "), "{body}");
    }

    #[test]
    fn serves_lifecycle_status_via_resolver() {
        let server = Server::bind("127.0.0.1:0")
            .unwrap()
            .with_lifecycle(Box::new(|| {
                Some("{\"datasets\":[{\"dataset\":1,\"hot\":3,\"warm\":1,\"cold\":0,\"tombstones\":1}]}".to_string())
            }));
        let addr = spawn_server(server, 1);
        let (status, ctype, body) = get(addr, "/lifecycle");
        assert_eq!(status, 200);
        assert_eq!(ctype, "application/json");
        assert!(body.contains("\"warm\":1"), "{body}");
        // Without a resolver the route 404s instead of guessing.
        let addr = spawn_server(Server::bind("127.0.0.1:0").unwrap(), 1);
        let (status, _, _) = get(addr, "/lifecycle");
        assert_eq!(status, 404);
    }

    #[test]
    fn client_that_closes_without_reading_does_not_stop_the_server() {
        // Whether the reply to a closed client fails depends on the peer's
        // reset reaching the server between its writes, which a loaded
        // host can delay; so retry a bounded number of times until one
        // connection is counted as failed.
        const ATTEMPTS: u64 = 50;
        let server = Server::bind("127.0.0.1:0").unwrap();
        let before = server.errors.get();
        let errors = server.errors.clone();
        let addr = spawn_server(server, 2 * ATTEMPTS);
        for _ in 0..ATTEMPTS {
            // No blank line ends the head, so the server only answers once
            // it reads EOF: the close, without reading, lands before the
            // reply.
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /metrics HTTP/1.1\r\n").unwrap();
            drop(stream);
            // The server answers connections in order, so this reply also
            // means the closed connection has been handled.
            let (status, _, body) = get(addr, "/metrics");
            assert_eq!(status, 200);
            assert!(body.contains("swh_serve_errors_total"), "{body}");
            if errors.get() > before {
                return;
            }
        }
        panic!("no reset connection was counted in {ATTEMPTS} attempts");
    }

    #[test]
    fn unknown_routes_and_methods_are_rejected() {
        let addr = spawn_server(Server::bind("127.0.0.1:0").unwrap(), 2);
        let (status, _, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("400"), "{reply}");
    }
}
