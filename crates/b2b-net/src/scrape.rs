//! A live Prometheus scrape endpoint for the metrics registry.
//!
//! [`ScrapeServer`] is a thin wrapper over the reusable HTTP plumbing in
//! [`crate::httpd`]: it binds an ephemeral loopback listener, answers
//! `GET /metrics` (or `GET /`) with the registry snapshot rendered in the
//! Prometheus text exposition format (version 0.0.4), and anything else
//! with `404`. One worker thread is plenty for a scraper; shutdown joins
//! both the accept thread and the worker — no leaked threads, no
//! throwaway unblocking connections.
//!
//! The registry handle is shared, so a scrape taken while a sharded fleet
//! is running observes the counters live. Determinism is not at
//! stake here: scraping reads a snapshot, it never mutates protocol state.

use crate::httpd::{HttpHandler, HttpResponse, HttpServer};
use b2b_telemetry::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A background HTTP responder serving one metrics registry.
///
/// # Example
///
/// ```
/// use b2b_net::ScrapeServer;
/// use b2b_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::default();
/// registry.add("rounds_committed", 3);
/// let server = ScrapeServer::bind(registry).expect("bind loopback");
/// let body = ScrapeServer::fetch(server.addr()).expect("scrape");
/// assert!(body.contains("b2b_rounds_committed 3"));
/// server.shutdown();
/// ```
pub struct ScrapeServer {
    server: HttpServer,
}

impl ScrapeServer {
    /// Binds an ephemeral loopback listener and starts serving `registry`.
    pub fn bind(registry: MetricsRegistry) -> io::Result<ScrapeServer> {
        let handler: HttpHandler = Arc::new(move |req| {
            if req.method == "GET" && (req.path == "/metrics" || req.path == "/") {
                HttpResponse {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
                    body: registry.snapshot().to_prometheus().into_bytes(),
                }
            } else {
                HttpResponse {
                    status: 404,
                    content_type: "text/plain; charset=utf-8".into(),
                    body: Vec::new(),
                }
            }
        });
        let server = HttpServer::bind("127.0.0.1:0", 1, handler)?;
        Ok(ScrapeServer { server })
    }

    /// The address scrapers should `GET /metrics` against.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the responder and joins its accept + worker threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }

    /// Issues one `GET /metrics` against `addr` and returns the body.
    ///
    /// A convenience for tests and the `exp` binary; any real Prometheus
    /// (or `curl`) speaks the same bytes.
    pub fn fetch(addr: SocketAddr) -> io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: b2b\r\nConnection: close\r\n\r\n")?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        match response.split_once("\r\n\r\n") {
            Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "scrape did not answer 200",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_telemetry::names;

    #[test]
    fn scrape_returns_the_registry_in_prometheus_text() {
        let registry = MetricsRegistry::default();
        registry.add(names::ROUNDS_COMMITTED, 7);
        registry.observe(names::ROUND_LATENCY_MS, 42);
        let server = ScrapeServer::bind(registry.clone()).expect("bind");

        // Speak raw HTTP ourselves — the contract is bytes, not our helper.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("text/plain; version=0.0.4"));
        let body = response.split_once("\r\n\r\n").expect("has body").1;
        assert_eq!(body, registry.snapshot().to_prometheus());
        assert!(body.contains("b2b_rounds_committed 7"));
        assert!(body.contains("b2b_round_latency_ms_count 1"));

        // A scrape taken later sees counters that moved in between.
        registry.add(names::ROUNDS_COMMITTED, 1);
        let again = ScrapeServer::fetch(server.addr()).expect("fetch");
        assert!(again.contains("b2b_rounds_committed 8"));
        server.shutdown();
    }

    #[test]
    fn unknown_paths_get_a_404() {
        let server = ScrapeServer::bind(MetricsRegistry::default()).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /health HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 404"));
        server.shutdown();
    }
}
