//! Reusable dependency-free HTTP/1.1 plumbing.
//!
//! [`HttpServer`] is a small embeddable server any crate in the workspace
//! can put a JSON API on (the `b2b-server` order service is the main
//! client):
//!
//! * **Readiness-driven accept** — the listener is nonblocking and the
//!   accept thread waits on it with the same raw `poll(2)` primitive as
//!   the [`crate::shard_tcp`] reactor, so shutdown needs no throwaway
//!   connection to unblock `accept`: flip the stop flag, the poll timeout
//!   expires, the thread exits and is **joined**.
//! * **A fixed worker pool** — accepted connections are handed to `N`
//!   worker threads over a channel; each worker serves its connection
//!   with HTTP/1.1 keep-alive until the peer closes, an idle timeout
//!   passes, or the server stops. Workers are joined on shutdown too.
//! * **No HTTP library** — request line + headers + `Content-Length`
//!   body is all the protocol spoken, which is all a Prometheus scraper,
//!   `curl`, or the closed-loop load driver needs.
//!
//! The handler runs on the worker thread and may block (the order server
//! blocks synchronous-mode requests on protocol rounds); size the pool
//! for the expected concurrency.

use crate::shard_tcp::{sys_poll, PollFd, POLLIN};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted request (head + body). Requests beyond it earn a
/// `413` and the connection closes — nothing in the workspace speaks
/// megabyte requests.
pub const MAX_REQUEST_LEN: usize = 1 << 20;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, uppercased by the peer (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (no query string).
    pub path: String,
    /// Raw query string (without the `?`), empty when absent.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The value of query parameter `key`, if present (`k=v` pairs split
    /// on `&`; no percent-decoding — the workspace APIs use plain
    /// tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Splits the path into its `/`-separated segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// One HTTP response: status code, content type and body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "OK",
        }
    }
}

/// The request handler: runs on a worker thread, may block.
pub type HttpHandler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// Accepted-connection hand-off queue between the acceptor and the
/// worker pool (the vendored channel stand-in is single-consumer, so
/// the pool shares a Condvar-guarded deque instead).
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, stream: TcpStream) {
        self.queue
            .lock()
            .expect("conn queue poisoned")
            .push_back(stream);
        self.ready.notify_one();
    }

    /// Pops one connection, waiting up to `timeout` for one to arrive.
    fn pop_timeout(&self, timeout: Duration) -> Option<TcpStream> {
        let mut guard = self.queue.lock().expect("conn queue poisoned");
        if let Some(stream) = guard.pop_front() {
            return Some(stream);
        }
        let (mut guard, _) = self
            .ready
            .wait_timeout(guard, timeout)
            .expect("conn queue poisoned");
        guard.pop_front()
    }
}

/// A small embeddable HTTP/1.1 server on a joined thread pool.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves requests through `handler` on `workers` threads.
    pub fn bind(addr: &str, workers: usize, handler: HttpHandler) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnQueue::new());

        let worker_handles = (0..workers.max(1))
            .map(|i| {
                let conns = conns.clone();
                let stop = stop.clone();
                let handler = handler.clone();
                std::thread::Builder::new()
                    .name(format!("b2b-http-{i}"))
                    .spawn(move || loop {
                        match conns.pop_timeout(Duration::from_millis(200)) {
                            Some(stream) => {
                                // A broken connection is the peer's
                                // problem; the worker moves on.
                                let _ = serve_connection(stream, &handler, &stop);
                            }
                            None => {
                                if stop.load(Ordering::SeqCst) {
                                    return;
                                }
                            }
                        }
                    })
            })
            .collect::<io::Result<Vec<_>>>()?;

        let stop_accept = stop.clone();
        let acceptor = std::thread::Builder::new()
            .name("b2b-http-accept".to_string())
            .spawn(move || {
                let fd = listener.as_raw_fd();
                while !stop_accept.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            conns.push(stream);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            // Readiness wait, reactor-style: wake on a
                            // pending connection or re-check stop after
                            // the timeout.
                            let mut fds = [PollFd::new(fd, POLLIN)];
                            let _ = sys_poll(&mut fds, 100);
                        }
                        // Transient accept errors (ECONNABORTED etc.).
                        Err(_) => {}
                    }
                }
            })?;

        Ok(HttpServer {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the pool and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves one connection with keep-alive until the peer closes, the
/// server stops, or the connection idles past its budget.
fn serve_connection(
    mut stream: TcpStream,
    handler: &HttpHandler,
    stop: &AtomicBool,
) -> io::Result<()> {
    // Short read timeout: the loop re-checks the stop flag between
    // timeouts, so shutdown joins promptly while keep-alive connections
    // stay open across many requests.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let idle_budget = Duration::from_secs(30);
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut last_activity = Instant::now();
    loop {
        // Parse every complete request already buffered before reading
        // more (peers may pipeline).
        while let Some((request, consumed, close)) = parse_request(&buf)? {
            buf.drain(..consumed);
            last_activity = Instant::now();
            let response = handler(&request);
            write_response(&mut stream, &response, close)?;
            if close {
                return Ok(());
            }
        }
        if buf.len() > MAX_REQUEST_LEN {
            let too_big = HttpResponse::text(413, "request too large\n");
            write_response(&mut stream, &too_big, true)?;
            return Ok(());
        }
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if last_activity.elapsed() > idle_budget {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Tries to parse one complete request from the front of `buf`. Returns
/// `(request, bytes_consumed, close_after_response)`, or `None` when
/// more bytes are needed. A malformed request line is an error (the
/// connection closes).
#[allow(clippy::type_complexity)]
fn parse_request(buf: &[u8]) -> io::Result<Option<(HttpRequest, usize, bool)>> {
    let Some(head_end) = find_head_end(buf) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| io::Error::new(ErrorKind::InvalidData, "bad Content-Length"))?
            }
            "connection" => connection = value.to_ascii_lowercase(),
            _ => {}
        }
    }
    if content_length > MAX_REQUEST_LEN {
        return Err(io::Error::new(ErrorKind::InvalidData, "body too large"));
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + content_length].to_vec();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let close = match connection.as_str() {
        "close" => true,
        "keep-alive" => false,
        _ => version == "HTTP/1.0",
    };
    Ok(Some((
        HttpRequest {
            method,
            path,
            query,
            body,
        },
        body_start + content_length,
        close,
    )))
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes head and body as one buffer: with `TCP_NODELAY` every write is
/// a segment, so two writes would cost two syscalls and two segments per
/// response.
fn write_response(stream: &mut TcpStream, response: &HttpResponse, close: bool) -> io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        HttpResponse::reason(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    )
    .into_bytes();
    message.extend_from_slice(&response.body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A minimal keep-alive HTTP/1.1 client for tests and the closed-loop
/// load driver: one persistent connection, blocking request/response.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(HttpClient {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Issues one request and blocks for the response, returning
    /// `(status, body)`. The connection stays open for the next call.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, String)> {
        // One write, as in `write_response`.
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: b2b\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len(),
        )
        .into_bytes();
        message.extend_from_slice(body);
        self.stream.write_all(&message)?;
        self.stream.flush()?;
        self.read_response()
    }

    /// Convenience `GET`.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        self.request("GET", path, b"")
    }

    /// Convenience `POST` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request("POST", path, body.as_bytes())
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
                let content_length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.trim()
                            .eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .unwrap_or(0);
                let body_start = head_end + 4;
                while self.buf.len() < body_start + content_length {
                    self.fill()?;
                }
                let body =
                    String::from_utf8_lossy(&self.buf[body_start..body_start + content_length])
                        .to_string();
                self.buf.drain(..body_start + content_length);
                return Ok((status, body));
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        let handler: HttpHandler = Arc::new(|req: &HttpRequest| {
            if req.path == "/echo" {
                HttpResponse::json(
                    200,
                    format!(
                        "{{\"method\":\"{}\",\"q\":\"{}\",\"body_len\":{}}}",
                        req.method,
                        req.query_param("q").unwrap_or(""),
                        req.body.len()
                    ),
                )
            } else {
                HttpResponse::text(404, "nope\n")
            }
        });
        HttpServer::bind("127.0.0.1:0", 2, handler).expect("bind")
    }

    #[test]
    fn keep_alive_round_trips_and_clean_shutdown() {
        let server = echo_server();
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        // Several requests over ONE connection.
        for i in 0..5 {
            let (status, body) = client
                .post(&format!("/echo?q=x{i}"), "{\"k\":1}")
                .expect("request");
            assert_eq!(status, 200);
            assert!(body.contains(&format!("\"q\":\"x{i}\"")), "{body}");
            assert!(body.contains("\"body_len\":7"), "{body}");
        }
        let (status, _) = client.get("/missing").expect("request");
        assert_eq!(status, 404);
        // Clean shutdown joins the acceptor and the workers without any
        // throwaway-connection unblocking.
        server.shutdown();
    }

    #[test]
    fn http10_connection_close_semantics() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /echo HTTP/1.0\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_rejected() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let head = format!(
            "POST /echo HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_LEN + 1
        );
        stream.write_all(head.as_bytes()).expect("write");
        let mut response = String::new();
        // Server closes after the error response.
        let _ = stream.read_to_string(&mut response);
        assert!(response.is_empty() || !response.starts_with("HTTP/1.1 2"));
        server.shutdown();
    }
}
