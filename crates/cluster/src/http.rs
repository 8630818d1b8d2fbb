//! Dependency-free HTTP/1.1 plumbing for the cluster control plane.
//!
//! Unlike the serving layer's GET-only pool (`regcluster-cli::serve`),
//! the coordinator needs request bodies: shard uploads POST whole `.rcs`
//! files. Control-plane traffic is a handful of workers heartbeating, so
//! a thread-per-connection acceptor is plenty — the fixed-pool + shed
//! machinery of the read path would be over-engineering here.
//!
//! Every connection is one request/response exchange (`Connection:
//! close` semantics), which keeps both ends trivially correct across
//! coordinator restarts: a worker never has to reason about a half-dead
//! keep-alive socket.
//!
//! # Fault injection
//!
//! Both ends evaluate network failpoints so the harness can script
//! partitions, slow links and torn responses without touching the
//! kernel: the client consults `cluster::http_request` before sending,
//! the server consults `cluster::http_response` before answering (and
//! `cluster::upload_response` additionally for `POST /shard/…`, so a
//! scenario can garble exactly the upload acknowledgment). A `drop`
//! closes the connection unanswered; a `garble` sends a truncated,
//! corrupted payload — the peer sees an I/O error and retries.
//!
//! # Shedding
//!
//! The acceptor bounds in-flight connections; past the cap it answers
//! `503` with `Retry-After: 1` instead of queueing, and clients feed
//! that hint into their [`Backoff`](crate::Backoff).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use regcluster_failpoint::NetFault;
use regcluster_obs::Counter;

/// Largest accepted request body (a shard upload), 256 MiB.
const MAX_BODY: usize = 256 << 20;

/// Per-socket read/write timeout, so a hung peer cannot wedge a
/// connection thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default in-flight connection cap before the server sheds with 503.
/// Control-plane traffic is a handful of workers; anything past this is
/// a storm worth pushing back on.
pub const MAX_INFLIGHT: usize = 64;

/// `Retry-After` seconds sent with a shed 503.
const SHED_RETRY_AFTER_SECS: u64 = 1;

/// One parsed inbound request.
pub struct Request {
    /// `GET` or `POST` (anything else is rejected with 405).
    pub method: String,
    /// Request path, e.g. `/lease/acquire`.
    pub path: String,
    /// Raw body bytes (empty for GET).
    pub body: Vec<u8>,
}

/// One outbound response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// When set, a `Retry-After: <secs>` header telling the client how
    /// long to back off (shed 503s set this).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response from an already-encoded document.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    /// A shed response: `503` carrying `Retry-After: retry_after_secs`.
    pub fn unavailable(retry_after_secs: u64) -> Self {
        Response {
            retry_after: Some(retry_after_secs),
            ..Response::text(503, "overloaded; retry later")
        }
    }
}

/// One parsed client-side response: what [`http_request`] returns.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Parsed `Retry-After` header, when the server sent one — feed it
    /// to [`Backoff::sleep_hinted`](crate::Backoff::sleep_hinted).
    pub retry_after: Option<Duration>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A running control-plane HTTP server. Dropping the handle does **not**
/// stop it; call [`shutdown`](HttpServer::shutdown).
pub struct HttpServer {
    port: u16,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    inflight: Arc<AtomicUsize>,
}

impl HttpServer {
    /// Binds `127.0.0.1:port` (0 picks an ephemeral port) and serves
    /// every connection on its own thread through `handler`.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the port cannot be bound.
    pub fn start<F>(port: u16, handler: F) -> std::io::Result<Self>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::start_capped(port, MAX_INFLIGHT, None, handler)
    }

    /// [`start`](HttpServer::start) with an explicit in-flight connection
    /// cap: a connection arriving while `max_inflight` are already being
    /// served is answered `503` + `Retry-After` instead of queued, and
    /// `shed_counter` (when given) counts those rejections.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the port cannot be bound.
    pub fn start_capped<F>(
        port: u16,
        max_inflight: usize,
        shed_counter: Option<Counter>,
        handler: F,
    ) -> std::io::Result<Self>
    where
        F: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let stop = Arc::new(AtomicBool::new(false));
        let handler = Arc::new(handler);
        let stop_accept = Arc::clone(&stop);
        let inflight = Arc::new(AtomicUsize::new(0));
        let inflight_gauge = Arc::clone(&inflight);
        let max_inflight = max_inflight.max(1);
        let acceptor = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let shed = inflight.fetch_add(1, Ordering::SeqCst) >= max_inflight;
                if shed {
                    if let Some(c) = &shed_counter {
                        c.inc();
                    }
                }
                let handler = Arc::clone(&handler);
                let inflight = Arc::clone(&inflight);
                std::thread::spawn(move || {
                    let _ = serve_connection(stream, &*handler, shed);
                    inflight.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        Ok(HttpServer {
            port,
            stop,
            acceptor: Some(acceptor),
            inflight: inflight_gauge,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stops accepting, joins the acceptor thread, then waits (bounded)
    /// for in-flight connections to finish — so a response still being
    /// written (e.g. the ack to the very request that triggered the
    /// shutdown, possibly crawling through an injected network delay)
    /// reaches its client before the process exits.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.inflight.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn serve_connection<F>(stream: TcpStream, handler: &F, shed: bool) -> std::io::Result<()>
where
    F: Fn(&Request) -> Response,
{
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    // The request is still drained when shedding, so the 503 reliably
    // reaches a client mid-way through writing its body.
    let (response, upload) = match read_request(&mut reader) {
        Ok(_) if shed => (Response::unavailable(SHED_RETRY_AFTER_SECS), false),
        Ok(req) => {
            let upload = req.method == "POST" && req.path.starts_with("/shard/");
            (handler(&req), upload)
        }
        Err(status) => (Response::text(status, reason(status)), false),
    };
    let mut fault = regcluster_failpoint::net("cluster::http_response");
    if fault == NetFault::Pass && upload {
        fault = regcluster_failpoint::net("cluster::upload_response");
    }
    match fault {
        NetFault::Pass => write_response(stream, &response),
        // Accept-then-close: the peer sees an unanswered connection.
        NetFault::Drop => Ok(()),
        NetFault::Garble => write_garbled(stream, &response),
    }
}

/// Writes a torn response: the head promises the full `Content-Length`,
/// but only half the body follows — with its first byte flipped — before
/// the connection closes. The client's bounded read fails cleanly.
fn write_garbled(mut stream: TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    let mut torn = response.body[..response.body.len() / 2].to_vec();
    if let Some(b) = torn.first_mut() {
        *b ^= 0xff;
    }
    stream.write_all(&torn)?;
    stream.flush()
}

/// Parses one request off `reader`; `Err` carries the status to reject
/// with.
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, u16> {
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|_| 400u16)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_string();
    let path = parts.next().ok_or(400u16)?.to_string();
    if method != "GET" && method != "POST" {
        return Err(405u16);
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|_| 400u16)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().map_err(|_| 400u16)?;
        }
    }
    if content_length > MAX_BODY {
        return Err(413u16);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|_| 400u16)?;
    Ok(Request { method, path, body })
}

fn write_response(mut stream: TcpStream, response: &Response) -> std::io::Result<()> {
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        retry_after
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Performs one blocking request against `addr` (`host:port`), returning
/// the parsed [`HttpReply`]. Bodies are sent as
/// `application/octet-stream`; the peer's declared `Content-Length`
/// bounds the read.
///
/// # Errors
///
/// [`std::io::Error`] for connect/read/write failures, a malformed
/// response, or an injected `cluster::http_request` network fault.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<HttpReply> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/octet-stream\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    match regcluster_failpoint::net("cluster::http_request") {
        NetFault::Pass => {}
        // Connect-then-vanish: the peer sees an accepted connection that
        // never carries a request.
        NetFault::Drop => {
            let _ = TcpStream::connect(addr)?;
            return Err(std::io::Error::other("injected request drop"));
        }
        // Torn request: half the head, then the socket closes. The peer
        // answers 400 into the void.
        NetFault::Garble => {
            let mut stream = TcpStream::connect(addr)?;
            let _ = stream.write_all(&head.as_bytes()[..head.len() / 2]);
            return Err(std::io::Error::other("injected request garble"));
        }
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<Duration> = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let lower = header.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:").map(str::trim) {
            content_length = Some(
                v.parse()
                    .map_err(|_| std::io::Error::other("bad content-length"))?,
            );
        }
        if let Some(v) = lower.strip_prefix("retry-after:").map(str::trim) {
            retry_after = v.parse::<u64>().ok().map(Duration::from_secs);
        }
    }
    let body = match content_length {
        Some(n) if n <= MAX_BODY => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        Some(n) => {
            return Err(std::io::Error::other(format!(
                "response body {n} too large"
            )));
        }
        // Connection-close framing: read to EOF.
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok(HttpReply {
        status,
        body,
        retry_after,
    })
}

/// Serializes the crate's tests that make HTTP requests. Failpoints are
/// process-global: the fault-injection test below arms network faults
/// that would hit any concurrently-running request of another test.
#[cfg(test)]
pub(crate) fn serial_http_tests() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_get_and_post() {
        let _guard = serial_http_tests();
        let server = HttpServer::start(0, |req| match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/ping") => Response::text(200, "pong"),
            ("POST", "/echo") => Response {
                status: 200,
                content_type: "application/octet-stream",
                body: req.body.clone(),
                retry_after: None,
            },
            _ => Response::text(404, "nope"),
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let reply = http_request(&addr, "GET", "/ping", &[]).unwrap();
        assert_eq!(
            (reply.status, reply.body.as_slice()),
            (200, b"pong".as_slice())
        );
        assert_eq!(reply.retry_after, None);
        let payload = vec![7u8; 100_000];
        let reply = http_request(&addr, "POST", "/echo", &payload).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, payload);
        let reply = http_request(&addr, "GET", "/missing", &[]).unwrap();
        assert_eq!(reply.status, 404);
        server.shutdown();
    }

    #[test]
    fn rejects_unknown_methods() {
        let _guard = serial_http_tests();
        let server = HttpServer::start(0, |_| Response::text(200, "ok")).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let reply = http_request(&addr, "DELETE", "/x", &[]).unwrap();
        assert_eq!(reply.status, 405);
        server.shutdown();
    }

    #[test]
    fn retry_after_round_trips_on_a_shed_style_response() {
        let _guard = serial_http_tests();
        let server = HttpServer::start(0, |_| Response::unavailable(7)).unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let reply = http_request(&addr, "GET", "/x", &[]).unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.retry_after, Some(Duration::from_secs(7)));
        server.shutdown();
    }

    #[test]
    fn overloaded_server_sheds_with_retry_after() {
        let _guard = serial_http_tests();
        // Cap of 1 with a handler that parks: the second concurrent
        // request must be shed, not queued.
        let gate = Arc::new(AtomicBool::new(false));
        let gate_handler = Arc::clone(&gate);
        let server = HttpServer::start_capped(0, 1, None, move |_| {
            while !gate_handler.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            Response::text(200, "slow ok")
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());
        let addr2 = addr.clone();
        let parked = std::thread::spawn(move || http_request(&addr2, "GET", "/slow", &[]));
        // Wait for the parked request to occupy the only slot.
        std::thread::sleep(Duration::from_millis(100));
        let reply = http_request(&addr, "GET", "/shed-me", &[]).unwrap();
        assert_eq!(reply.status, 503);
        assert!(
            reply.retry_after.is_some(),
            "shed 503 must carry Retry-After"
        );
        gate.store(true, Ordering::SeqCst);
        assert_eq!(parked.join().unwrap().unwrap().status, 200);
        server.shutdown();
    }

    #[test]
    fn injected_response_faults_surface_as_client_errors() {
        let _guard = serial_http_tests();
        let server = HttpServer::start(0, |req| match req.path.as_str() {
            p if p.starts_with("/shard/") => Response::text(200, "staged"),
            _ => Response::text(200, "ok"),
        })
        .unwrap();
        let addr = format!("127.0.0.1:{}", server.port());

        regcluster_failpoint::configure("cluster::http_response=drop@1").unwrap();
        assert!(
            http_request(&addr, "GET", "/x", &[]).is_err(),
            "dropped response"
        );
        assert_eq!(http_request(&addr, "GET", "/x", &[]).unwrap().status, 200);

        // Garble only the upload acknowledgment: plain requests pass.
        regcluster_failpoint::configure("cluster::upload_response=garble@1").unwrap();
        assert_eq!(http_request(&addr, "GET", "/x", &[]).unwrap().status, 200);
        assert!(
            http_request(&addr, "POST", "/shard/0/1", b"x").is_err(),
            "garbled upload ack"
        );
        assert_eq!(
            http_request(&addr, "POST", "/shard/0/1", b"x")
                .unwrap()
                .status,
            200
        );

        regcluster_failpoint::configure("cluster::http_request=drop@1").unwrap();
        assert!(
            http_request(&addr, "GET", "/x", &[]).is_err(),
            "dropped request"
        );

        regcluster_failpoint::clear();
        server.shutdown();
    }
}
