//! HTTP load generation against `regcluster serve`: an open loop at a
//! fixed rate and a closed loop, each on at most two connections.
//!
//! The server closes every connection after one response, so a
//! "connection" here is one client thread issuing requests one at a time.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One HTTP response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends one request and reads the whole response (the server closes).
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

/// `GET path`.
pub fn get(addr: &str, path: &str) -> std::io::Result<Reply> {
    request(addr, "GET", path, &[])
}

/// A counter's value in a Prometheus text exposition (summed over label
/// sets); `None` when the metric is absent.
pub fn scrape(text: &str, metric: &str) -> Option<f64> {
    let mut found = None;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some(rest) = line.strip_prefix(metric) else {
            continue;
        };
        if !(rest.starts_with(' ') || rest.starts_with('{')) {
            continue;
        }
        if let Some(v) = rest.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()) {
            *found.get_or_insert(0.0) += v;
        }
    }
    found
}

/// Outcome of one request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the request list.
    pub request: usize,
    /// Latency in ms: for the open loop from the scheduled send time, for
    /// the closed loop from the actual send.
    pub latency_ms: f64,
    /// How late the open-loop generator sent it, ms (0 in a closed loop).
    pub late_ms: f64,
    /// 200 and the body passed the caller's check.
    pub ok: bool,
    /// Refused with 503 (load shedding).
    pub shed: bool,
}

/// When request `i` of an open loop at `rate_per_s` is due, relative to
/// the loop's start.
pub fn scheduled_offset(i: usize, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// Open-loop timing of one request: (lateness, latency) in ms, both
/// measured from the request's scheduled send time `due`. A request sent
/// early (the generator never does) has lateness 0.
pub fn open_loop_times(due: Instant, sent: Instant, done: Instant) -> (f64, f64) {
    let late = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
    let latency = done.saturating_duration_since(due).as_secs_f64() * 1e3;
    (late, latency)
}

type Check<'a> = &'a (dyn Fn(usize, &Reply) -> bool + Sync);

fn send(addr: &str, paths: &[String], i: usize, check: Check<'_>) -> (bool, bool) {
    match get(addr, &paths[i % paths.len()]) {
        Ok(reply) => (
            reply.status == 200 && check(i % paths.len(), &reply),
            reply.status == 503,
        ),
        Err(_) => (false, false),
    }
}

/// Open loop: request `i` is due at `start + i / rate`; `connections`
/// threads take the next due request in turn, so a stalled request makes
/// the following ones late, and that wait counts in their latency.
pub fn open_loop(
    addr: &str,
    paths: &[String],
    rate_per_s: f64,
    duration: Duration,
    connections: usize,
    check: Check<'_>,
) -> Vec<Sample> {
    let total = (rate_per_s * duration.as_secs_f64()).round() as usize;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(total));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = start + scheduled_offset(i, rate_per_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let (ok, shed) = send(addr, paths, i, check);
                    let (late_ms, latency_ms) = open_loop_times(due, sent, Instant::now());
                    local.push(Sample {
                        request: i,
                        latency_ms,
                        late_ms,
                        ok,
                        shed,
                    });
                }
                samples
                    .lock()
                    .expect("no client thread panicked")
                    .extend(local);
            });
        }
    });
    samples.into_inner().expect("no client thread panicked")
}

/// Closed loop: `connections` threads each send their next request as
/// soon as the previous one completes, for `duration`.
pub fn closed_loop(
    addr: &str,
    paths: &[String],
    duration: Duration,
    connections: usize,
    check: Check<'_>,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + duration;
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut local = Vec::new();
                while Instant::now() < end {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let sent = Instant::now();
                    let (ok, shed) = send(addr, paths, i, check);
                    local.push(Sample {
                        request: i,
                        latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                        late_ms: 0.0,
                        ok,
                        shed,
                    });
                }
                samples
                    .lock()
                    .expect("no client thread panicked")
                    .extend(local);
            });
        }
    });
    (
        samples.into_inner().expect("no client thread panicked"),
        start.elapsed(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_at_the_rate() {
        assert_eq!(scheduled_offset(0, 1000.0), Duration::ZERO);
        assert_eq!(scheduled_offset(1, 1000.0), Duration::from_millis(1));
        assert_eq!(scheduled_offset(2500, 1000.0), Duration::from_millis(2500));
        assert_eq!(scheduled_offset(3, 200.0), Duration::from_millis(15));
    }

    #[test]
    fn open_loop_latency_counts_the_wait_behind_a_stall() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Due at 10 ms, sent on time, answered at 12 ms.
        let (late, lat) = open_loop_times(t0 + ms(10), t0 + ms(10), t0 + ms(12));
        assert!((late - 0.0).abs() < 1e-9 && (lat - 2.0).abs() < 1e-9);
        // Due at 11 ms but the connection was busy until 30 ms: 19 ms late,
        // and its 2 ms of service shows as 21 ms of latency.
        let (late, lat) = open_loop_times(t0 + ms(11), t0 + ms(30), t0 + ms(32));
        assert!((late - 19.0).abs() < 1e-9 && (lat - 21.0).abs() < 1e-9);
        // Sent before it was due (never happens): lateness clamps to 0.
        let (late, _) = open_loop_times(t0 + ms(5), t0 + ms(4), t0 + ms(6));
        assert_eq!(late, 0.0);
    }

    #[test]
    fn scrape_sums_label_sets_and_skips_prefix_matches() {
        let text = "# HELP x_total help\n# TYPE x_total counter\n\
                    x_total{route=\"a\"} 3\nx_total{route=\"b\"} 4\n\
                    x_total_extra 100\ny_total 1\n";
        assert_eq!(scrape(text, "x_total"), Some(7.0));
        assert_eq!(scrape(text, "y_total"), Some(1.0));
        assert_eq!(scrape(text, "z_total"), None);
    }
}
