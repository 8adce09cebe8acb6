//! The admin plane: a std-only HTTP/1.1 listener for telemetry scrapes
//! and the slow-query log sink.
//!
//! The listener is deliberately minimal — `GET`-only, one request per
//! connection, `Connection: close` — because its clients are curl,
//! Prometheus scrapers, and `rasc stats`, not browsers. It runs on its
//! own thread, never touches the solver, and answers from the server's
//! [`rasc_obs::MetricsRegistry`] snapshot, so a scrape can never block or
//! slow a solve.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Body format of an admin response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ContentType {
    /// Prometheus text exposition format, version 0.0.4.
    PromText,
    /// `application/json`.
    Json,
}

impl ContentType {
    fn header_value(self) -> &'static str {
        match self {
            ContentType::PromText => "text/plain; version=0.0.4; charset=utf-8",
            ContentType::Json => "application/json",
        }
    }
}

/// Runs the admin accept loop until `draining` reports true, blocking in
/// `accept`: the drain wakes it with one connection, which it drops.
/// `route` maps a request path to a response body; unknown paths 404.
pub(crate) fn run_admin(
    listener: TcpListener,
    poll: Duration,
    draining: impl Fn() -> bool,
    route: impl Fn(&str) -> Option<(ContentType, String)>,
) {
    while !draining() {
        match listener.accept() {
            Ok(_) if draining() => break,
            Ok((stream, _peer)) => answer_one(stream, poll, &route),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(poll),
        }
    }
}

/// Serves exactly one HTTP exchange on `stream` (best effort: a hostile
/// or slow client is simply dropped — the admin plane must never wedge).
fn answer_one(
    stream: TcpStream,
    poll: Duration,
    route: &impl Fn(&str) -> Option<(ContentType, String)>,
) {
    // Bounded patience: an admin client that stalls mid-request is cut
    // off rather than pinning the admin thread.
    let _ = stream.set_read_timeout(Some(poll.max(Duration::from_millis(50)).saturating_mul(20)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2000)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) if header.len() > 8192 => return, // hostile header
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut stream = stream;
    if method != "GET" {
        let _ = write_response(
            &mut stream,
            "405 Method Not Allowed",
            ContentType::Json,
            "{\"error\":\"method not allowed\"}\n",
        );
        return;
    }
    // Ignore any query string: `/metrics?x=y` scrapes `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    match route(path) {
        Some((ctype, body)) => {
            let _ = write_response(&mut stream, "200 OK", ctype, &body);
        }
        None => {
            let _ = write_response(
                &mut stream,
                "404 Not Found",
                ContentType::Json,
                "{\"error\":\"not found\"}\n",
            );
        }
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    ctype: ContentType,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        ctype.header_value(),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Destination of the slow-query log: one JSON line per request whose
/// latency crossed the configured `--slow-millis` threshold.
///
/// Writes are serialized through a mutex and flushed per line, so lines
/// from concurrent workers never interleave mid-record. A failed write
/// is dropped — the log is diagnostic, the serving path must not care.
pub struct SlowLog {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for SlowLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SlowLog(..)")
    }
}

impl SlowLog {
    /// A slow-query log writing to the process's stderr (the CLI default).
    pub fn stderr() -> SlowLog {
        SlowLog::to_writer(Box::new(io::stderr()))
    }

    /// A slow-query log writing to an arbitrary sink (tests pass a shared
    /// buffer; an embedder might pass a file).
    pub fn to_writer(out: Box<dyn Write + Send>) -> SlowLog {
        SlowLog {
            out: Mutex::new(out),
        }
    }

    /// Appends one pre-rendered JSON line (the newline is added here).
    pub(crate) fn record(&self, line: &str) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
            let _ = out.flush();
        }
    }
}
