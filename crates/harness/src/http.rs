//! The std-only HTTP/1.1 layer shared by the experiment runner's live
//! metrics endpoint (`--metrics-addr`, see [`crate::metrics`]) and the
//! `ccraft-serve` daemon.
//!
//! The vendored dependency set has no HTTP crates, so this is just
//! enough HTTP/1.1 for `curl`, a Prometheus scraper and the `ccx`
//! client: a plain [`TcpListener`] with one listener thread, one
//! short-lived thread per connection, and one request per connection
//! (`Connection: close`). A [`Handler`] maps each parsed [`Request`] to
//! a [`Response`]; routing is the caller's business.
//!
//! [`read_request`] bounds what a client can make the server buffer:
//! at most [`MAX_HEAD`] bytes of request head and [`MAX_BODY`] bytes of
//! body, and [`Server`] puts a [`READ_TIMEOUT`] on every connection.
//! Anything malformed or over a bound is dropped without a response.

use crate::error::Error;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head (request line + headers) [`read_request`]
/// buffers before giving up: 1 MiB.
pub const MAX_HEAD: usize = 1 << 20;

/// Largest `Content-Length` [`read_request`] accepts: 16 MiB.
pub const MAX_BODY: usize = 1 << 24;

/// Read timeout [`Server`] sets on every accepted connection.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Bytes read from the connection per `read` call.
const CHUNK: usize = 4096;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request target, query string included.
    pub path: String,
    /// The body: exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

/// One response; always sent with `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status line tail, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with an arbitrary status, type and body.
    pub fn new(status: &'static str, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "application/json", body)
    }
}

/// Maps one request to its response. Runs on the connection's thread.
pub type Handler = dyn Fn(Request) -> Response + Send + Sync;

/// Reads one request: the head up to the blank line, then exactly
/// `Content-Length` body bytes. Returns `None` — and the caller sends
/// nothing — when the input ends or fails early, has no request line,
/// carries an unparsable `Content-Length`, or exceeds [`MAX_HEAD`] or
/// [`MAX_BODY`].
pub fn read_request<R: Read>(reader: &mut R) -> Option<Request> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; CHUNK];
    let mut searched = 0;
    let header_end = loop {
        // Resume the terminator search where the last one stopped
        // (minus a possible partial match), so a long head costs
        // linear time.
        if let Some(pos) = buf[searched..].windows(4).position(|w| w == b"\r\n\r\n") {
            break searched + pos + 4;
        }
        searched = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD {
            return None;
        }
        match reader.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = head.lines();
    let mut request_line = lines.next()?.split_whitespace();
    let method = request_line.next()?.to_string();
    let path = request_line.next()?.to_string();
    let content_length: usize = match lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v.trim().parse().ok()?,
        None => 0,
    };
    if content_length > MAX_BODY {
        return None;
    }
    let mut body = buf[header_end..].to_vec();
    if body.len() < content_length {
        let missing = (content_length - body.len()) as u64;
        reader.take(missing).read_to_end(&mut body).ok()?;
        if body.len() < content_length {
            return None;
        }
    }
    body.truncate(content_length);
    Some(Request { method, path, body })
}

/// Writes `response` with its `Content-Type`, `Content-Length` and
/// `Connection: close` headers.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn write_response<W: Write>(writer: &mut W, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)
}

/// The bytes [`request`] sends: request line, `Host`, `Content-Length`
/// and `Connection: close` headers, then the body.
pub fn request_bytes(host: &str, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Sends one HTTP request to `addr` and returns `(status code, body
/// bytes)`.
///
/// # Errors
///
/// Returns [`Error::Io`] on connection failures and [`Error::Config`]
/// on malformed responses.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), Error> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| Error::io(format!("connecting to {addr}"), e))?;
    stream
        .write_all(&request_bytes(addr, method, path, body.unwrap_or(&[])))
        .map_err(|e| Error::io(format!("sending {method} {path}"), e))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| Error::io(format!("reading {method} {path} response"), e))?;
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| Error::Config(format!("malformed response to {method} {path}")))?;
    let head = String::from_utf8_lossy(&response[..header_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| Error::Config(format!("no status line in response to {method} {path}")))?;
    Ok((status, response[header_end + 4..].to_vec()))
}

/// A running listener; dropping it (or [`Server::shutdown`]) stops the
/// listener thread. Connection threads finish their one request
/// independently.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port)
    /// and answers every connection with `handler` until shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the listener cannot bind or its thread
    /// cannot start.
    pub fn bind(addr: &str, handler: Arc<Handler>) -> Result<Server, Error> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::io(format!("binding {addr}"), e))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::io("resolving bound address".to_string(), e))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ccraft-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let handler = Arc::clone(&handler);
                        let _ = std::thread::Builder::new()
                            .name("ccraft-http-conn".to_string())
                            .spawn(move || serve_connection(stream, handler.as_ref()));
                    }
                }
            })
            .map_err(|e| Error::io("spawning listener thread".to_string(), e))?;
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_inner();
        }
    }
}

/// Answers one connection: one request in, one response out.
fn serve_connection(mut stream: TcpStream, handler: &Handler) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    if let Some(request) = read_request(&mut stream) {
        let _ = write_response(&mut stream, &handler(request));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splitmix64;

    /// A reader over a byte slice that counts what it hands out.
    struct Counting<'a> {
        data: &'a [u8],
        read: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(self.data.len() - self.read);
            out[..n].copy_from_slice(&self.data[self.read..self.read + n]);
            self.read += n;
            Ok(n)
        }
    }

    fn parse(bytes: &[u8]) -> (Option<Request>, usize) {
        let mut r = Counting {
            data: bytes,
            read: 0,
        };
        (read_request(&mut r), r.read)
    }

    /// Deterministic stream of draws from `seed`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
        /// Random bytes, fewer than `max` of them.
        fn bytes(&mut self, max: u64) -> Vec<u8> {
            let n = self.below(max);
            (0..n).map(|_| self.next() as u8).collect()
        }
        /// A token of printable, non-space ASCII.
        fn token(&mut self, max: u64) -> String {
            let len = 1 + self.below(max) as usize;
            (0..len)
                .map(|_| (b'!' + self.below(94) as u8) as char)
                .collect()
        }
    }

    #[test]
    fn parses_a_plain_request() {
        let (req, _) = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcEXTRA");
        let req = req.expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"abc", "the body stops at Content-Length");
        assert!(parse(b"GET /x HTTP/1.1\r\n").0.is_none(), "no blank line");
        assert!(parse(b"GET\r\n\r\n").0.is_none(), "no path");
        let lying = b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(parse(lying).0.is_none(), "body shorter than Content-Length");
        let bad = b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n";
        assert!(parse(bad).0.is_none(), "unparsable Content-Length");
    }

    #[test]
    fn writes_a_framed_response() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json("404 Not Found", "{}")).expect("write");
        assert_eq!(
            out,
            b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
              Content-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }

    /// Seeded fuzz loop over the one request parser: random, truncated
    /// and oversized heads, lying `Content-Length` values, and client
    /// requests that must parse back unchanged. A panic fails the test.
    #[test]
    fn fuzzed_requests_never_panic_and_respect_the_caps() {
        let mut rng = Rng(0x00c0_ffee);
        for case in 0..400u64 {
            match case % 5 {
                // Random bytes, sometimes with a terminator spliced in.
                0 => {
                    let mut bytes = rng.bytes(2 * CHUNK as u64);
                    let len = bytes.len();
                    if rng.below(2) == 0 && len > 4 {
                        let at = rng.below(len as u64 - 4) as usize;
                        bytes[at..at + 4].copy_from_slice(b"\r\n\r\n");
                    }
                    let (req, _) = parse(&bytes);
                    if let Some(req) = req {
                        assert!(req.body.len() <= MAX_BODY);
                    }
                }
                // A valid request cut off at a random byte.
                1 => {
                    let body = rng.bytes(64);
                    let full = request_bytes("h", "POST", &rng.token(20), &body);
                    let cut = rng.below(full.len() as u64) as usize;
                    assert!(parse(&full[..cut]).0.is_none(), "truncated at {cut}");
                }
                // A head with no terminator past the head cap: rejected
                // after reading at most one chunk past the cap.
                2 => {
                    let len = MAX_HEAD + 1 + rng.below(3 * CHUNK as u64) as usize;
                    let head = vec![b'a'; len];
                    let (req, read) = parse(&head);
                    assert!(req.is_none());
                    assert!(read <= MAX_HEAD + CHUNK + 3, "read {read} bytes");
                }
                // Lying Content-Length: over the cap is refused before
                // the body is read; more than what follows is refused.
                3 => {
                    let sent = rng.bytes(256);
                    let claim = if rng.below(2) == 0 {
                        MAX_BODY as u64 + 1 + rng.below(u64::from(u32::MAX))
                    } else {
                        sent.len() as u64 + 1 + rng.below(1 << 20)
                    };
                    let mut bytes =
                        format!("PUT /x HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n").into_bytes();
                    let head_len = bytes.len();
                    bytes.extend_from_slice(&sent);
                    let (req, read) = parse(&bytes);
                    assert!(req.is_none(), "claim {claim} over {} sent", sent.len());
                    if claim > MAX_BODY as u64 {
                        assert!(read <= head_len + CHUNK, "read {read} bytes");
                    }
                }
                // Round trip: what the client sends parses back intact.
                _ => {
                    let method = ["GET", "POST", "PUT", "DELETE"][rng.below(4) as usize];
                    let path = format!("/{}", rng.token(40));
                    let body = rng.bytes(3 * CHUNK as u64);
                    let (req, _) = parse(&request_bytes("127.0.0.1:1", method, &path, &body));
                    let req = req.expect("client requests parse");
                    assert_eq!((req.method.as_str(), req.path.as_str()), (method, &*path));
                    assert_eq!(req.body, body);
                }
            }
        }
    }

    #[test]
    fn server_answers_through_its_handler() {
        let handler: Arc<Handler> = Arc::new(|req: Request| {
            let mut echo = format!("{} {} ", req.method, req.path).into_bytes();
            echo.extend_from_slice(&req.body);
            Response::new("200 OK", "text/plain", echo)
        });
        let server = Server::bind("127.0.0.1:0", handler).expect("bind");
        let addr = server.addr().to_string();
        let (status, body) = request(&addr, "POST", "/echo?x=1", Some(b"payload")).expect("post");
        assert_eq!(status, 200);
        assert_eq!(body, b"POST /echo?x=1 payload");
        // A connection that sends garbage gets no answer; the next one
        // still does.
        let mut junk = TcpStream::connect(server.addr()).expect("connect");
        junk.write_all(b"garbage\r\n\r\n").expect("send");
        let mut nothing = Vec::new();
        let _ = junk.read_to_end(&mut nothing);
        assert!(nothing.is_empty());
        assert_eq!(request(&addr, "GET", "/", None).expect("get").0, 200);
        server.shutdown();
    }
}
