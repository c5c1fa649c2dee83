//! The load generator's HTTP/1.1 client: a keep-alive connection with
//! `TCP_NODELAY`, each request written in one buffer, and the closed loop
//! that drives it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// A request ready to write: the whole message in one buffer.
#[derive(Clone)]
pub struct Request {
    /// Which latency series the request belongs to (a workload's own
    /// numbering).
    pub kind: usize,
    /// The bytes on the wire.
    pub bytes: Vec<u8>,
}

impl Request {
    /// Formats `method path` with an optional JSON body.
    pub fn new(kind: usize, method: &str, path: &str, body: &str) -> Request {
        let mut bytes = Vec::with_capacity(body.len() + 128);
        let _ = write!(
            bytes,
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        bytes.extend_from_slice(body.as_bytes());
        Request { kind, bytes }
    }
}

/// A parsed response.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (the server only sends UTF-8 JSON or text).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One keep-alive connection with a read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Writes a whole request.
    fn send(&mut self, req: &[u8]) -> io::Result<()> {
        self.stream.write_all(req)
    }

    /// One `read` into the buffer; an orderly close is an error, since
    /// every request expects a reply.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Takes one complete response off the buffer, if it holds one.
    fn take(&mut self) -> io::Result<Option<Response>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = None;
        for l in lines {
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse::<usize>().ok();
                }
            }
        }
        let len = len.ok_or_else(|| bad("response without Content-Length"))?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response { status, body }))
    }

    /// Blocks until one whole response arrives.
    fn recv(&mut self) -> io::Result<Response> {
        loop {
            if let Some(r) = self.take()? {
                return Ok(r);
            }
            self.fill()?;
        }
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send(&req.bytes)?;
        self.recv()
    }
}

/// What drives the closed loop: the next request is asked for only
/// when the previous reply has arrived.
pub trait Script {
    /// The next request, or `None` when the run is over.
    fn next(&mut self) -> Option<Request>;
    /// Takes the reply to `req` and checks it. `Err` counts one failed
    /// operation; the loop goes on.
    fn reply(&mut self, req: &Request, resp: Response, ms: f64) -> Result<(), String>;
}

/// One completed request or operation.
#[derive(Clone, Copy)]
pub struct Sample {
    /// The request kind (a workload's own numbering).
    pub kind: usize,
    /// When it completed.
    pub at: Instant,
    /// How long it took.
    pub ms: f64,
    /// Reply body bytes.
    pub bytes: usize,
}

/// The replies of one closed loop, in completion order, and the
/// failures met.
#[derive(Default)]
pub struct Tally {
    /// One per completed request.
    pub replies: Vec<Sample>,
    /// Requests attempted.
    pub attempted: u64,
    /// Failure messages (each one failed operation).
    pub failures: Vec<String>,
}

impl Tally {
    /// The replies of one kind, in completion order.
    pub fn of_kind(&self, kind: usize) -> Vec<Sample> {
        self.replies
            .iter()
            .copied()
            .filter(|r| r.kind == kind)
            .collect()
    }
}

/// Runs `script` over `conn` in a closed loop until it has no more
/// requests. A reply that does not come within two minutes aborts the
/// loop with an error.
pub fn closed_loop(conn: &mut Conn, script: &mut dyn Script) -> io::Result<Tally> {
    let mut tally = Tally::default();
    while let Some(req) = script.next() {
        tally.attempted += 1;
        let t0 = Instant::now();
        let resp = conn.call(&req)?;
        let at = Instant::now();
        let ms = at.duration_since(t0).as_secs_f64() * 1e3;
        tally.replies.push(Sample {
            kind: req.kind,
            at,
            ms,
            bytes: resp.body.len(),
        });
        if let Err(e) = script.reply(&req, resp, ms) {
            tally.failures.push(e);
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn requests_are_one_buffer_with_a_length() {
        let r = Request::new(3, "POST", "/eval", "{\"a\":1}");
        let text = String::from_utf8(r.bytes).unwrap();
        assert!(text.starts_with("POST /eval HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n\r\n{\"a\":1}"));
        assert_eq!(r.kind, 3);
    }

    #[test]
    fn responses_split_across_reads_and_pipelined_are_parsed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut req = [0u8; 256];
            let _ = s.read(&mut req).unwrap();
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b"ngth: 2\r\n\r\nokHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n")
                .unwrap();
        });
        let mut c = Conn::connect(addr).unwrap();
        let r = c.call(&Request::new(0, "GET", "/x", "")).unwrap();
        assert_eq!((r.status, r.text()), (200, "ok"));
        let r = c.recv().unwrap();
        assert_eq!((r.status, r.body.len()), (404, 0));
        server.join().unwrap();
    }
}
