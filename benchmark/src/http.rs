//! A keep-alive HTTP/1.1 client over one `TcpStream` — what one analyst's
//! browser tab is to the server. A response is complete at its last body byte
//! (`Content-Length`, or the terminating chunk); the client never waits for
//! the connection to close.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Long enough for any click of the script, short enough that a wedged server
/// fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A stream that acknowledges what it receives at once (`TCP_QUICKACK`).
///
/// The server writes a response's head and body separately without
/// `TCP_NODELAY`, so the body waits for the client's ACK of the head — and
/// Linux delays that ACK by 40 ms on some exchanges and not on others, as its
/// heuristics see fit. Left alone, that coin decides a third of a click's
/// latency and most of its run-to-run spread. It is this end's timer, not the
/// server's work, so the clicking connections switch it off; the kernel
/// clears the flag whenever it likes, hence before every read.
/// `server.health_rtt_us` is taken on a connection that leaves it on
/// ([`Conn::delayed_ack`]).
struct Stream {
    tcp: TcpStream,
    quick_ack: bool,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.quick_ack {
            const IPPROTO_TCP: i32 = 6;
            const TCP_QUICKACK: i32 = 12;
            let on: i32 = 1;
            // SAFETY: the descriptor is open for as long as `self.tcp` lives,
            // and `on` is a live `int` of the length given. A refusal only
            // means the ACK may be late, which is where we started.
            unsafe { setsockopt(self.tcp.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4) };
        }
        self.tcp.read(buf)
    }
}

pub struct Conn {
    addr: SocketAddr,
    quick_ack: bool,
    stream: Option<BufReader<Stream>>,
    /// Connections opened after the first — the server closes a connection
    /// every `max_requests_per_conn` requests and after an idle timeout.
    pub reconnects: u64,
    opened: bool,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            quick_ack: true,
            stream: None,
            reconnects: 0,
            opened: false,
        }
    }

    /// A connection that leaves the kernel's delayed ACK alone, as a client
    /// that knows nothing of the server's split writes would.
    pub fn delayed_ack(addr: SocketAddr) -> Conn {
        Conn {
            quick_ack: false,
            ..Conn::new(addr)
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let tcp = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        tcp.set_nodelay(true)?;
        tcp.set_read_timeout(Some(IO_TIMEOUT))?;
        tcp.set_write_timeout(Some(IO_TIMEOUT))?;
        let stream = Stream {
            tcp,
            quick_ack: self.quick_ack,
        };
        if self.opened {
            self.reconnects += 1;
        }
        self.opened = true;
        self.stream = Some(BufReader::with_capacity(64 << 10, stream));
        Ok(())
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        self.request("GET", target, None)
    }

    pub fn post(&mut self, target: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", target, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nAccept: application/sparql-results+json\r\n",
            self.addr
        );
        if let Some(b) = body {
            head.push_str(&format!("Content-Length: {}\r\n", b.len()));
        }
        head.push_str("\r\n");
        if let Some(b) = body {
            head.push_str(b);
        }
        // A kept-alive connection the server has since closed fails on the
        // write or on the first read; nothing was answered, so resending on a
        // fresh connection is safe.
        if self.stream.is_some() {
            match self.exchange(&head) {
                Ok(r) => return Ok(r),
                Err(_) => self.stream = None,
            }
        }
        self.connect()?;
        let outcome = self.exchange(&head);
        if outcome.is_err() {
            self.stream = None;
        }
        outcome
    }

    fn exchange(&mut self, request: &str) -> std::io::Result<Response> {
        let reader = self.stream.as_mut().expect("connected before exchange");
        reader.get_mut().tcp.write_all(request.as_bytes())?;

        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad_data(format!("bad status line {line:?}")))?;

        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => content_length = value.parse().ok(),
                    "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
                    "connection" => close = value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }

        let mut body = Vec::new();
        if chunked {
            loop {
                line.clear();
                reader.read_line(&mut line)?;
                let size = usize::from_str_radix(line.trim(), 16)
                    .map_err(|_| bad_data(format!("bad chunk size {line:?}")))?;
                if size == 0 {
                    reader.read_line(&mut line)?; // the CRLF after the last chunk
                    break;
                }
                let at = body.len();
                body.resize(at + size, 0);
                reader.read_exact(&mut body[at..])?;
                reader.read_exact(&mut [0u8; 2])?;
            }
        } else if let Some(n) = content_length {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        } else {
            // neither framing: the body ends when the server closes
            reader.read_to_end(&mut body)?;
            close = true;
        }
        if close {
            self.stream = None;
        }
        Ok(Response { status, body })
    }
}

fn bad_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
