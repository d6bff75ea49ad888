//! A minimal HTTP/1.1 keep-alive client, so the load generator depends on
//! nothing inside the server crate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Write one request (`body` empty means no body).
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        let mut req = Vec::with_capacity(96 + body.len());
        write!(
            req,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.stream.write_all(&req)
    }

    /// Read one response: `(status, body)`.
    pub fn recv(&mut self) -> std::io::Result<(u16, String)> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end..head_end + len].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }

    pub fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.send(method, path, body)?;
        self.recv()
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// `GET path` on a fresh connection.
pub fn get_once(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    Conn::connect(addr)?.call("GET", path, "")
}
