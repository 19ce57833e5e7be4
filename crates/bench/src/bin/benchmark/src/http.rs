//! A blocking keep-alive HTTP/1.1 client: just enough to be the closed-loop
//! caller of `sordf_server` over loopback.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// One `GET` exchange on the persistent connection: `(status, body)`.
    /// No `Accept` header, so query results come back as JSON.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, String)> {
        let head = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.buf.clear();
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(&self.buf[body_start..body_start + len]).into_owned();
        Ok((status, body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("server closed mid-response"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

pub fn urlencode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urlencode_escapes_reserved_bytes() {
        assert_eq!(urlencode("a b?<x>"), "a+b%3F%3Cx%3E");
    }
}
