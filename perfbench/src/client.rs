//! One timed HTTP/1.1 exchange with `webtable-serve`: a fresh
//! connection per request (`Connection: close`), as the server expects.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request client timeout; a request that takes longer is a failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// What one exchange returned and when.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// When the first response byte arrived.
    pub first_byte: Instant,
}

/// Sends `method path` with `body` on a new connection and reads the
/// whole response. Errors are I/O failures, timeouts included.
pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body.as_bytes());
    stream.write_all(&request)?;

    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16384];
    let n = stream.read(&mut buf)?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&buf[..n]);
    if n > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let (status, body) = webtable_server::client::parse_response(&raw)?;
    Ok(Reply { status, body, first_byte })
}
