//! A minimal, dependency-free HTTP/1.1 subset.
//!
//! Exactly what the serving layer needs, nothing more: request-line +
//! headers + `Content-Length` body on the way in; status-line +
//! `Content-Length` + `Connection: close` on the way out. No chunked
//! transfer, no keep-alive, no TLS. Limits are enforced while reading
//! so a hostile peer cannot make the server buffer unbounded input.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard caps on what the parser will buffer.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Request bodies above this are rejected with 413.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, e.g. `/v1/annotate`.
    pub path: String,
    /// Body bytes, decoded as UTF-8 (the wire format is JSON text).
    pub body: String,
}

/// Why a request could not be parsed, with the status to answer.
#[derive(Debug)]
pub struct HttpError {
    /// HTTP status code to respond with.
    pub status: u16,
    /// Machine-readable error code for the JSON error body.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl HttpError {
    fn bad(message: impl Into<String>) -> HttpError {
        HttpError { status: 400, code: "bad_request", message: message.into() }
    }
}

/// Reads one request from the stream. Returns `Ok(None)` on a clean
/// EOF before any bytes (peer connected and went away).
pub fn read_request<R: Read>(stream: R) -> Result<Option<Request>, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut header_bytes = 0usize;
    let Some(line) = read_header_line(&mut reader, &mut header_bytes, "request line too long")?
    else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(format!("malformed request line: {}", line.trim_end())));
    }

    // Loop until the blank separator line, not `for _ in 0..MAX_HEADERS`:
    // a counted loop that gives up without consuming the blank line
    // leaves the parser desynced, silently reading header bytes as the
    // body. Over-limit requests must be rejected, never misparsed.
    let mut content_length: Option<usize> = None;
    let mut headers_seen = 0usize;
    while let Some(header) =
        read_header_line(&mut reader, &mut header_bytes, "header section too large")?
    {
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers_seen += 1;
        if headers_seen > MAX_HEADERS {
            return Err(HttpError {
                status: 431,
                code: "headers_too_large",
                message: format!("more than {MAX_HEADERS} headers"),
            });
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // RFC 9110 §8.6: 1*DIGIT. `str::parse` would also take a
                // sign, reading `+4` as 4.
                let digits = value.trim();
                let parsed = match digits.parse::<usize>() {
                    Ok(n) if digits.bytes().all(|b| b.is_ascii_digit()) => n,
                    _ => return Err(HttpError::bad(format!("bad content-length: {value}"))),
                };
                // Repeated equal values are harmless; conflicting ones
                // mean request smuggling or a confused client — reject.
                if content_length.is_some_and(|prev| prev != parsed) {
                    return Err(HttpError::bad("conflicting content-length headers"));
                }
                content_length = Some(parsed);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            code: "body_too_large",
            message: format!("body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
        });
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| HttpError::bad(format!("body read: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| HttpError::bad("body is not UTF-8"))?;
    Ok(Some(Request { method, path, body }))
}

/// Reads one line of the header section (the request line or a header
/// field) and adds its length to `used`, the bytes the section has taken
/// so far. It consumes at most `MAX_HEADER_BYTES - used + 1` bytes: enough
/// to see that the section overruns its cap, so a line that never ends is
/// answered with 431 instead of being buffered whole. `None` means EOF.
fn read_header_line<R: BufRead>(
    reader: R,
    used: &mut usize,
    too_large: &str,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let budget = (MAX_HEADER_BYTES - *used) as u64 + 1;
    let n = reader
        .take(budget)
        .read_until(b'\n', &mut line)
        .map_err(|e| HttpError::bad(format!("header read: {e}")))?;
    *used += n;
    if *used > MAX_HEADER_BYTES {
        return Err(HttpError {
            status: 431,
            code: "headers_too_large",
            message: too_large.into(),
        });
    }
    if n == 0 {
        return Ok(None);
    }
    String::from_utf8(line).map(Some).map_err(|_| HttpError::bad("header section is not UTF-8"))
}

/// An outgoing response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text (always `application/json` in this server).
    pub body: String,
}

impl Response {
    /// A 200 with the given JSON body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response { status: 200, body: body.into() }
    }
}

/// The reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `resp` to the stream in one `write_all`, so Nagle's algorithm
/// never holds the body back behind its own unacknowledged header.
/// Errors are swallowed — the peer hanging up mid-response is not a
/// server failure.
pub fn write_response(stream: &mut TcpStream, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len()
    );
    let _ = stream.write_all(&[head.as_bytes(), resp.body.as_bytes()].concat());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/annotate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";
        let req = read_request(raw.as_slice()).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/annotate");
        assert_eq!(req.body, "{\"a\"");
    }

    #[test]
    fn parses_get_without_body() {
        let req = read_request(b"GET /health HTTP/1.1\r\n\r\n".as_slice()).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = read_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
        assert_eq!(err.code, "body_too_large");
    }

    #[test]
    fn rejects_too_many_headers_without_desync() {
        // MAX_HEADERS + 1 short headers stay under MAX_HEADER_BYTES, so
        // only the count limit can reject this. The old counted loop
        // exited here without consuming the blank line and read the
        // remaining header bytes as the body.
        let mut raw = String::from("POST /v1/annotate HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = read_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status, 431);
        assert_eq!(err.code, "headers_too_large");
    }

    #[test]
    fn exactly_max_headers_still_parses() {
        let mut raw = String::from("POST /x HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS - 1 {
            raw.push_str(&format!("X-{i}: v\r\n"));
        }
        raw.push_str("Content-Length: 2\r\n\r\nok");
        let req = read_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd";
        let err = read_request(raw.as_slice()).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.code, "bad_request");
        assert!(err.message.contains("conflicting content-length"));
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+4", "0x4", "-4", "4 4", "", "４"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
            let err = read_request(raw.as_bytes()).unwrap_err();
            assert_eq!((err.status, err.code), (400, "bad_request"), "{value:?}");
        }
        // A signed copy of a valid length is not an equal repeat.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: +4\r\n\r\nabcd";
        assert_eq!(read_request(raw.as_slice()).unwrap_err().status, 400);
        let raw = b"POST /x HTTP/1.1\r\nContent-Length:  004\t\r\n\r\nabcd";
        assert_eq!(read_request(raw.as_slice()).unwrap().unwrap().body, "abcd");
    }

    #[test]
    fn repeated_equal_content_lengths_parse() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(raw.as_slice()).unwrap().unwrap();
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn rejects_malformed_request_line() {
        let err = read_request(b"NONSENSE\r\n\r\n".as_slice()).unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn empty_connection_is_none() {
        assert!(read_request(b"".as_slice()).unwrap().is_none());
    }

    /// A peer that sends `prefix` and then `x` bytes with no newline,
    /// counting every byte the parser pulls. It ends after 1 MiB so a
    /// parser that reads to the newline returns instead of hanging.
    struct EndlessLine {
        prefix: &'static [u8],
        read: usize,
    }

    impl Read for EndlessLine {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min((1 << 20) - self.read);
            for (i, b) in buf[..n].iter_mut().enumerate() {
                *b = self.prefix.get(self.read + i).copied().unwrap_or(b'x');
            }
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn over_long_lines_get_431_after_a_bounded_read() {
        // Past the cap plus the one byte that shows the overrun, the
        // parser may only have pulled its BufReader's 8 KiB buffer.
        let bound = MAX_HEADER_BYTES + 1 + 8 * 1024;
        for prefix in [b"".as_slice(), b"GET /health HTTP/1.1\r\nX-Long: "] {
            let mut peer = EndlessLine { prefix, read: 0 };
            let err = read_request(&mut peer).unwrap_err();
            assert_eq!((err.status, err.code), (431, "headers_too_large"));
            assert!(peer.read <= bound, "read {} bytes, bound {bound}", peer.read);
        }
    }

    const VALID: &[u8] =
        b"POST /v1/annotate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"";

    /// Every input must parse or be refused with a client-error status.
    fn parses_or_refuses(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Err(e) = read_request(bytes) {
            prop_assert!(
                matches!(e.status, 400 | 413 | 431),
                "status {} ({}) for {:?}",
                e.status,
                e.message,
                String::from_utf8_lossy(bytes)
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_parse_or_are_refused(
            bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            parses_or_refuses(&bytes)?;
        }

        #[test]
        fn mutated_requests_parse_or_are_refused(
            inserts in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..4),
            flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
            keep in any::<usize>(),
        ) {
            let mut bytes = VALID.to_vec();
            for (at, cr) in inserts {
                bytes.insert(at % (bytes.len() + 1), if cr { b'\r' } else { b'\n' });
            }
            for (at, mask) in flips {
                let i = at % bytes.len();
                bytes[i] ^= mask;
            }
            bytes.truncate(keep % (bytes.len() + 1));
            parses_or_refuses(&bytes)?;
        }
    }
}
