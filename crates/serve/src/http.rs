//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`] — just enough for
//! the daemon's wire protocol, with zero dependencies.
//!
//! One request per connection (`Connection: close` on every response): the
//! daemon's unit of work is a whole experiment batch, so connection reuse
//! buys nothing and dropping it keeps the server loop trivially correct.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body — batches are small JSON documents.
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, path, headers, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (as sent; not validated against a method list).
    pub method: String,
    /// The request target, e.g. `/v1/experiments`. Query strings are kept
    /// as-is (the router splits them off).
    pub path: String,
    /// Headers in arrival order, names lowercased and values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when there is no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response to serialize: status, content type, body, and an optional
/// `Retry-After` value (seconds) for load-shed responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// `Retry-After` seconds, set on 503 load-shed responses.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A JSON error envelope: `{"error":"..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}\n", json_string(message)))
    }
}

pub use tagstudy::json_string;

/// The standard reason phrase for the status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Read and parse one request from `stream`.
///
/// # Errors
///
/// A malformed request line, an oversized head or body, or socket I/O
/// failures (including read timeouts) — all of which the caller answers with
/// a 400 and a closed connection.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    // Read until the blank line ending the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(format!("request head exceeds {MAX_HEAD} bytes"));
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before end of request head".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(format!("malformed request line {request_line:?}"));
    };
    let mut content_length: Option<usize> = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // Strict by design: duplicates are a smuggling vector, and
                // `parse::<usize>()` alone would accept "+5".
                if content_length.is_some() {
                    return Err("duplicate Content-Length header".to_string());
                }
                let text = value.trim();
                if text.is_empty() || !text.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(format!("bad Content-Length {value:?}"));
                }
                content_length = Some(
                    text.parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?,
                );
            }
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("request body exceeds {MAX_BODY} bytes"));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serialize `response` onto `stream`. Errors are swallowed — the peer may
/// have gone away, and there is nobody left to tell.
pub fn write_response(stream: &mut TcpStream, response: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(&response.body))
        .and_then(|()| stream.flush());
}

/// A one-shot client request (used by `tagctl` and the tests): connect, send,
/// read the full response, return `(status, body)`.
///
/// # Errors
///
/// Connection or I/O failures, or an unparsable response head.
pub fn fetch(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: std::time::Duration,
) -> Result<(u16, Vec<u8>), String> {
    fetch_headers(addr, method, path, body, timeout, &[])
}

/// [`fetch`] with extra request headers (name, value) — how `tagctl` sends
/// its `traceparent`. Header values must not contain CR/LF.
///
/// # Errors
///
/// As [`fetch`].
pub fn fetch_headers(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: std::time::Duration,
    extra_headers: &[(&str, &str)],
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        debug_assert!(
            !name.contains(['\r', '\n']) && !value.contains(['\r', '\n']),
            "header injection"
        );
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let head_end = find_head_end(&raw).ok_or("response head never ended")?;
    let head_text = std::str::from_utf8(&raw[..head_end]).map_err(|_| "head is not UTF-8")?;
    let status_line = head_text.split("\r\n").next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// Round-trip a request and response over a real socket pair.
    #[test]
    fn request_response_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/experiments");
            assert_eq!(req.body, b"{\"experiments\":[\"frl\"]}");
            // Header names are lowercased, values trimmed; lookup is by
            // lowercase name no matter how the client spelled it.
            assert_eq!(req.header("traceparent"), Some("00-abc-def-01"));
            assert!(req.header("host").is_some());
            assert_eq!(req.header("nope"), None);
            write_response(&mut stream, &Response::json(200, "{\"ok\":true}"));
        });
        let (status, body) = fetch_headers(
            &addr,
            "POST",
            "/v1/experiments",
            b"{\"experiments\":[\"frl\"]}",
            std::time::Duration::from_secs(5),
            &[("TraceParent", "00-abc-def-01")],
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\":true}");
    }
}
