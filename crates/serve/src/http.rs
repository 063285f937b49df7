//! A bounded, panic-free HTTP/1.1 request parser and response writer.
//!
//! Hand-rolled on `std` only, like the rest of the workspace's I/O: the
//! service needs exactly enough HTTP to parse a request line, a small
//! header block, an optional `Content-Length` body, and to write framed
//! responses — not a general-purpose server stack. Every way a request
//! can be malformed, oversized, or truncated maps to a typed
//! [`RequestError`] carrying its 4xx status; nothing in this module
//! panics on untrusted input (`tests/parser_properties.rs` proves it on
//! arbitrary byte soup).

use std::io::{self, BufRead, Write};

use crate::json;

/// Longest accepted request line, bytes (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header line, bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY: usize = 1024 * 1024;

/// Request methods the service understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
}

impl Method {
    /// The method's wire token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }
}

/// Every way an incoming request can be rejected. Each variant maps to a
/// definite 4xx status — the parser never panics and never produces a
/// half-validated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The connection closed before a complete request was read.
    Truncated,
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// The request line was not `METHOD SP TARGET SP VERSION`.
    MalformedRequestLine,
    /// The method token is not one the service accepts.
    UnsupportedMethod,
    /// The version was not `HTTP/1.0` or `HTTP/1.1`.
    UnsupportedVersion,
    /// A header line exceeded [`MAX_HEADER_LINE`].
    HeaderTooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A header line had no `:` separator or an empty name.
    MalformedHeader,
    /// `Content-Length` was present but not a valid integer.
    BadContentLength,
    /// The declared (or actual) body exceeds [`MAX_BODY`].
    BodyTooLarge,
    /// `Transfer-Encoding` is not supported; bodies must be
    /// `Content-Length`-framed.
    UnsupportedTransferEncoding,
    /// The target contained an invalid percent-escape or raw control
    /// bytes.
    BadTarget,
    /// The socket failed mid-read (timeout, reset).
    Io,
}

impl RequestError {
    /// The 4xx status this rejection answers with.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::RequestLineTooLong
            | RequestError::HeaderTooLong
            | RequestError::TooManyHeaders => 431,
            RequestError::UnsupportedMethod => 405,
            RequestError::BodyTooLarge => 413,
            RequestError::Io | RequestError::Truncated => 408,
            _ => 400,
        }
    }

    /// Short machine-readable label for the error body.
    pub fn label(&self) -> &'static str {
        match self {
            RequestError::Truncated => "truncated",
            RequestError::RequestLineTooLong => "request_line_too_long",
            RequestError::MalformedRequestLine => "malformed_request_line",
            RequestError::UnsupportedMethod => "unsupported_method",
            RequestError::UnsupportedVersion => "unsupported_version",
            RequestError::HeaderTooLong => "header_too_long",
            RequestError::TooManyHeaders => "too_many_headers",
            RequestError::MalformedHeader => "malformed_header",
            RequestError::BadContentLength => "bad_content_length",
            RequestError::BodyTooLarge => "body_too_large",
            RequestError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            RequestError::BadTarget => "bad_target",
            RequestError::Io => "io",
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Percent-decoded path (no query string).
    pub path: String,
    /// Decoded query parameters, in wire order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line of at most `cap` bytes,
/// without the terminator. `Ok(None)` means clean EOF before any byte.
fn read_line_bounded(
    r: &mut impl BufRead,
    cap: usize,
    too_long: RequestError,
) -> Result<Option<Vec<u8>>, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(RequestError::Truncated);
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(Some(line));
                }
                if line.len() >= cap {
                    return Err(too_long);
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(RequestError::Io),
        }
    }
}

/// Decodes `%XX` escapes (and, when `plus_is_space`, `+`) in one
/// URL-encoded component. Rejects bad escapes, raw control bytes, and
/// invalid UTF-8.
fn percent_decode(s: &[u8], plus_is_space: bool) -> Result<String, RequestError> {
    let mut out = Vec::with_capacity(s.len());
    let mut i = 0;
    while i < s.len() {
        match s[i] {
            b'%' => {
                let hi = s.get(i + 1).and_then(|b| (*b as char).to_digit(16));
                let lo = s.get(i + 2).and_then(|b| (*b as char).to_digit(16));
                match (hi, lo) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => return Err(RequestError::BadTarget),
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b if b < 0x20 || b == 0x7f => return Err(RequestError::BadTarget),
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| RequestError::BadTarget)
}

/// Splits and decodes a request target into path + query pairs.
fn parse_target(target: &[u8]) -> Result<(String, Vec<(String, String)>), RequestError> {
    let (path_raw, query_raw) = match target.iter().position(|&b| b == b'?') {
        Some(at) => (&target[..at], Some(&target[at + 1..])),
        None => (target, None),
    };
    if path_raw.is_empty() || path_raw[0] != b'/' {
        return Err(RequestError::BadTarget);
    }
    let path = percent_decode(path_raw, false)?;
    let mut query = Vec::new();
    if let Some(raw) = query_raw {
        for pair in raw.split(|&b| b == b'&') {
            if pair.is_empty() {
                continue;
            }
            let (k, v) = match pair.iter().position(|&b| b == b'=') {
                Some(at) => (&pair[..at], &pair[at + 1..]),
                None => (pair, &[][..]),
            };
            query.push((percent_decode(k, true)?, percent_decode(v, true)?));
        }
    }
    Ok((path, query))
}

/// Parses one request from `r`, enforcing every bound. `Ok(None)` means
/// the peer closed the connection without sending anything.
///
/// # Errors
///
/// Any malformed, oversized, or truncated input yields the corresponding
/// [`RequestError`]; I/O failures map to [`RequestError::Io`].
pub fn parse_request(r: &mut impl BufRead) -> Result<Option<Request>, RequestError> {
    let line = match read_line_bounded(r, MAX_REQUEST_LINE, RequestError::RequestLineTooLong)? {
        None => return Ok(None),
        Some(line) => line,
    };

    let mut parts = line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let (method_raw, target_raw, version_raw) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(RequestError::MalformedRequestLine),
    };
    if parts.next().is_some() {
        return Err(RequestError::MalformedRequestLine);
    }
    let method = match method_raw {
        b"GET" => Method::Get,
        b"POST" => Method::Post,
        _ => return Err(RequestError::UnsupportedMethod),
    };
    if version_raw != b"HTTP/1.1" && version_raw != b"HTTP/1.0" {
        return Err(RequestError::UnsupportedVersion);
    }
    let (path, query) = parse_target(target_raw)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line_bounded(r, MAX_HEADER_LINE, RequestError::HeaderTooLong)?
            .ok_or(RequestError::Truncated)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(RequestError::TooManyHeaders);
        }
        let at = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(RequestError::MalformedHeader)?;
        if at == 0 {
            return Err(RequestError::MalformedHeader);
        }
        let name = std::str::from_utf8(&line[..at])
            .map_err(|_| RequestError::MalformedHeader)?
            .trim()
            .to_ascii_lowercase();
        if name.is_empty() || name.contains(' ') {
            return Err(RequestError::MalformedHeader);
        }
        let value = String::from_utf8_lossy(&line[at + 1..]).trim().to_string();
        headers.push((name, value));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(RequestError::UnsupportedTransferEncoding);
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| RequestError::BadContentLength)?,
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(RequestError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(RequestError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(RequestError::Io),
        }
    }

    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// The standard reason phrase for the statuses the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A CSV response (content-negotiated downloads of sealed artifacts).
    pub fn csv(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: "text/csv",
            body,
        }
    }

    /// A typed JSON error body: `{"error":label,"detail":...}`.
    pub fn error(status: u16, label: &str, detail: &str) -> Self {
        Self::json(
            status,
            json::Object::new()
                .field("error", &json::string(label))
                .field("detail", &json::string(detail))
                .finish(),
        )
    }

    /// The response a [`RequestError`] answers with.
    pub fn from_request_error(err: &RequestError) -> Self {
        Self::error(err.status(), err.label(), "request rejected by parser")
    }

    /// Writes the response with framing headers and `Connection: close`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, RequestError> {
        parse_request(&mut &bytes[..])
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse(b"GET /api/v1/jobs?preset=small%20test&seeds=1,2+3 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/api/v1/jobs");
        assert_eq!(req.query("preset"), Some("small test"));
        assert_eq!(req.query("seeds"), Some("1,2 3"));
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn error_body_bytes_are_pinned() {
        let r = Response::error(404, "unknown_job", "no such \"id\"");
        assert_eq!(r.status, 404);
        assert_eq!(
            r.body,
            br#"{"error":"unknown_job","detail":"no such \"id\""}"#
        );
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(parse(b"").unwrap(), None);
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        assert_eq!(
            parse(b"GET\r\n\r\n").unwrap_err(),
            RequestError::MalformedRequestLine
        );
        assert_eq!(
            parse(b"PUT / HTTP/1.1\r\n\r\n").unwrap_err(),
            RequestError::UnsupportedMethod
        );
        assert_eq!(
            parse(b"GET / HTTP/2\r\n\r\n").unwrap_err(),
            RequestError::UnsupportedVersion
        );
        assert_eq!(
            parse(b"GET nopath HTTP/1.1\r\n\r\n").unwrap_err(),
            RequestError::BadTarget
        );
        assert_eq!(
            parse(b"GET /%zz HTTP/1.1\r\n\r\n").unwrap_err(),
            RequestError::BadTarget
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nbroken\r\n\r\n").unwrap_err(),
            RequestError::MalformedHeader
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n").unwrap_err(),
            RequestError::BadContentLength
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            RequestError::UnsupportedTransferEncoding
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err(),
            RequestError::Truncated
        );
    }

    #[test]
    fn oversized_inputs_rejected_with_431_and_413() {
        let long_line = [b"GET /".as_slice(), &vec![b'a'; MAX_REQUEST_LINE]].concat();
        assert_eq!(
            parse(&long_line).unwrap_err(),
            RequestError::RequestLineTooLong
        );
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse(&many).unwrap_err(), RequestError::TooManyHeaders);
        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(big_body.as_bytes()).unwrap_err();
        assert_eq!(err, RequestError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn every_error_status_is_4xx() {
        let all = [
            RequestError::Truncated,
            RequestError::RequestLineTooLong,
            RequestError::MalformedRequestLine,
            RequestError::UnsupportedMethod,
            RequestError::UnsupportedVersion,
            RequestError::HeaderTooLong,
            RequestError::TooManyHeaders,
            RequestError::MalformedHeader,
            RequestError::BadContentLength,
            RequestError::BodyTooLarge,
            RequestError::UnsupportedTransferEncoding,
            RequestError::BadTarget,
            RequestError::Io,
        ];
        for e in all {
            assert!((400..500).contains(&e.status()), "{e:?} -> {}", e.status());
        }
    }

    #[test]
    fn response_frames_with_content_length() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
