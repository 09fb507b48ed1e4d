//! The repo's one hand-rolled, zero-dependency HTTP/1.1
//! implementation, plus the Prometheus text-exposition renderer.
//!
//! Its one consumer is the **event-loop HTTP/JSON gateway** on the
//! data socket: `POST /v1` runs protocol commands (keep-alive, request
//! bodies via `Content-Length` or chunked transfer coding), and every
//! other `GET` is a metrics or debug route answered by
//! `Server::metrics_route` on the loop's control worker, so a scrape
//! never waits behind a revision.
//!
//! [`HttpParser`] is the incremental parser: feed it bytes as
//! they arrive, take complete [`HttpRequest`]s out. Limits are fixed:
//! 8 KiB of head, 1 MiB of body; beyond them the parser fails the
//! connection with a ready-to-send error [`Response`].
//!
//! The exposition format is Prometheus text v0.0.4: `# HELP` /
//! `# TYPE` headers once per metric family, label values escaped
//! (`\\`, `\"`, `\n`), histograms as cumulative `le` buckets derived
//! from the workspace's log₂ buckets (bucket *b* ≥ 1 covers
//! `[2^(b-1), 2^b)`, so its inclusive upper bound is `2^b − 1`).

/// Content type of `/metrics` responses.
pub const PROM_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Content type of the JSON endpoints.
pub const JSON_CONTENT_TYPE: &str = "application/json";

/// Prefix every exported metric name carries.
pub const METRIC_PREFIX: &str = "revkb_";

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Largest accepted request body (either framing).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One HTTP response, ready to serialise. [`Response::to_bytes`]
/// closes the connection (`Connection: close`, for a request the
/// parser refused); [`Response::to_bytes_with`] follows the request's
/// keep-alive choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, 405, 503, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` response.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    /// A `404 Not Found` for an unknown path.
    pub fn not_found(path: &str) -> Self {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: format!(
                "no such endpoint {path}\ntry /metrics /stats.json /series.json /healthz /readyz\n"
            ),
        }
    }

    /// A plain-text response with an arbitrary status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A `400 Bad Request` for an unparseable request line.
    pub fn bad_request() -> Self {
        Response::text(400, "malformed HTTP request\n")
    }

    /// A `431` for a request head beyond [`MAX_HEAD_BYTES`].
    pub fn head_too_large() -> Self {
        Response::text(431, "request head too large\n")
    }

    /// A `413` for a request body beyond [`MAX_BODY_BYTES`].
    pub fn body_too_large() -> Self {
        Response::text(413, "request body too large\n")
    }

    /// The full wire form with `Connection: close`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with(false)
    }

    /// The full wire form: status line, headers, blank line, body.
    pub fn to_bytes_with(&self, keep_alive: bool) -> Vec<u8> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            connection
        )
        .into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// One parsed HTTP request: the routing fields plus the raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Request path with any query string or fragment stripped.
    pub path: String,
    /// Raw query string (between `?` and any `#`), without the `?`;
    /// empty when the target carried none.
    pub query: String,
    /// Header `(name, value)` pairs in arrival order, trimmed.
    pub headers: Vec<(String, String)>,
    /// Decoded request body (chunked bodies arrive de-chunked).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open
    /// (HTTP/1.1 default, overridable with `Connection:` either way).
    pub keep_alive: bool,
}

impl HttpRequest {
    /// Case-insensitive header lookup (first match wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Incremental HTTP/1.1 request parser: [`HttpParser::feed`] bytes as
/// they arrive, [`HttpParser::take`] complete requests out. Multiple
/// pipelined requests in one buffer come out one `take` at a time.
///
/// A `take` error is fatal for the connection: send the carried
/// [`Response`] and close.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
}

/// Find the end of the request head: the index just past the first
/// blank line (`\r\n\r\n` or the tolerant `\n\n`).
fn head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

impl HttpParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes read from the connection.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any unconsumed bytes are buffered.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Try to take one complete request off the front of the buffer.
    /// `Ok(None)` means feed more bytes; `Err` carries the error
    /// response to send before closing the connection.
    pub fn take(&mut self) -> Result<Option<HttpRequest>, Response> {
        let Some(head_len) = head_end(&self.buf) else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(Response::head_too_large());
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(Response::head_too_large());
        }
        let head = String::from_utf8_lossy(&self.buf[..head_len]).into_owned();
        let mut lines = head.lines();
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(Response::bad_request());
        };
        if !version.starts_with("HTTP/") || parts.next().is_some() {
            return Err(Response::bad_request());
        }
        let path = target
            .split(['?', '#'])
            .next()
            .unwrap_or_default()
            .to_string();
        let query = target
            .split_once('?')
            .map(|(_, rest)| rest.split('#').next().unwrap_or_default())
            .unwrap_or_default()
            .to_string();
        if !path.starts_with('/') {
            return Err(Response::bad_request());
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() || line == "\r" {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(Response::bad_request());
            };
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        };
        let keep_alive = match header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => version != "HTTP/1.0",
        };
        // Body framing: exactly one of Content-Length and chunked
        // (both at once is a request-smuggling vector — refuse it).
        let (body, end) = match (header("transfer-encoding"), header("content-length")) {
            (Some(_), Some(_)) => return Err(Response::bad_request()),
            (Some(te), None) => {
                if !te.eq_ignore_ascii_case("chunked") {
                    return Err(Response::bad_request());
                }
                match decode_chunked(&self.buf[head_len..])? {
                    None => return Ok(None),
                    Some((body, used)) => (body, head_len + used),
                }
            }
            (None, Some(cl)) => {
                let len: usize = cl.parse().map_err(|_| Response::bad_request())?;
                if len > MAX_BODY_BYTES {
                    return Err(Response::body_too_large());
                }
                if self.buf.len() < head_len + len {
                    return Ok(None);
                }
                (self.buf[head_len..head_len + len].to_vec(), head_len + len)
            }
            (None, None) => (Vec::new(), head_len),
        };
        let method = method.to_string();
        self.buf.drain(..end);
        Ok(Some(HttpRequest {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
        }))
    }
}

/// Decode a chunked body from `buf`. `Ok(None)` means incomplete;
/// `Ok(Some((body, bytes_consumed)))` on success.
fn decode_chunked(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, Response> {
    let mut body = Vec::new();
    let mut at = 0usize;
    loop {
        // The chunk-size line, strictly CRLF-terminated.
        let Some(nl) = buf[at..].windows(2).position(|w| w == b"\r\n") else {
            if buf.len() - at > 18 {
                // Longer than any valid hex size + extension start.
                return Err(Response::bad_request());
            }
            return Ok(None);
        };
        let line = std::str::from_utf8(&buf[at..at + nl]).map_err(|_| Response::bad_request())?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| Response::bad_request())?;
        at += nl + 2;
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            loop {
                let Some(nl) = buf[at..].windows(2).position(|w| w == b"\r\n") else {
                    return Ok(None);
                };
                let end = at + nl + 2;
                if nl == 0 {
                    return Ok(Some((body, end)));
                }
                at = end;
            }
        }
        if body.len() + size > MAX_BODY_BYTES {
            return Err(Response::body_too_large());
        }
        if buf.len() < at + size + 2 {
            return Ok(None);
        }
        if &buf[at + size..at + size + 2] != b"\r\n" {
            return Err(Response::bad_request());
        }
        body.extend_from_slice(&buf[at..at + size]);
        at += size + 2;
    }
}

// ------------------------------------------------------- exposition

/// Map an internal dotted instrument name onto a Prometheus metric
/// name: `revkb_` prefix, every character outside `[a-zA-Z0-9_:]`
/// replaced with `_`.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + raw.len());
    out.push_str(METRIC_PREFIX);
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the text format: backslash, double quote,
/// and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The inclusive upper bound (`le` label) of log₂ bucket `b`: bucket 0
/// holds only the value 0; bucket `b` ≥ 1 holds `[2^(b-1), 2^b)`,
/// whose largest integer is `2^b − 1`.
pub fn le_bound(bucket: usize) -> String {
    if bucket == 0 {
        "0".to_string()
    } else {
        ((1u128 << bucket) - 1).to_string()
    }
}

/// Incremental builder for a Prometheus text-exposition page.
///
/// The caller drives family order: one [`PromText::header`] per
/// family, then any number of [`PromText::sample`] /
/// [`PromText::histogram`] lines for it.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the `# HELP` / `# TYPE` pair for a family. `raw` is the
    /// internal name ([`metric_name`] maps it); `kind` is `counter`,
    /// `gauge`, or `histogram`.
    pub fn header(&mut self, raw: &str, kind: &str, help: &str) {
        let name = metric_name(raw);
        self.out.push_str("# HELP ");
        self.out.push_str(&name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(&name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// One sample line: `name{labels} value`.
    pub fn sample(&mut self, raw: &str, labels: &[(&str, &str)], value: u64) {
        self.sample_line(&metric_name(raw), labels, &value.to_string());
    }

    fn sample_line(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(k);
                self.out.push_str("=\"");
                self.out.push_str(&escape_label_value(v));
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(value);
        self.out.push('\n');
    }

    /// Render one histogram series (sparse log₂ `buckets`, ascending
    /// bucket index) as cumulative `le` buckets plus `+Inf`, `_sum`,
    /// and `_count`. The caller writes the family header once;
    /// `labels` distinguish series within the family.
    pub fn histogram(
        &mut self,
        raw: &str,
        labels: &[(&str, &str)],
        count: u64,
        sum: u64,
        buckets: &[(usize, u64)],
    ) {
        let name = metric_name(raw);
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (b, c) in buckets {
            cumulative += c;
            let le = le_bound(*b);
            let mut with_le: Vec<(&str, &str)> = Vec::with_capacity(labels.len() + 1);
            with_le.extend_from_slice(labels);
            with_le.push(("le", &le));
            self.sample_line(&bucket_name, &with_le, &cumulative.to_string());
        }
        let mut with_le: Vec<(&str, &str)> = Vec::with_capacity(labels.len() + 1);
        with_le.extend_from_slice(labels);
        with_le.push(("le", "+Inf"));
        self.sample_line(&bucket_name, &with_le, &count.to_string());
        self.sample_line(&format!("{name}_sum"), labels, &sum.to_string());
        self.sample_line(&format!("{name}_count"), labels, &count.to_string());
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_prefixed_and_sanitised() {
        assert_eq!(metric_name("server.cache.hits"), "revkb_server_cache_hits");
        assert_eq!(metric_name("wal.append.bytes"), "revkb_wal_append_bytes");
        assert_eq!(metric_name("weird-name +x"), "revkb_weird_name__x");
        assert_eq!(metric_name("ok_name:sub"), "revkb_ok_name:sub");
    }

    #[test]
    fn label_values_escape_backslash_quote_newline() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label_value(r"a\b"), r"a\\b");
        assert_eq!(escape_label_value("a\nb"), r"a\nb");
    }

    #[test]
    fn le_bounds_follow_log2_buckets() {
        assert_eq!(le_bound(0), "0");
        assert_eq!(le_bound(1), "1");
        assert_eq!(le_bound(2), "3");
        assert_eq!(le_bound(3), "7");
        assert_eq!(le_bound(10), "1023");
        assert_eq!(le_bound(64), u64::MAX.to_string());
    }

    /// The golden pin for the text format: fixed synthetic input,
    /// exact expected page.
    #[test]
    fn golden_exposition_page() {
        let mut page = PromText::new();
        page.header("server.requests", "counter", "Requests fully processed.");
        page.sample("server.requests", &[], 42);
        page.header("server.kbs", "gauge", "Knowledge bases registered.");
        page.sample("server.kbs", &[], 3);
        page.header("kb.queries", "counter", "Queries answered per KB.");
        page.sample("kb.queries", &[("kb", "plain")], 7);
        page.sample("kb.queries", &[("kb", "we\"ird\\kb\n")], 1);
        page.header("server.request.micros", "histogram", "Request latency.");
        page.histogram(
            "server.request.micros",
            &[("cmd", "query")],
            6,
            900,
            &[(0, 1), (3, 2), (8, 3)],
        );
        let expected = "\
# HELP revkb_server_requests Requests fully processed.
# TYPE revkb_server_requests counter
revkb_server_requests 42
# HELP revkb_server_kbs Knowledge bases registered.
# TYPE revkb_server_kbs gauge
revkb_server_kbs 3
# HELP revkb_kb_queries Queries answered per KB.
# TYPE revkb_kb_queries counter
revkb_kb_queries{kb=\"plain\"} 7
revkb_kb_queries{kb=\"we\\\"ird\\\\kb\\n\"} 1
# HELP revkb_server_request_micros Request latency.
# TYPE revkb_server_request_micros histogram
revkb_server_request_micros_bucket{cmd=\"query\",le=\"0\"} 1
revkb_server_request_micros_bucket{cmd=\"query\",le=\"7\"} 3
revkb_server_request_micros_bucket{cmd=\"query\",le=\"255\"} 6
revkb_server_request_micros_bucket{cmd=\"query\",le=\"+Inf\"} 6
revkb_server_request_micros_sum{cmd=\"query\"} 900
revkb_server_request_micros_count{cmd=\"query\"} 6
";
        assert_eq!(page.finish(), expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded_by_count() {
        let mut page = PromText::new();
        page.header("h", "histogram", "x");
        page.histogram("h", &[], 10, 123, &[(1, 4), (2, 3), (5, 3)]);
        let text = page.finish();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("revkb_h_bucket")) {
            bucket_lines += 1;
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "bucket counts must be cumulative: {text}");
            assert!(value <= 10, "no bucket may exceed the count: {text}");
            last = value;
        }
        assert_eq!(bucket_lines, 4); // 3 finite + +Inf
        assert_eq!(last, 10, "+Inf bucket equals the count");
    }

    fn take_one(raw: &str) -> Result<Option<HttpRequest>, Response> {
        let mut parser = HttpParser::new();
        parser.feed(raw.as_bytes());
        parser.take()
    }

    #[test]
    fn parses_a_simple_get() {
        let req = take_one("GET /metrics?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "pretty=1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        let close11 = take_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!close11.unwrap().unwrap().keep_alive);
        let plain10 = take_one("GET / HTTP/1.0\r\n\r\n");
        assert!(!plain10.unwrap().unwrap().keep_alive);
        let keep10 = take_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(keep10.unwrap().unwrap().keep_alive);
    }

    #[test]
    fn parses_post_bodies_and_pipelines() {
        let mut parser = HttpParser::new();
        parser.feed(
            b"POST /v1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n",
        );
        let first = parser.take().unwrap().unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"abcd");
        let second = parser.take().unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(parser.take().unwrap().is_none());
        assert!(!parser.has_buffered());
    }

    #[test]
    fn incomplete_requests_wait_for_more_bytes() {
        let mut parser = HttpParser::new();
        parser.feed(b"POST /v1 HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc");
        assert!(parser.take().unwrap().is_none());
        parser.feed(b"defgh");
        assert_eq!(parser.take().unwrap().unwrap().body, b"abcdefgh");
    }

    #[test]
    fn decodes_chunked_bodies() {
        let req = take_one(
            "POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n3\r\nefg\r\n0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"abcdefg");
        // Trailers after the last chunk are consumed.
        let req = take_one(
            "POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\nX-Sum: 1\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn malformed_requests_fail_with_the_right_status() {
        let cases: [(&str, u16); 7] = [
            ("garbage\r\n\r\n", 400),
            ("GET metrics HTTP/1.1\r\n\r\n", 400),
            ("GET /x NOTHTTP\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", 400),
            ("POST /v1 HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (
                "POST /v1 HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n",
                400,
            ),
            ("POST /v1 HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413),
        ];
        for (raw, status) in cases {
            assert_eq!(take_one(raw).unwrap_err().status, status, "{raw:?}");
        }
        // Bad chunking: non-hex size, and a chunk that overruns its
        // declared length.
        for raw in [
            "POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nabcd\r\n0\r\n\r\n",
            "POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabcd\r\n0\r\n\r\n",
        ] {
            assert_eq!(take_one(raw).unwrap_err().status, 400, "{raw:?}");
        }
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let mut parser = HttpParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        parser.feed(format!("X-Filler: {}\r\n", "y".repeat(MAX_HEAD_BYTES)).as_bytes());
        assert_eq!(parser.take().unwrap_err().status, 431);
    }

    #[test]
    fn responses_serialise_with_content_length_and_close() {
        let bytes = Response::ok(PROM_CONTENT_TYPE, "abc\n".to_string()).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 4\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("version=0.0.4"), "{text}");
        assert!(text.ends_with("\r\n\r\nabc\n"), "{text}");
        let nf = Response::not_found("/nope").to_bytes();
        assert!(String::from_utf8(nf).unwrap().starts_with("HTTP/1.1 404"));
        let keep = Response::ok(JSON_CONTENT_TYPE, "{}\n".to_string()).to_bytes_with(true);
        assert!(String::from_utf8(keep)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }
}
