//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response per line, matched by the
//! client-chosen `id` field (echoed verbatim — number or string).
//! Responses are
//! `{"v":2,"id":…,"req":N,"trace":"…","ok":true,"result":{…}}` on
//! success and
//! `{"v":2,"id":…,"req":N,"trace":"…","ok":false,"code":"…","error":"…"}`
//! on failure, where `v` is the protocol version
//! ([`PROTOCOL_VERSION`]), `req` is the server-assigned monotonic
//! request id —
//! the same number every `server.*` telemetry span and `slow_log`
//! entry for that request carries, so wire lines and traces
//! correlate — and `trace` is the 16-hex-digit trace id (taken from
//! the request's optional `trace` field or the HTTP gateway's
//! `traceparent` header, generated server-side otherwise). The
//! `code` strings for engine-level failures are exactly
//! [`revkb_revision::Error::code`]; the protocol adds its own codes
//! for transport-level conditions ([`codes`]).
//!
//! See `crates/server/PROTOCOL.md` for the full command reference with
//! examples.

use revkb_obs as obs;
use revkb_obs::Json;
use revkb_revision::{Backend, ModelBasedOp};

/// The protocol version this server speaks. Every response envelope
/// carries it as `"v"`. Requests may pin a version with an optional
/// `"v"` field; versions outside
/// [`MIN_PROTOCOL_VERSION`]`..=`[`PROTOCOL_VERSION`] are rejected with
/// `bad_request`.
pub const PROTOCOL_VERSION: u64 = 2;

/// The oldest protocol version still accepted in a request's `"v"`
/// field. Version 1 is the pre-`v` envelope: same commands, same error
/// codes, responses without the `"v"` key.
pub const MIN_PROTOCOL_VERSION: u64 = 1;

/// Protocol-level error codes (engine-level codes come verbatim from
/// [`revkb_revision::Error::code`]).
pub mod codes {
    /// The request line is not valid JSON or not a valid request.
    pub const BAD_REQUEST: &str = "bad_request";
    /// A TCP request line is longer than `http::MAX_BODY_BYTES`; the
    /// server answers this and closes the connection.
    pub const LINE_TOO_LONG: &str = "line_too_long";
    /// The named knowledge base does not exist.
    pub const UNKNOWN_KB: &str = "unknown_kb";
    /// A revise used a different operator than the KB's history; the
    /// iterated constructions are single-operator chains.
    pub const OPERATOR_MISMATCH: &str = "operator_mismatch";
    /// The request was rejected by admission control: too many
    /// requests already in flight. Back off and retry.
    pub const OVERLOADED: &str = "overloaded";
    /// The request's deadline expired before it could be answered.
    pub const TIMEOUT: &str = "timeout";
    /// The server is shutting down.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The command is valid but not supported for this KB state
    /// (e.g. a second revision of a GFUV base).
    pub const UNSUPPORTED: &str = "unsupported";
    /// The server is a replica (`--replica-of`): it serves reads and
    /// control plane only; writes belong on the primary.
    pub const READ_ONLY: &str = "read_only";
    /// Replication divergence: the record checksums at the resume
    /// offset disagree, so one side's log is not a prefix of the
    /// other's. A diverged replica refuses to serve rather than
    /// answer from a history that is not the primary's.
    pub const DIVERGED: &str = "diverged";
}

/// Which revision operator a `revise` request names: one of the six
/// model-based operators or one of the two formula-based ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpName {
    /// A model-based operator (Winslett, Borgida, Forbus, Satoh,
    /// Dalal, Weber).
    Model(ModelBasedOp),
    /// GFUV possible-worlds revision.
    Gfuv,
    /// When In Doubt Throw It Out.
    Widtio,
}

impl OpName {
    /// Wire tag of the operator.
    pub fn tag(self) -> &'static str {
        match self {
            OpName::Model(op) => match op {
                ModelBasedOp::Winslett => "winslett",
                ModelBasedOp::Borgida => "borgida",
                ModelBasedOp::Forbus => "forbus",
                ModelBasedOp::Satoh => "satoh",
                ModelBasedOp::Dalal => "dalal",
                ModelBasedOp::Weber => "weber",
            },
            OpName::Gfuv => "gfuv",
            OpName::Widtio => "widtio",
        }
    }

    /// Parse a wire tag (the same names the CLI accepts).
    pub fn from_tag(tag: &str) -> Option<OpName> {
        match tag.to_ascii_lowercase().as_str() {
            "gfuv" | "nebel" => Some(OpName::Gfuv),
            "widtio" => Some(OpName::Widtio),
            other => ModelBasedOp::from_name(other).map(OpName::Model),
        }
    }

    /// All eight operators, for sweeps and tests.
    pub const ALL: [OpName; 8] = [
        OpName::Model(ModelBasedOp::Winslett),
        OpName::Model(ModelBasedOp::Borgida),
        OpName::Model(ModelBasedOp::Forbus),
        OpName::Model(ModelBasedOp::Satoh),
        OpName::Model(ModelBasedOp::Dalal),
        OpName::Model(ModelBasedOp::Weber),
        OpName::Gfuv,
        OpName::Widtio,
    ];
}

/// A parsed request: the command plus the request-level envelope
/// fields (`id`, `deadline_ms`, `trace`).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// Per-request deadline in milliseconds (admission + execution
    /// must start within it). Absent means the server default.
    pub deadline_ms: Option<u64>,
    /// Requested protocol version (the optional `"v"` field). Absent
    /// means "whatever the server speaks".
    pub version: Option<u64>,
    /// Trace id (the optional `"trace"` field, 1–32 hex digits, or a
    /// `traceparent` header on the HTTP gateway). Absent means the
    /// server generates one; either way the response echoes it.
    pub trace: Option<u64>,
    /// The command.
    pub cmd: Command,
}

/// Every command the server understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Create (or replace) a named KB from a `;`-separated theory.
    Load {
        /// KB name.
        kb: String,
        /// Theory text, `;`-separated formulas.
        t: String,
    },
    /// Revise a named KB: `T * P` under the given operator.
    Revise {
        /// KB name.
        kb: String,
        /// Operator tag.
        op: OpName,
        /// Revision formula text.
        p: String,
        /// Compilation backend (model-based ops only).
        backend: Backend,
    },
    /// Single entailment query.
    Query {
        /// KB name.
        kb: String,
        /// Query formula text.
        q: String,
    },
    /// Batch entailment query (answers come back index-aligned).
    QueryBatch {
        /// KB name.
        kb: String,
        /// Query formula texts.
        qs: Vec<String>,
    },
    /// List the registry.
    List,
    /// Server counters and cache statistics.
    Stats,
    /// Remove a named KB.
    Drop {
        /// KB name.
        kb: String,
    },
    /// Liveness probe.
    Ping,
    /// Protocol negotiation: report the server's name, version, and
    /// the protocol version range it accepts.
    Hello,
    /// Stop accepting work and shut down cleanly.
    Shutdown,
    /// Switch this TCP connection into a replication stream: after a
    /// JSON handshake response, the primary ships raw committed WAL
    /// records (v1 framing) from `offset` and tails the log until the
    /// replica disconnects. Only meaningful on a TCP connection.
    Replicate {
        /// Byte offset into the primary's `wal.log` (including the
        /// 8-byte magic) to resume from. Anything below the magic
        /// length means "from the beginning".
        offset: u64,
        /// Payload length of the replica's last durable record
        /// (0 when resuming from the beginning).
        last_len: u32,
        /// CRC-32 of the replica's last durable record's payload.
        last_crc: u32,
        /// Ship the primary's current artifact snapshot in the
        /// handshake response (hex-encoded), to pre-warm the
        /// replica's cache on bootstrap.
        snapshot: bool,
    },
}

impl Command {
    /// The wire tag of the command — the key under which the server
    /// buckets per-request-type latency in `stats`, and the `cmd`
    /// field of `slow_log` entries.
    pub fn tag(&self) -> &'static str {
        match self {
            Command::Load { .. } => "load",
            Command::Revise { .. } => "revise",
            Command::Query { .. } => "query",
            Command::QueryBatch { .. } => "query_batch",
            Command::List => "list",
            Command::Stats => "stats",
            Command::Drop { .. } => "drop",
            Command::Ping => "ping",
            Command::Hello => "hello",
            Command::Shutdown => "shutdown",
            Command::Replicate { .. } => "replicate",
        }
    }

    /// May the command run concurrently with other requests of its
    /// connection? Reads of one KB (`query`, `query_batch`) and the
    /// stateless `ping` and `hello` may. Every other command changes
    /// or observes state that an earlier pipelined request may still
    /// be changing, so it runs alone, in program order.
    pub fn pipelines(&self) -> bool {
        matches!(
            self,
            Command::Query { .. } | Command::QueryBatch { .. } | Command::Ping | Command::Hello
        )
    }
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The echoable id, if the line parsed far enough to have one.
    pub id: Option<String>,
    /// The client's trace id, if the line parsed far enough to carry
    /// a well-formed one — salvaged like `id`, so even a rejected
    /// request joins the trace the client asked for.
    pub trace: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

/// Parse one request line. On error, returns the echoable `id` (when
/// the line was at least a JSON object) plus a message.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let value = Json::parse(line).map_err(|e| RequestError {
        id: None,
        trace: None,
        message: e.to_string(),
    })?;
    let id = value.get("id").cloned();
    let salvaged_trace = value
        .get("trace")
        .and_then(Json::as_str)
        .and_then(obs::parse_trace_id);
    let fail = |message: String| RequestError {
        id: id.as_ref().map(Json::render),
        trace: salvaged_trace,
        message,
    };
    if !matches!(value, Json::Obj(_)) {
        return Err(fail("request must be a JSON object".to_string()));
    }
    match &id {
        None | Some(Json::Int(_) | Json::Num(_) | Json::Str(_)) => {}
        Some(_) => return Err(fail("id must be a number or a string".to_string())),
    }
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| fail("deadline_ms must be a non-negative integer".to_string()))?,
        ),
    };
    let version = match value.get("v") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| fail("v must be a non-negative integer".to_string()))?,
        ),
    };
    let trace = match value.get("trace") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .and_then(obs::parse_trace_id)
                .ok_or_else(|| fail("trace must be a nonzero hex-digit string".to_string()))?,
        ),
    };
    let cmd_tag = field(&value, "cmd").map_err(&fail)?;
    let cmd = match cmd_tag {
        "load" => Command::Load {
            kb: field(&value, "kb").map_err(&fail)?.to_string(),
            t: field(&value, "t").map_err(&fail)?.to_string(),
        },
        "revise" => {
            let op_tag = field(&value, "op").map_err(&fail)?;
            let op = OpName::from_tag(op_tag)
                .ok_or_else(|| fail(format!("unknown operator {op_tag:?}")))?;
            let backend = match value.get("backend") {
                None => Backend::Direct,
                Some(v) => {
                    let tag = v
                        .as_str()
                        .ok_or_else(|| fail("backend must be a string".to_string()))?;
                    Backend::from_tag(tag)
                        .ok_or_else(|| fail(format!("unknown backend {tag:?}")))?
                }
            };
            Command::Revise {
                kb: field(&value, "kb").map_err(&fail)?.to_string(),
                op,
                p: field(&value, "p").map_err(&fail)?.to_string(),
                backend,
            }
        }
        "query" => Command::Query {
            kb: field(&value, "kb").map_err(&fail)?.to_string(),
            q: field(&value, "q").map_err(&fail)?.to_string(),
        },
        "query_batch" => {
            let qs = value
                .get("qs")
                .and_then(Json::as_array)
                .ok_or_else(|| fail("missing or non-array field \"qs\"".to_string()))?;
            let qs: Result<Vec<String>, RequestError> = qs
                .iter()
                .map(|q| {
                    q.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| fail("qs must contain only strings".to_string()))
                })
                .collect();
            Command::QueryBatch {
                kb: field(&value, "kb").map_err(&fail)?.to_string(),
                qs: qs?,
            }
        }
        "list" => Command::List,
        "stats" => Command::Stats,
        "drop" => Command::Drop {
            kb: field(&value, "kb").map_err(&fail)?.to_string(),
        },
        "ping" => Command::Ping,
        "hello" => Command::Hello,
        "shutdown" => Command::Shutdown,
        "replicate" => {
            let offset = match value.get("offset") {
                None => 0,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| fail("offset must be a non-negative integer".to_string()))?,
            };
            let small_u32 = |key: &str| -> Result<u32, RequestError> {
                match value.get(key) {
                    None => Ok(0),
                    Some(v) => v
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| fail(format!("{key} must be a u32"))),
                }
            };
            Command::Replicate {
                offset,
                last_len: small_u32("last_len")?,
                last_crc: small_u32("last_crc")?,
                snapshot: value
                    .get("snapshot")
                    .map(|v| {
                        v.as_bool()
                            .ok_or_else(|| fail("snapshot must be a boolean".to_string()))
                    })
                    .transpose()?
                    .unwrap_or(false),
            }
        }
        other => return Err(fail(format!("unknown command {other:?}"))),
    };
    Ok(Request {
        id,
        deadline_ms,
        version,
        trace,
        cmd,
    })
}

/// A response envelope, not yet rendered to its wire line. This is
/// the transport-agnostic return value of `Server::execute`: stdio,
/// the event loop's NDJSON lines, and the HTTP gateway all render the
/// same [`Response`] with [`Response::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed client correlation id (`None` renders as `null`).
    pub id: Option<Json>,
    /// Server-assigned monotonic request id.
    pub req: u64,
    /// Trace id — the client's, or one the server generated. Rendered
    /// as 16 lowercase hex digits next to `req`.
    pub trace: u64,
    /// `Ok(result)` on success, `Err((code, message))` on failure.
    pub result: Result<Json, (String, String)>,
}

impl Response {
    /// Build a success envelope.
    pub fn ok(id: Option<Json>, req: u64, trace: u64, result: Json) -> Response {
        Response {
            id,
            req,
            trace,
            result: Ok(result),
        }
    }

    /// Build an error envelope.
    pub fn err(
        id: Option<Json>,
        req: u64,
        trace: u64,
        code: &str,
        message: impl Into<String>,
    ) -> Response {
        Response {
            id,
            req,
            trace,
            result: Err((code.to_string(), message.into())),
        }
    }

    /// Whether this is a success envelope.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The error code, when this is an error envelope.
    pub fn code(&self) -> Option<&str> {
        match &self.result {
            Ok(_) => None,
            Err((code, _)) => Some(code.as_str()),
        }
    }

    /// Render the one-line wire form (no trailing newline).
    pub fn render(&self) -> String {
        match &self.result {
            Ok(result) => ok_response(&self.id, self.req, self.trace, result.clone()),
            Err((code, message)) => err_response(&self.id, self.req, self.trace, code, message),
        }
    }
}

/// Render a success response line (no trailing newline). `req` is the
/// server-assigned monotonic request id and `trace` the trace id, both
/// echoed for telemetry correlation.
pub fn ok_response(id: &Option<Json>, req: u64, trace: u64, result: Json) -> String {
    Json::obj([
        ("v", Json::Int(PROTOCOL_VERSION.into())),
        ("id", id.clone().unwrap_or(Json::Null)),
        ("req", Json::Int(req.into())),
        ("trace", Json::Str(obs::format_trace_id(trace))),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
    .render()
}

/// Render an error response line (no trailing newline). `req` is the
/// server-assigned monotonic request id and `trace` the trace id, both
/// echoed for telemetry correlation.
pub fn err_response(id: &Option<Json>, req: u64, trace: u64, code: &str, message: &str) -> String {
    Json::obj([
        ("v", Json::Int(PROTOCOL_VERSION.into())),
        ("id", id.clone().unwrap_or(Json::Null)),
        ("req", Json::Int(req.into())),
        ("trace", Json::Str(obs::format_trace_id(trace))),
        ("ok", Json::Bool(false)),
        ("code", Json::str(code)),
        ("error", Json::str(message)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases = [
            (r#"{"id":1,"cmd":"load","kb":"k","t":"a & b"}"#, "load"),
            (
                r#"{"id":"x","cmd":"revise","kb":"k","op":"dalal","p":"!a"}"#,
                "revise",
            ),
            (r#"{"cmd":"query","kb":"k","q":"b"}"#, "query"),
            (
                r#"{"cmd":"query_batch","kb":"k","qs":["a","b"]}"#,
                "query_batch",
            ),
            (r#"{"cmd":"list"}"#, "list"),
            (r#"{"cmd":"stats"}"#, "stats"),
            (r#"{"cmd":"drop","kb":"k"}"#, "drop"),
            (r#"{"cmd":"ping"}"#, "ping"),
            (r#"{"cmd":"hello"}"#, "hello"),
            (r#"{"cmd":"shutdown"}"#, "shutdown"),
            (
                r#"{"cmd":"replicate","offset":8,"last_len":0,"last_crc":0,"snapshot":true}"#,
                "replicate",
            ),
        ];
        for (line, tag) in cases {
            let req = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            let ok = matches!(
                (&req.cmd, tag),
                (Command::Load { .. }, "load")
                    | (Command::Revise { .. }, "revise")
                    | (Command::Query { .. }, "query")
                    | (Command::QueryBatch { .. }, "query_batch")
                    | (Command::List, "list")
                    | (Command::Stats, "stats")
                    | (Command::Drop { .. }, "drop")
                    | (Command::Ping, "ping")
                    | (Command::Hello, "hello")
                    | (Command::Shutdown, "shutdown")
                    | (Command::Replicate { .. }, "replicate")
            );
            assert!(ok, "{line} parsed as {:?}", req.cmd);
        }
    }

    #[test]
    fn replicate_fields_parse_and_default() {
        let req = parse_request(
            r#"{"cmd":"replicate","offset":123,"last_len":17,"last_crc":4042322160,"snapshot":true}"#,
        )
        .unwrap();
        assert_eq!(
            req.cmd,
            Command::Replicate {
                offset: 123,
                last_len: 17,
                last_crc: 0xF0F0_F0F0,
                snapshot: true,
            }
        );
        // Everything defaults to "bootstrap from the beginning".
        let req = parse_request(r#"{"cmd":"replicate"}"#).unwrap();
        assert_eq!(
            req.cmd,
            Command::Replicate {
                offset: 0,
                last_len: 0,
                last_crc: 0,
                snapshot: false,
            }
        );
        for bad in [
            r#"{"cmd":"replicate","offset":-1}"#,
            r#"{"cmd":"replicate","last_len":5000000000}"#,
            r#"{"cmd":"replicate","snapshot":"yes"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn envelope_fields() {
        let req = parse_request(r#"{"id":7,"deadline_ms":250,"cmd":"ping"}"#).unwrap();
        assert_eq!(req.id, Some(Json::Num(7.0)));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.version, None);
        assert_eq!(req.trace, None);
        let req = parse_request(r#"{"v":2,"cmd":"ping"}"#).unwrap();
        assert_eq!(req.version, Some(2));
        let req = parse_request(r#"{"cmd":"ping","trace":"00f0000000000abc"}"#).unwrap();
        assert_eq!(req.trace, Some(0x00f0_0000_0000_0abc));
        // The 32-digit W3C form keeps its low 64 bits.
        let req =
            parse_request(r#"{"cmd":"ping","trace":"0af7651916cd43dd8448eb211c80319c"}"#).unwrap();
        assert_eq!(req.trace, Some(0x8448_eb21_1c80_319c));
        // Unknown envelope fields are tolerated (forward compatibility).
        let req = parse_request(r#"{"cmd":"ping","someday":true}"#).unwrap();
        assert_eq!(req.cmd, Command::Ping);
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "garbage",
            "[]",
            r#""just a string""#,
            r#"{"cmd":"load","kb":"k"}"#,
            r#"{"cmd":"revise","kb":"k","op":"nope","p":"a"}"#,
            r#"{"cmd":"revise","kb":"k","op":"dalal","p":"a","backend":"qbf"}"#,
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"query_batch","kb":"k","qs":[1]}"#,
            r#"{"id":[1],"cmd":"ping"}"#,
            r#"{"cmd":"ping","deadline_ms":-3}"#,
            r#"{"cmd":"ping","deadline_ms":1.5}"#,
            r#"{"cmd":"ping","v":"two"}"#,
            r#"{"cmd":"ping","v":-1}"#,
            r#"{"cmd":"ping","trace":17}"#,
            r#"{"cmd":"ping","trace":""}"#,
            r#"{"cmd":"ping","trace":"0000000000000000"}"#,
            r#"{"cmd":"ping","trace":"not-hex"}"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn error_keeps_echoable_id() {
        let err = parse_request(r#"{"id":42,"cmd":"nope"}"#).unwrap_err();
        assert_eq!(err.id.as_deref(), Some("42"));
        let err = parse_request("not json").unwrap_err();
        assert_eq!(err.id, None);
    }

    #[test]
    fn response_shapes_are_pinned() {
        assert_eq!(
            ok_response(
                &Some(Json::Num(1.0)),
                3,
                0xabc,
                Json::obj([("pong", Json::Bool(true))])
            ),
            r#"{"v":2,"id":1,"req":3,"trace":"0000000000000abc","ok":true,"result":{"pong":true}}"#
        );
        assert_eq!(
            err_response(&None, 4, 0xdef, codes::BAD_REQUEST, "nope"),
            r#"{"v":2,"id":null,"req":4,"trace":"0000000000000def","ok":false,"code":"bad_request","error":"nope"}"#
        );
    }

    #[test]
    fn response_struct_renders_both_shapes() {
        let ok = Response::ok(
            Some(Json::Num(1.0)),
            3,
            7,
            Json::obj([("pong", Json::Bool(true))]),
        );
        assert!(ok.is_ok());
        assert_eq!(ok.code(), None);
        assert_eq!(
            ok.render(),
            ok_response(&ok.id, 3, 7, Json::obj([("pong", Json::Bool(true))]))
        );
        let err = Response::err(None, 4, 7, codes::TIMEOUT, "too slow");
        assert!(!err.is_ok());
        assert_eq!(err.code(), Some("timeout"));
        assert_eq!(
            err.render(),
            err_response(&None, 4, 7, codes::TIMEOUT, "too slow")
        );
    }

    #[test]
    fn command_tags_cover_every_command() {
        let cases: [(Command, &str); 11] = [
            (
                Command::Load {
                    kb: "k".into(),
                    t: "a".into(),
                },
                "load",
            ),
            (
                Command::Revise {
                    kb: "k".into(),
                    op: OpName::Model(ModelBasedOp::Dalal),
                    p: "a".into(),
                    backend: Backend::Direct,
                },
                "revise",
            ),
            (
                Command::Query {
                    kb: "k".into(),
                    q: "a".into(),
                },
                "query",
            ),
            (
                Command::QueryBatch {
                    kb: "k".into(),
                    qs: vec![],
                },
                "query_batch",
            ),
            (Command::List, "list"),
            (Command::Stats, "stats"),
            (Command::Drop { kb: "k".into() }, "drop"),
            (Command::Ping, "ping"),
            (Command::Hello, "hello"),
            (Command::Shutdown, "shutdown"),
            (
                Command::Replicate {
                    offset: 8,
                    last_len: 0,
                    last_crc: 0,
                    snapshot: false,
                },
                "replicate",
            ),
        ];
        for (cmd, tag) in cases {
            assert_eq!(cmd.tag(), tag);
        }
    }

    #[test]
    fn op_tags_round_trip() {
        for op in OpName::ALL {
            assert_eq!(OpName::from_tag(op.tag()), Some(op), "{}", op.tag());
        }
        assert_eq!(OpName::from_tag("nebel"), Some(OpName::Gfuv));
        assert_eq!(OpName::from_tag("zzz"), None);
    }
}
