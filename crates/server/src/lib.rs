//! # revkb-server
//!
//! A persistent multi-client revision service over the workspace's
//! compiled-revision engines — the operational shape the paper's
//! complexity results suggest: compiling `T * P` is the expensive,
//! *offline* step, so a long-running process that compiles once and
//! answers many queries (for many clients, against many named bases)
//! amortises exactly the cost the compact-representation theorems
//! bound.
//!
//! The pieces:
//!
//! - [`Json`]: the wire's strict JSON parser and compact renderer,
//!   re-exported from `revkb_obs::json`, the workspace's one JSON codec
//!   (the workspace builds offline; no serde);
//! - [`protocol`]: the NDJSON request/response envelope, command set
//!   and stable error codes;
//! - [`registry`]: named [`registry::KbState`]s plus the
//!   [`registry::ArtifactCache`] — an LRU over canonical
//!   `(operator, backend, T, P…)` keys so recompiling a base another
//!   client already compiled is free;
//! - [`server`]: admission control, per-request deadlines, compile
//!   degradation, and the stdio serving loop; its child module
//!   `server::metrics` is the metrics plane — the always-on per-server
//!   counters and their `stats`, `/metrics`, `/series.json` and
//!   readiness renderings;
//! - [`wal`]: the durable store — an append-only, checksummed
//!   write-ahead log of committed mutations plus periodic artifact
//!   snapshots, replayed on boot so a restarted server serves warm
//!   answers immediately;
//! - [`replica`]: the building blocks for WAL replication — the
//!   record splitter that reassembles shipped frames, reconnect
//!   backoff, and the replica's durable-offset state machine;
//! - [`http`]: the repo's one hand-rolled, zero-dependency HTTP/1.1
//!   layer — request parsing (bodies, keep-alive, chunked encoding),
//!   response serialisation and the Prometheus renderer — behind the
//!   event loop's gateway, which serves `POST /v1` and every metrics
//!   and debug GET (Prometheus `/metrics`, JSON `/stats.json` /
//!   `/series.json`, probes `/healthz` / `/readyz`, `/debug/*`) on the
//!   data socket;
//! - [`event_loop`]: the epoll-based non-blocking front end — one
//!   readiness thread multiplexing thousands of pipelined line- or
//!   HTTP-protocol connections onto the existing worker/admission
//!   machinery; the only TCP data-plane front end (Linux only);
//! - [`launch`]: the one command-line launcher, shared by
//!   `revkb-server` and `revkb-cli serve`.
//!
//! See `crates/server/PROTOCOL.md` for the wire format.

// The only unsafe in the workspace is the thin epoll/rlimit syscall
// shim in `event_loop::sys`; everything else stays forbidden by the
// lint below plus scoped `allow`s.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod event_loop;
pub mod http;
pub mod launch;
pub mod protocol;
pub mod registry;
pub mod replica;
pub mod server;
pub mod wal;

pub use protocol::{Command, OpName, Request, Response, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
pub use registry::{cache_key, parse_canonical, Artifact, ArtifactCache, KbKind, KbState};
pub use replica::ReplStatus;
pub use revkb_obs::Json;
pub use server::{Server, ServerConfig};
pub use wal::{RecoveryReport, SyncMode, WalOp};
