//! The epoll-based non-blocking I/O front end — the server's only TCP
//! data plane.
//!
//! One readiness thread multiplexes every data-plane connection:
//! non-blocking accept, read, and write, with a per-connection state
//! machine that frames both wire protocols the server speaks —
//! NDJSON lines and HTTP/1.1 (the JSON gateway). The loop owns
//! *readiness and framing only*; execution stays on the existing
//! worker/admission machinery:
//!
//! - **admission runs on the loop thread** ([`Server` routing]) so a
//!   flood of connections is answered `overloaded` in arrival order;
//! - admitted data-plane commands go to a pool of
//!   `ServerConfig::threads` workers, so at most that many run at
//!   once (the same deadlines apply);
//! - control-plane commands (`ping`, `hello`, `stats`, `shutdown`)
//!   and every HTTP request outside `/v1` (the metrics and debug
//!   routes) run on one dedicated control worker, so a `stats` or a
//!   scrape that locks every KB can never stall readiness polling;
//! - workers push completed responses onto a shared completion list
//!   and wake the loop through a self-pipe; the loop copies each
//!   response into its connection's write buffer.
//!
//! **Pipelining**: a connection may have any number of line-protocol
//! queries (and `ping`/`hello`) in flight; responses are written in
//! *completion* order, with the envelope's `req` field preserving
//! correlation. Execution keeps program order around every other
//! command ([`crate::protocol::Command::pipelines`]): it is
//! dispatched only once every earlier request on the connection has
//! answered, and later lines stay buffered until it has answered too,
//! so a pipelined `revise` never runs before the `load` sent ahead of
//! it. HTTP connections run one request at a time (HTTP responses have no
//! `req`-style correlation on the wire, so order must be preserved);
//! pipelined HTTP requests queue in the parser.
//!
//! A `replicate` request hands the whole connection off to a
//! dedicated blocking thread (the WAL shipping stream is not
//! line-framed); any bytes the replica pipelined behind the handshake
//! are discarded.
//!
//! **Framing is linear and bounded**: each read scans only the bytes
//! no earlier read scanned, the consumed lines are dropped from the
//! buffer once per read, and a line longer than
//! [`crate::http::MAX_BODY_BYTES`] — the gateway's body cap — is answered
//! `line_too_long` and the connection closed. Lines held behind a
//! command that runs alone are bounded too: once that many bytes wait
//! behind it, the loop stops reading the connection until it answers,
//! and TCP backpressure throttles the client.
//!
//! On shutdown the loop stops accepting, flushes every buffered
//! response (bounded by a 5 s grace period) so the `shutdown` answer
//! itself is delivered, then joins the workers.
//!
//! Everything here is zero-dependency: the epoll and rlimit syscalls
//! are declared directly against libc (which every std binary links
//! anyway) in the private `sys` shim — the only `unsafe` in the
//! workspace.
//!
//! On non-Linux targets [`Server::serve_event_loop`] returns
//! [`io::ErrorKind::Unsupported`]; serve those with `--stdio`.

use crate::server::Server;
use std::io;
use std::net::TcpListener;

/// Raise this process's soft `RLIMIT_NOFILE` toward `target` (capped
/// at the hard limit) and return the resulting soft limit. Serving —
/// or benchmarking — tens of thousands of concurrent connections
/// needs more file descriptors than the usual soft default of 1024.
/// Returns 0 when the limit cannot even be read (or on non-Linux
/// targets, where this is a no-op).
pub fn raise_nofile(target: u64) -> u64 {
    #[cfg(target_os = "linux")]
    {
        linux::sys::raise_nofile(target)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = target;
        0
    }
}

impl Server {
    /// Serve the data plane on `listener` with the epoll event loop
    /// until a `shutdown` command arrives: NDJSON lines answered
    /// exactly as [`Server::handle_line`] answers them, plus the
    /// HTTP/JSON gateway (`POST /v1`, the metrics and debug GETs) on
    /// the same port.
    /// Linux only: elsewhere this returns
    /// [`io::ErrorKind::Unsupported`] at once.
    pub fn serve_event_loop(&self, listener: TcpListener) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            linux::serve(self, listener)
        }
        #[cfg(not(target_os = "linux"))]
        {
            drop(listener);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "--listen needs the Linux event loop; use --stdio on this platform",
            ))
        }
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use crate::http;
    use crate::protocol::{codes, parse_request, Request, RequestError};
    use crate::server::{Routing, Server};
    use revkb_obs as obs;
    use revkb_obs::Json;

    /// Thin wrappers over the epoll and rlimit syscalls — the only
    /// `unsafe` in the workspace. No libc crate: the symbols are
    /// declared directly and resolved by the libc every std binary
    /// already links.
    #[allow(unsafe_code)]
    pub(super) mod sys {
        use std::io;
        use std::os::fd::{FromRawFd, OwnedFd, RawFd};

        /// One epoll event: interest/readiness mask plus the caller's
        /// 64-bit token. The kernel ABI packs this struct on x86-64.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
        pub const EPOLLRDHUP: u32 = 0x2000;

        const EPOLL_CLOEXEC: i32 = 0o2000000;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;

        const RLIMIT_NOFILE: i32 = 7;

        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }

        /// A fresh close-on-exec epoll instance.
        pub fn epoll_create() -> io::Result<OwnedFd> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(unsafe { OwnedFd::from_raw_fd(fd) })
        }

        /// One `epoll_ctl` operation on `fd` with interest `events`
        /// and caller token `token`.
        pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events,
                data: token,
            };
            let rc = unsafe { epoll_ctl(epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Wait for readiness, retrying on `EINTR`. Returns how many
        /// entries of `events` were filled.
        pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                let rc = unsafe {
                    epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }

        /// See [`crate::event_loop::raise_nofile`].
        pub fn raise_nofile(target: u64) -> u64 {
            let mut lim = RLimit { cur: 0, max: 0 };
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
                return 0;
            }
            let want = target.max(lim.cur).min(lim.max);
            if want > lim.cur {
                let new = RLimit {
                    cur: want,
                    max: lim.max,
                };
                if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
                    return want;
                }
            }
            lim.cur
        }
    }

    /// The epoll instance plus registration helpers.
    struct Poller {
        epfd: std::os::fd::OwnedFd,
    }

    impl Poller {
        fn new() -> io::Result<Poller> {
            Ok(Poller {
                epfd: sys::epoll_create()?,
            })
        }

        fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
            sys::ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_ADD, fd, events, token)
        }

        fn modify(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
            sys::ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_MOD, fd, events, token)
        }

        fn delete(&self, fd: i32) -> io::Result<()> {
            sys::ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            sys::wait(self.epfd.as_raw_fd(), events, timeout_ms)
        }
    }

    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKE: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;
    const READ_CHUNK: usize = 16 * 1024;
    const EVENTS_CAP: usize = 1024;
    const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

    /// Which wire framing a worker's response needs.
    enum Reply {
        /// NDJSON: envelope plus a newline.
        Line,
        /// HTTP: envelope as a `200` JSON body.
        Http { keep_alive: bool },
    }

    /// One routed request dispatched to a worker.
    struct Job {
        token: u64,
        request: Request,
        started: Instant,
        /// When the loop thread handed the job to a worker channel;
        /// the wait until a worker picks it up is queue time.
        dispatched: Instant,
        req: u64,
        trace: u64,
        reply: Reply,
    }

    /// Work for the dedicated control worker.
    enum ControlJob {
        /// A control-plane command (`ping`, `hello`, `stats`,
        /// `shutdown`, or a rejected `replicate`).
        Request(Job),
        /// An HTTP request outside `/v1`: a metrics or debug route
        /// when `get`, else 405 on a known route and 404 on any other.
        Metrics {
            token: u64,
            get: bool,
            path: String,
            query: String,
            keep_alive: bool,
        },
    }

    /// A rendered response on its way back to the loop thread.
    struct Completion {
        token: u64,
        bytes: Vec<u8>,
    }

    /// Protocol state of one connection, decided by its first byte:
    /// NDJSON requests start with `{` (or leading whitespace), HTTP
    /// request lines start with a method.
    enum Proto {
        Unknown,
        Line,
        Http(http::HttpParser),
    }

    /// Per-connection state machine.
    struct Conn {
        stream: TcpStream,
        token: u64,
        proto: Proto,
        /// Unframed bytes (line protocol and pre-sniff).
        line_buf: Vec<u8>,
        /// `line_buf[..consumed]` is already dispatched; dropped from
        /// the buffer once per read.
        consumed: usize,
        /// `line_buf[consumed..scanned]` holds no newline, so the next
        /// search starts at `scanned`.
        scanned: usize,
        /// Bytes queued for the peer; `written` of them already sent.
        write_buf: Vec<u8>,
        written: usize,
        /// Responses still owed by workers.
        pending: usize,
        /// The one request in flight does not pipeline: later lines
        /// wait for it.
        alone_in_flight: bool,
        /// HTTP runs one request at a time to preserve response order.
        http_busy: bool,
        /// EOF seen or `Connection: close` honoured: stop reading,
        /// close once everything pending has flushed.
        closing: bool,
        /// Current epoll interest mask (to skip redundant `ctl`s).
        interest: u32,
    }

    impl Conn {
        fn new(stream: TcpStream, token: u64) -> Conn {
            Conn {
                stream,
                token,
                proto: Proto::Unknown,
                line_buf: Vec::new(),
                consumed: 0,
                scanned: 0,
                write_buf: Vec::new(),
                written: 0,
                pending: 0,
                alone_in_flight: false,
                http_busy: false,
                closing: false,
                interest: sys::EPOLLIN | sys::EPOLLRDHUP,
            }
        }
    }

    /// What to do with a connection after handling its readable bytes.
    enum After {
        Keep,
        Close,
        /// Hand the connection to a blocking replication stream.
        Handoff {
            request: Request,
            req: u64,
        },
    }

    /// Shared references the per-connection handlers need.
    struct Ctx<'a> {
        server: &'a Server,
        poller: &'a Poller,
        ctl_tx: &'a mpsc::Sender<ControlJob>,
        data_tx: &'a mpsc::Sender<Job>,
    }

    fn push_completion(
        completions: &Mutex<Vec<Completion>>,
        wake: &UnixStream,
        token: u64,
        bytes: Vec<u8>,
    ) {
        completions
            .lock()
            .expect("completions poisoned")
            .push(Completion { token, bytes });
        // A full pipe is fine: the loop is already due to wake.
        let _ = (&*wake).write(&[1]);
    }

    fn render_reply(reply: &Reply, response: &crate::protocol::Response) -> Vec<u8> {
        match reply {
            Reply::Line => {
                let mut bytes = response.render().into_bytes();
                bytes.push(b'\n');
                bytes
            }
            Reply::Http { keep_alive } => envelope_http(response).to_bytes_with(*keep_alive),
        }
    }

    /// An executed envelope as an HTTP response: always `200`; the
    /// envelope's own `ok`/`code` fields carry the command outcome.
    fn envelope_http(response: &crate::protocol::Response) -> http::Response {
        http::Response::ok(http::JSON_CONTENT_TYPE, format!("{}\n", response.render()))
    }

    /// Execute one job, routed `routing` (the worker's kind), on the
    /// worker that took it and hand the rendered response back to the
    /// loop.
    fn run_job(
        server: &Server,
        job: Job,
        routing: Routing,
        completions: &Mutex<Vec<Completion>>,
        wake: &UnixStream,
    ) {
        let response = server.execute_routed(
            &job.request,
            routing,
            job.started,
            Some(job.dispatched),
            job.req,
            job.trace,
        );
        push_completion(
            completions,
            wake,
            job.token,
            render_reply(&job.reply, &response),
        );
    }

    fn data_worker(
        server: Server,
        rx: Arc<Mutex<mpsc::Receiver<Job>>>,
        completions: Arc<Mutex<Vec<Completion>>>,
        wake: UnixStream,
    ) {
        loop {
            let job = match rx.lock().expect("worker queue poisoned").recv() {
                Ok(job) => job,
                Err(_) => break,
            };
            run_job(&server, job, Routing::Admitted, &completions, &wake);
        }
    }

    fn control_worker(
        server: Server,
        rx: mpsc::Receiver<ControlJob>,
        completions: Arc<Mutex<Vec<Completion>>>,
        wake: UnixStream,
    ) {
        for job in rx {
            match job {
                ControlJob::Request(job) => {
                    run_job(&server, job, Routing::Control, &completions, &wake)
                }
                ControlJob::Metrics {
                    token,
                    get,
                    path,
                    query,
                    keep_alive,
                } => {
                    let mut response = server.metrics_route(&path, &query);
                    if !get && response.status != 404 {
                        response = http::Response::text(405, "use GET for this endpoint\n");
                    }
                    push_completion(
                        &completions,
                        &wake,
                        token,
                        response.to_bytes_with(keep_alive),
                    );
                }
            }
        }
    }

    /// Flush as much of the write buffer as the socket accepts.
    /// `Ok(true)` once fully flushed.
    fn flush(conn: &mut Conn) -> io::Result<bool> {
        while conn.written < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.written..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.write_buf.drain(..conn.written);
                    conn.written = 0;
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        conn.write_buf.clear();
        conn.written = 0;
        Ok(true)
    }

    /// Whether `conn` has stopped reading: its dispatch is held (a
    /// command that runs alone is in flight, or the next line waits to
    /// run alone) and a full request's worth of bytes is buffered
    /// behind it. Outside a hold, `scanned` reaches the end of the
    /// buffer. The loop is level-triggered, so the rest stays in the
    /// kernel and TCP backpressure throttles the peer; reading resumes
    /// when the held command answers.
    fn read_held(conn: &Conn) -> bool {
        let held = conn.alone_in_flight || conn.scanned < conn.line_buf.len();
        held && conn.line_buf.len() - conn.consumed >= http::MAX_BODY_BYTES
    }

    /// Flush, update epoll interest, decide the connection's fate.
    /// `false` means drop it.
    fn settle(ctx: &Ctx, conn: &mut Conn) -> bool {
        let flushed = match flush(conn) {
            Ok(flushed) => flushed,
            Err(_) => return false,
        };
        if conn.closing && flushed && conn.pending == 0 {
            return false;
        }
        let mut want = 0;
        if !conn.closing && !read_held(conn) {
            want |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if !flushed {
            want |= sys::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let _ = ctx.poller.modify(conn.stream.as_raw_fd(), conn.token, want);
        }
        true
    }

    fn drop_conn(ctx: &Ctx, conns: &mut HashMap<u64, Conn>, token: u64) {
        if let Some(conn) = conns.remove(&token) {
            let _ = ctx.poller.delete(conn.stream.as_raw_fd());
            ctx.server.connection_closed();
        }
    }

    /// Detach the connection from the loop and serve the replication
    /// stream on a blocking thread of its own.
    fn handoff(ctx: &Ctx, conns: &mut HashMap<u64, Conn>, token: u64, request: Request, req: u64) {
        let Some(conn) = conns.remove(&token) else {
            return;
        };
        let _ = ctx.poller.delete(conn.stream.as_raw_fd());
        let mut stream = conn.stream;
        if stream.set_nonblocking(false).is_err() {
            ctx.server.connection_closed();
            return;
        }
        let server = ctx.server.clone();
        std::thread::Builder::new()
            .name("revkb-replicate".to_string())
            .spawn(move || {
                server.handle_replicate(&mut stream, req, &request);
                server.connection_closed();
            })
            .expect("spawn replication thread");
    }

    /// Drain readable bytes and frame them per the connection's
    /// protocol.
    fn handle_readable(ctx: &Ctx, conn: &mut Conn) -> After {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if read_held(conn) {
                return After::Keep;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    return After::Keep;
                }
                Ok(n) => match feed(ctx, conn, &chunk[..n]) {
                    After::Keep if conn.closing => return After::Keep,
                    After::Keep => {}
                    other => return other,
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return After::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return After::Close,
            }
        }
    }

    /// Feed freshly read bytes through protocol sniffing and framing.
    fn feed(ctx: &Ctx, conn: &mut Conn, bytes: &[u8]) -> After {
        match conn.proto {
            Proto::Unknown => {
                conn.line_buf.extend_from_slice(bytes);
                let Some(pos) = conn.line_buf.iter().position(|b| !b" \t\r\n".contains(b)) else {
                    // Only keep-alive noise so far; drop it.
                    conn.line_buf.clear();
                    return After::Keep;
                };
                if conn.line_buf[pos] == b'{' {
                    conn.proto = Proto::Line;
                    process_lines(ctx, conn)
                } else {
                    let rest = conn.line_buf.split_off(pos);
                    conn.line_buf.clear();
                    let mut parser = http::HttpParser::new();
                    parser.feed(&rest);
                    conn.proto = Proto::Http(parser);
                    drain_http(ctx, conn)
                }
            }
            Proto::Line => {
                conn.line_buf.extend_from_slice(bytes);
                process_lines(ctx, conn)
            }
            Proto::Http(ref mut parser) => {
                parser.feed(bytes);
                drain_http(ctx, conn)
            }
        }
    }

    /// Dispatch the complete NDJSON lines in the buffer, then drop the
    /// dispatched prefix. Commands that pipeline are routed as soon as
    /// their line arrives. Any other command waits in the buffer until
    /// no request of the connection is in flight, and nothing after it
    /// is routed until it answers; the completion that empties the
    /// connection resumes dispatch.
    fn process_lines(ctx: &Ctx, conn: &mut Conn) -> After {
        let after = dispatch_lines(ctx, conn);
        conn.line_buf.drain(..conn.consumed);
        conn.scanned -= conn.consumed;
        conn.consumed = 0;
        after
    }

    fn dispatch_lines(ctx: &Ctx, conn: &mut Conn) -> After {
        while !conn.alone_in_flight {
            let found = conn.line_buf[conn.scanned..]
                .iter()
                .position(|&b| b == b'\n');
            conn.scanned = found.map_or(conn.line_buf.len(), |i| conn.scanned + i);
            if conn.scanned - conn.consumed > http::MAX_BODY_BYTES {
                // Answer `line_too_long`, drop the buffer, and close
                // once everything owed has flushed.
                let err = RequestError {
                    id: None,
                    trace: None,
                    message: format!("request line exceeds {} bytes", http::MAX_BODY_BYTES),
                };
                let response =
                    ctx.server
                        .reject_line(codes::LINE_TOO_LONG, &err, Instant::now(), None);
                conn.write_buf.extend_from_slice(response.as_bytes());
                conn.write_buf.push(b'\n');
                conn.consumed = conn.line_buf.len();
                conn.scanned = conn.consumed;
                conn.closing = true;
                return After::Keep;
            }
            if found.is_none() {
                break;
            }
            let pos = conn.scanned;
            let line = String::from_utf8_lossy(&conn.line_buf[conn.consumed..pos]).into_owned();
            let line = line.trim();
            if line.is_empty() {
                conn.consumed = pos + 1;
                conn.scanned = conn.consumed;
                continue;
            }
            let started = Instant::now();
            let parsed = parse_request(line);
            if conn.pending > 0 && matches!(&parsed, Ok(request) if !request.cmd.pipelines()) {
                break;
            }
            conn.consumed = pos + 1;
            conn.scanned = conn.consumed;
            match parsed {
                Err(e) => {
                    let response = ctx
                        .server
                        .reject_line(codes::BAD_REQUEST, &e, started, None);
                    conn.write_buf.extend_from_slice(response.as_bytes());
                    conn.write_buf.push(b'\n');
                }
                Ok(request) => match dispatch(ctx, conn, request, started, None, Reply::Line) {
                    After::Keep => {}
                    handoff => return handoff,
                },
            }
        }
        After::Keep
    }

    /// Route one parsed request with [`Server::route_request`] and act
    /// on the verdict for either framer: write an immediate answer to
    /// the connection, queue the request for the control worker or
    /// the worker pool, or hand the connection to a replication stream
    /// (NDJSON only). A queued request sets the flag that holds back
    /// what follows it on the connection: `alone_in_flight` for an
    /// NDJSON command that does not pipeline, `http_busy` for any HTTP
    /// request. The trace id is resolved here (the body's, else
    /// `trace_header`, else a fresh one) so the worker, an immediate
    /// answer and a handoff all see one id.
    fn dispatch(
        ctx: &Ctx,
        conn: &mut Conn,
        mut request: Request,
        started: Instant,
        trace_header: Option<u64>,
        reply: Reply,
    ) -> After {
        let req = ctx.server.next_req();
        let trace = request
            .trace
            .or(trace_header)
            .unwrap_or_else(obs::new_trace_id);
        request.trace = Some(trace);
        let allow_replicate = matches!(reply, Reply::Line);
        let routing = ctx
            .server
            .route_request(&request, req, trace, allow_replicate);
        let control = match routing {
            Routing::Replicate => return After::Handoff { request, req },
            Routing::Done(_) => {
                let response = ctx
                    .server
                    .execute_routed(&request, routing, started, None, req, trace);
                conn.write_buf
                    .extend_from_slice(&render_reply(&reply, &response));
                return After::Keep;
            }
            Routing::Control => true,
            Routing::Admitted => false,
        };
        conn.pending += 1;
        match reply {
            Reply::Line => conn.alone_in_flight = !request.cmd.pipelines(),
            Reply::Http { .. } => conn.http_busy = true,
        }
        let job = Job {
            token: conn.token,
            request,
            started,
            dispatched: Instant::now(),
            req,
            trace,
            reply,
        };
        if control {
            let _ = ctx.ctl_tx.send(ControlJob::Request(job));
        } else {
            let _ = ctx.data_tx.send(job);
        }
        After::Keep
    }

    /// Take complete HTTP requests off the parser, one in flight at a
    /// time.
    fn drain_http(ctx: &Ctx, conn: &mut Conn) -> After {
        loop {
            if conn.http_busy || conn.closing {
                return After::Keep;
            }
            let taken = match conn.proto {
                Proto::Http(ref mut parser) => parser.take(),
                _ => return After::Keep,
            };
            match taken {
                Ok(None) => return After::Keep,
                Ok(Some(request)) => route_http(ctx, conn, request),
                Err(error) => {
                    conn.write_buf.extend_from_slice(&error.to_bytes());
                    conn.closing = true;
                    return After::Keep;
                }
            }
        }
    }

    /// Every command tag the gateway accepts as `POST /v1/<cmd>`.
    const GATEWAY_TAGS: [&str; 11] = [
        "load",
        "revise",
        "query",
        "query_batch",
        "list",
        "stats",
        "drop",
        "ping",
        "hello",
        "shutdown",
        "replicate",
    ];

    /// Turn one gateway POST into a protocol request line: `/v1`
    /// bodies are the request object verbatim; `/v1/<cmd>` bodies are
    /// the request object minus `cmd`, which the path supplies.
    fn gateway_line(request: &http::HttpRequest) -> Result<String, http::Response> {
        let body = std::str::from_utf8(&request.body)
            .map_err(|_| http::Response::text(400, "request body must be UTF-8\n"))?;
        if request.path == "/v1" {
            if body.trim().is_empty() {
                return Err(http::Response::text(
                    400,
                    "empty body; POST a JSON request object\n",
                ));
            }
            return Ok(body.to_string());
        }
        let tag = &request.path["/v1/".len()..];
        if !GATEWAY_TAGS.contains(&tag) {
            return Err(http::Response::not_found(&request.path));
        }
        let body = if body.trim().is_empty() { "{}" } else { body };
        let mut json = Json::parse(body)
            .map_err(|_| http::Response::text(400, "request body is not valid JSON\n"))?;
        let Json::Obj(pairs) = &mut json else {
            return Err(http::Response::text(
                400,
                "request body must be a JSON object\n",
            ));
        };
        // The path wins over any `cmd` field in the body.
        pairs.retain(|(key, _)| key != "cmd");
        pairs.insert(0, ("cmd".to_string(), Json::str(tag)));
        Ok(json.render())
    }

    /// Route one parsed HTTP request: gateway POSTs run the protocol
    /// pipeline; any other method on `/v1` is 405; every other
    /// request goes to the control worker, where
    /// `Server::metrics_route` owns the route table (404 for an
    /// unknown path, 405 for a known one asked with a method other
    /// than GET).
    fn route_http(ctx: &Ctx, conn: &mut Conn, hreq: http::HttpRequest) {
        let keep = hreq.keep_alive;
        let started = Instant::now();
        if hreq.method == "POST" && (hreq.path == "/v1" || hreq.path.starts_with("/v1/")) {
            // A W3C `traceparent` header seeds the request's trace id
            // (the envelope's own `trace` field wins when both are
            // present). A malformed header is a client error worth
            // reporting — but only a 400, never a dropped connection.
            let trace_header = match hreq.header("traceparent") {
                None => None,
                Some(value) => match obs::parse_traceparent(value) {
                    Some(id) => Some(id),
                    None => {
                        let response = http::Response::text(400, "malformed traceparent header\n");
                        conn.write_buf
                            .extend_from_slice(&response.to_bytes_with(keep));
                        if !keep {
                            conn.closing = true;
                        }
                        return;
                    }
                },
            };
            match gateway_line(&hreq) {
                Err(response) => {
                    conn.write_buf
                        .extend_from_slice(&response.to_bytes_with(keep));
                }
                Ok(line) => match parse_request(line.trim()) {
                    Err(e) => {
                        // The gateway routed fine; the *command* is bad.
                        // Transport says 200, the envelope carries the
                        // error code — same contract as the line
                        // protocol, where a bad request still gets a
                        // well-formed reply line.
                        let body = format!(
                            "{}\n",
                            ctx.server
                                .reject_line(codes::BAD_REQUEST, &e, started, trace_header)
                        );
                        let response = http::Response {
                            status: 200,
                            content_type: http::JSON_CONTENT_TYPE,
                            body,
                        };
                        conn.write_buf
                            .extend_from_slice(&response.to_bytes_with(keep));
                    }
                    Ok(request) => {
                        // `replicate` cannot hand off an HTTP
                        // connection, so it routes to the control
                        // worker and earns `unsupported` there.
                        let reply = Reply::Http { keep_alive: keep };
                        dispatch(ctx, conn, request, started, trace_header, reply);
                    }
                },
            }
        } else if hreq.path == "/v1" || hreq.path.starts_with("/v1/") {
            let response = http::Response::text(405, "use POST for /v1 endpoints\n");
            conn.write_buf
                .extend_from_slice(&response.to_bytes_with(keep));
        } else {
            conn.pending += 1;
            conn.http_busy = true;
            let _ = ctx.ctl_tx.send(ControlJob::Metrics {
                token: conn.token,
                get: hreq.method == "GET",
                path: hreq.path,
                query: hreq.query,
                keep_alive: keep,
            });
        }
        if !keep {
            conn.closing = true;
        }
    }

    /// Accept until the backlog is drained.
    fn accept_burst(
        ctx: &Ctx,
        listener: &TcpListener,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = *next_token;
                    *next_token += 1;
                    if ctx
                        .poller
                        .add(stream.as_raw_fd(), token, sys::EPOLLIN | sys::EPOLLRDHUP)
                        .is_err()
                    {
                        continue;
                    }
                    ctx.server.connection_opened();
                    conns.insert(token, Conn::new(stream, token));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Out of descriptors (or similar): back off so a
                    // level-triggered listener can't spin the loop.
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    /// Handle one epoll event for a connection token.
    fn on_conn_event(ctx: &Ctx, conns: &mut HashMap<u64, Conn>, token: u64, flags: u32) {
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            drop_conn(ctx, conns, token);
            return;
        }
        let mut after = After::Keep;
        if flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !conn.closing {
            after = handle_readable(ctx, conn);
        }
        match after {
            After::Close => {
                drop_conn(ctx, conns, token);
                return;
            }
            After::Handoff { request, req } => {
                handoff(ctx, conns, token, request, req);
                return;
            }
            After::Keep => {}
        }
        let keep = conns
            .get_mut(&token)
            .map(|conn| settle(ctx, conn))
            .unwrap_or(true);
        if !keep {
            drop_conn(ctx, conns, token);
        }
    }

    /// The event loop proper. See the module docs for the design.
    pub(super) fn serve(server: &Server, listener: TcpListener) -> io::Result<()> {
        sys::raise_nofile(u64::MAX);
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, sys::EPOLLIN)?;

        let completions: Arc<Mutex<Vec<Completion>>> = Arc::default();
        let (ctl_tx, ctl_rx) = mpsc::channel::<ControlJob>();
        let (data_tx, data_rx) = mpsc::channel::<Job>();
        let data_rx = Arc::new(Mutex::new(data_rx));
        let mut workers = Vec::new();
        {
            let server = server.clone();
            let completions = Arc::clone(&completions);
            let wake = wake_tx.try_clone()?;
            workers.push(
                std::thread::Builder::new()
                    .name("revkb-ctl".to_string())
                    .spawn(move || control_worker(server, ctl_rx, completions, wake))
                    .expect("spawn control worker"),
            );
        }
        for i in 0..server.config().threads.max(1) {
            let server = server.clone();
            let rx = Arc::clone(&data_rx);
            let completions = Arc::clone(&completions);
            let wake = wake_tx.try_clone()?;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("revkb-worker-{i}"))
                    .spawn(move || data_worker(server, rx, completions, wake))
                    .expect("spawn data worker"),
            );
        }

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENTS_CAP];
        let mut accepting = true;
        let mut grace: Option<Instant> = None;

        loop {
            if server.is_shutting_down() {
                if accepting {
                    let _ = poller.delete(listener.as_raw_fd());
                    accepting = false;
                    grace = Some(Instant::now() + SHUTDOWN_GRACE);
                }
                let idle = conns
                    .values()
                    .all(|c| c.pending == 0 && c.write_buf.is_empty());
                if idle || grace.is_some_and(|g| Instant::now() > g) {
                    break;
                }
            }
            let n = poller.wait(&mut events, 100)?;
            let fired: Vec<(u64, u32)> = events[..n]
                .iter()
                .map(|e| {
                    let e = *e;
                    (e.data, e.events)
                })
                .collect();
            let ctx = Ctx {
                server,
                poller: &poller,
                ctl_tx: &ctl_tx,
                data_tx: &data_tx,
            };
            for (token, flags) in fired {
                match token {
                    TOKEN_LISTENER => {
                        if accepting {
                            accept_burst(&ctx, &listener, &mut conns, &mut next_token);
                        }
                    }
                    TOKEN_WAKE => {
                        let mut buf = [0u8; 256];
                        while matches!((&wake_rx).read(&mut buf), Ok(n) if n > 0) {}
                    }
                    token => on_conn_event(&ctx, &mut conns, token, flags),
                }
            }
            // Completed responses: copy each into its connection's
            // write buffer (dead tokens are simply dropped), give HTTP
            // connections their next queued request, and resume line
            // connections that held lines back behind a command that
            // runs alone.
            let batch = std::mem::take(&mut *completions.lock().expect("completions poisoned"));
            for completion in batch {
                let Some(conn) = conns.get_mut(&completion.token) else {
                    continue;
                };
                conn.pending = conn.pending.saturating_sub(1);
                conn.http_busy = false;
                conn.write_buf.extend_from_slice(&completion.bytes);
                match conn.proto {
                    Proto::Http(_) => {
                        let _ = drain_http(&ctx, conn);
                    }
                    Proto::Line if conn.pending == 0 => {
                        conn.alone_in_flight = false;
                        match process_lines(&ctx, conn) {
                            After::Keep => {}
                            After::Close => {
                                drop_conn(&ctx, &mut conns, completion.token);
                                continue;
                            }
                            After::Handoff { request, req } => {
                                handoff(&ctx, &mut conns, completion.token, request, req);
                                continue;
                            }
                        }
                    }
                    _ => {}
                }
                let Some(conn) = conns.get_mut(&completion.token) else {
                    continue;
                };
                let keep = settle(&ctx, conn);
                if !keep {
                    drop_conn(&ctx, &mut conns, completion.token);
                }
            }
        }
        drop(ctl_tx);
        drop(data_tx);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}
