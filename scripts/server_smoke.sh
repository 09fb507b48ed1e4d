#!/usr/bin/env bash
# Smoke-test the revision service end to end, the way CI runs it:
#
#   1. a scripted stdio session across all eight operators, replayed so
#      the artifact cache must report hits, including one forced
#      deadline timeout (deadline_ms: 0) and a malformed line;
#   2. a REVKB_SERVER_QUEUE=0 run, where every data-plane request must
#      be shed with `overloaded` while the control plane stays up;
#   3. a TCP session against `revkb-server --listen 127.0.0.1:0`,
#      ending in a clean shutdown;
#   4. a restart-recovery round: a `--data-dir` server is SIGKILLed
#      mid-workload, restarted on the same directory, and must serve
#      the revised KB warm (replayed log, artifact-cache hit);
#   5. a replication round: a `--replica-of` follower streams the
#      primary's WAL, serves read-only queries, survives a SIGKILL of
#      the primary (which restarts from its own log on the same port),
#      reconnects, catches up, and applies replicated revises warm
#      (artifact-cache hits on the replica);
#   6. a metrics round: the data address is scraped over HTTP
#      (Prometheus /metrics with per-KB labels, /healthz, /readyz)
#      while an NDJSON session on the same port keeps being served;
#   7. an event-loop round: the HTTP/1.1 gateway answers the data
#      plane (POST /v1, POST /v1/<cmd>, GET /metrics on the data
#      port, 404/405 for bad routes) on the same listener as a
#      pipelined NDJSON burst, then `revkb-bench --load-only` holds
#      >= 1000 concurrent connections against a 4-thread server;
#   8. a diagnostics round: with `REVKB_TRACE` unset, a `--log-file`
#      server echoes client trace ids, serves all three /debug routes
#      on its data address (flight-recorder Chrome trace,
#      NDJSON log tail, slow/in-flight requests), and is SIGKILLed
#      mid-load — the surviving log file must be a parseable NDJSON
#      prefix and the fetched trace a valid Chrome trace.
#
# Usage: scripts/server_smoke.sh  (from the repo root; builds the
# release binaries if target/release/revkb-server is missing).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${REVKB_SERVER_BIN:-target/release/revkb-server}"
if [[ ! -x "$BIN" ]]; then
    cargo build --release -p revkb-server --bin revkb-server
fi

BIN="$BIN" python3 - <<'EOF'
import json, os, shutil, socket, subprocess, sys, tempfile

BIN = os.environ["BIN"]
OPS = ["winslett", "borgida", "forbus", "satoh", "dalal", "weber",
       "gfuv", "widtio"]
THEORY = "a & b; b -> c; c | d"
REVISION = "!b | !c"

def run_stdio(lines, env=None):
    """Feed request lines to a fresh --stdio server, return responses."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [BIN, "--stdio"], input="\n".join(lines) + "\n",
        capture_output=True, text=True, timeout=120, env=full_env)
    if proc.returncode != 0:
        sys.exit(f"server exited with {proc.returncode}: {proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]

def ok(resp, context):
    if resp.get("ok") is not True:
        sys.exit(f"{context}: expected ok, got {resp}")
    return resp["result"]

def err(resp, code, context):
    if resp.get("ok") is not False or resp.get("code") != code:
        sys.exit(f"{context}: expected code {code!r}, got {resp}")

# -- 1. scripted session: all eight operators, replayed for cache hits.
lines, checks = [], []
for op in OPS:
    for kb in (f"{op}-cold", f"{op}-warm"):
        lines.append(json.dumps(
            {"cmd": "load", "kb": kb, "t": THEORY}))
        checks.append(("ok", f"load {kb}"))
        lines.append(json.dumps(
            {"cmd": "revise", "kb": kb, "op": op, "p": REVISION}))
        checks.append(("revise", (op, kb)))
        lines.append(json.dumps(
            {"cmd": "query_batch", "kb": kb, "qs": ["a", "c | d"]}))
        checks.append(("ok", f"query_batch {kb}"))
lines.append('{"cmd":"query","kb":"dalal-warm","q":"a","deadline_ms":0}')
checks.append(("err", ("timeout", "forced deadline")))
lines.append("this line is not a request")
checks.append(("err", ("bad_request", "malformed line")))
lines.append('{"cmd":"stats"}')
checks.append(("stats", None))
lines.append('{"cmd":"shutdown"}')
checks.append(("ok", "shutdown"))

responses = run_stdio(lines)
assert len(responses) == len(checks), (len(responses), len(checks))
for resp, (kind, detail) in zip(responses, checks):
    if kind == "ok":
        ok(resp, detail)
    elif kind == "err":
        code, context = detail
        err(resp, code, context)
    elif kind == "revise":
        op, kb = detail
        result = ok(resp, f"revise {kb}")
        cache = result["cache"]
        if op in ("gfuv", "widtio"):
            assert cache == "bypass", (kb, cache)
        elif kb.endswith("-warm"):
            assert cache == "hit", f"{kb}: warm compile must hit, got {cache}"
    elif kind == "stats":
        stats = ok(resp, "stats")
        hits = stats["cache"]["hits"]
        assert hits >= 6, f"expected >= 6 cache hits, got {hits}"
        assert stats["timeouts"] >= 1, stats
print(f"stdio session ok: {len(responses)} responses, "
      f"cache hits {stats['cache']['hits']}, timeouts {stats['timeouts']}")

# -- 2. zero admission queue: data plane shed, control plane alive.
responses = run_stdio(
    ['{"cmd":"load","kb":"k","t":"a"}', '{"cmd":"ping"}',
     '{"cmd":"shutdown"}'],
    env={"REVKB_SERVER_QUEUE": "0"})
err(responses[0], "overloaded", "load under queue=0")
ok(responses[1], "ping under queue=0")
ok(responses[2], "shutdown under queue=0")
print("zero-queue session ok: overloaded shed, control plane answered")

# -- 3. TCP round trip with a clean shutdown.
proc = subprocess.Popen(
    [BIN, "--listen", "127.0.0.1:0"],
    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
banner = proc.stdout.readline().strip()
assert banner.startswith("listening "), banner
host, port = banner.split()[1].rsplit(":", 1)

with socket.create_connection((host, int(port)), timeout=30) as sock:
    stream = sock.makefile("rw", encoding="utf-8", newline="\n")
    def call(request):
        stream.write(json.dumps(request) + "\n")
        stream.flush()
        return json.loads(stream.readline())
    ok(call({"cmd": "load", "kb": "tcp", "t": THEORY}), "tcp load")
    ok(call({"cmd": "revise", "kb": "tcp", "op": "dalal",
             "p": REVISION}), "tcp revise")
    result = ok(call({"cmd": "query", "kb": "tcp", "q": "a"}), "tcp query")
    assert result["entails"] is True, result
    ok(call({"cmd": "shutdown"}), "tcp shutdown")

if proc.wait(timeout=30) != 0:
    sys.exit(f"TCP server exited with {proc.returncode}: "
             f"{proc.stderr.read()}")
print(f"tcp session ok: {banner}, server exited cleanly")

# -- 4. restart recovery: SIGKILL a --data-dir server mid-workload,
#       restart it on the same directory, and demand warm answers.
data_dir = tempfile.mkdtemp(prefix="revkb-smoke-wal-")

def start_durable():
    p = subprocess.Popen(
        [BIN, "--listen", "127.0.0.1:0", "--data-dir", data_dir,
         "--snapshot-every", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    b = p.stdout.readline().strip()
    assert b.startswith("listening "), b
    h, pt = b.split()[1].rsplit(":", 1)
    return p, h, int(pt)

def session(host, port):
    sock = socket.create_connection((host, port), timeout=30)
    stream = sock.makefile("rw", encoding="utf-8", newline="\n")
    def call(request):
        stream.write(json.dumps(request) + "\n")
        stream.flush()
        return json.loads(stream.readline())
    return sock, call

proc, host, port = start_durable()
sock, call = session(host, port)
ok(call({"cmd": "load", "kb": "wal", "t": THEORY}), "durable load")
ok(call({"cmd": "revise", "kb": "wal", "op": "dalal", "p": REVISION}),
   "durable revise")
result = ok(call({"cmd": "query", "kb": "wal", "q": "a"}), "durable query")
assert result["entails"] is True, result
sock.close()
proc.kill()          # SIGKILL: no shutdown handshake, no flush
proc.wait(timeout=30)

proc, host, port = start_durable()
sock, call = session(host, port)
stats = ok(call({"cmd": "stats"}), "post-restart stats")
wal = stats["wal"]
assert wal["enabled"] is True, wal
recovery = wal["recovery"]
assert recovery["replayed"] >= 2, recovery
assert recovery["replay_errors"] == 0, recovery
# The snapshot pre-warmed the cache, so replay itself hit it:
# recovery recompiled nothing.
assert stats["cache"]["hits"] >= 1, stats["cache"]
# The KB survived the SIGKILL with its revision intact…
result = ok(call({"cmd": "query", "kb": "wal", "q": "a"}),
            "post-restart query")
assert result["entails"] is True, result
# …and the compiled artifact is warm: an identical revise on a fresh
# KB is a pure cache hit, no recompilation.
ok(call({"cmd": "load", "kb": "wal2", "t": THEORY}), "post-restart load")
result = ok(call({"cmd": "revise", "kb": "wal2", "op": "dalal",
                  "p": REVISION}), "post-restart revise")
assert result["cache"] == "hit", result
ok(call({"cmd": "shutdown"}), "durable shutdown")
sock.close()
if proc.wait(timeout=30) != 0:
    sys.exit(f"durable server exited with {proc.returncode}: "
             f"{proc.stderr.read()}")
shutil.rmtree(data_dir, ignore_errors=True)
print(f"restart-recovery ok: replayed {recovery['replayed']} op(s), "
      f"cache hits {stats['cache']['hits']}, warm revise hit")

# -- 5. replication: primary + replica, SIGKILL the primary
#       mid-stream, restart it on the same port, demand catch-up and
#       warm replicated reads.
import time

primary_dir = tempfile.mkdtemp(prefix="revkb-smoke-repl-p-")
replica_dir = tempfile.mkdtemp(prefix="revkb-smoke-repl-r-")

def start_server(args):
    p = subprocess.Popen(
        [BIN] + args,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    b = p.stdout.readline().strip()
    assert b.startswith("listening "), b
    h, pt = b.split()[1].rsplit(":", 1)
    return p, h, int(pt)

primary, phost, pport = start_server(
    ["--listen", "127.0.0.1:0", "--data-dir", primary_dir,
     "--snapshot-every", "1"])
psock, pcall = session(phost, pport)
ok(pcall({"cmd": "load", "kb": "repl", "t": THEORY}), "primary load")
ok(pcall({"cmd": "revise", "kb": "repl", "op": "dalal", "p": REVISION}),
   "primary revise")

replica, rhost, rport = start_server(
    ["--listen", "127.0.0.1:0", "--data-dir", replica_dir,
     "--replica-of", f"{phost}:{pport}"])
rsock, rcall = session(rhost, rport)

def wait_replica(predicate, context, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        repl = ok(rcall({"cmd": "stats"}), "replica stats")["repl"]
        if predicate(repl):
            return repl
        time.sleep(0.05)
    sys.exit(f"{context}: timed out; last repl stats {repl}")

repl = wait_replica(
    lambda r: r["connected"] and r["lag_bytes"] == 0 and r["offset"] > 8,
    "replica catch-up")
result = ok(rcall({"cmd": "query", "kb": "repl", "q": "a"}),
            "replicated query")
assert result["entails"] is True, result
err(rcall({"cmd": "load", "kb": "nope", "t": "a"}), "read_only",
    "write on replica")

primary.kill()       # SIGKILL mid-stream: no handshake, no flush
primary.wait(timeout=30)
primary, phost2, pport2 = start_server(
    ["--listen", f"{phost}:{pport}", "--data-dir", primary_dir,
     "--snapshot-every", "1"])
assert pport2 == pport, (pport2, pport)
psock, pcall = session(phost, pport)
# A fresh KB revised with the already-compiled revision: the replica
# must apply it from its pre-warmed artifact cache — a hit, not a
# recompile.
ok(pcall({"cmd": "load", "kb": "repl2", "t": THEORY}), "post-kill load")
ok(pcall({"cmd": "revise", "kb": "repl2", "op": "dalal", "p": REVISION}),
   "post-kill revise")

repl = wait_replica(
    lambda r: r["connected"] and r["lag_bytes"] == 0 and r["sessions"] >= 2,
    "replica reconnect")
assert repl["diverged"] is False, repl
result = ok(rcall({"cmd": "query", "kb": "repl2", "q": "a"}),
            "post-reconnect replicated query")
assert result["entails"] is True, result
rstats = ok(rcall({"cmd": "stats"}), "replica stats")
assert rstats["cache"]["hits"] >= 1, rstats["cache"]

ok(rcall({"cmd": "shutdown"}), "replica shutdown")
rsock.close()
if replica.wait(timeout=30) != 0:
    sys.exit(f"replica exited with {replica.returncode}: "
             f"{replica.stderr.read()}")
ok(pcall({"cmd": "shutdown"}), "primary shutdown")
psock.close()
if primary.wait(timeout=30) != 0:
    sys.exit(f"primary exited with {primary.returncode}: "
             f"{primary.stderr.read()}")
shutil.rmtree(primary_dir, ignore_errors=True)
shutil.rmtree(replica_dir, ignore_errors=True)
print(f"replication ok: offset {repl['offset']}, "
      f"{repl['sessions']} session(s), replica cache hits "
      f"{rstats['cache']['hits']}")

# -- 6. metrics plane: scrape the data address over HTTP while an
#       NDJSON session on the same port keeps being answered.
proc = subprocess.Popen(
    [BIN, "--listen", "127.0.0.1:0"],
    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
banner = proc.stdout.readline().strip()
assert banner.startswith("listening "), banner
host, port = banner.split()[1].rsplit(":", 1)

def scrape(path):
    """One GET on the data address of the current phase's server."""
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n"
                  "Connection: close\r\n\r\n".encode())
        raw = b""
        while chunk := s.recv(65536):
            raw += chunk
    head, _, body = raw.decode().partition("\r\n\r\n")
    return int(head.split()[1]), body

sock, call = session(host, int(port))
ok(call({"cmd": "load", "kb": "scraped", "t": THEORY}), "metrics load")
ok(call({"cmd": "revise", "kb": "scraped", "op": "dalal",
         "p": REVISION}), "metrics revise")
for i in range(5):
    ok(call({"cmd": "query", "kb": "scraped", "q": "a"}),
       f"metrics query {i}")
    status, page = scrape("/metrics")
    assert status == 200, (status, page)
assert "# TYPE revkb_server_requests_total counter" in page, page
assert 'revkb_kb_queries_total{kb="scraped"}' in page, page
assert 'revkb_kb_op_revises_total{kb="scraped",op="dalal"} 1' in page, page
status, body = scrape("/healthz")
assert status == 200 and '"ok":true' in body, (status, body)
status, body = scrape("/readyz")
assert status == 200, (status, body)
status, body = scrape("/stats.json")
assert status == 200 and "kb_profiles" in body, (status, body)
status, body = scrape("/series.json")
assert status == 200 and "interval_ms" in body, (status, body)
ok(call({"cmd": "shutdown"}), "metrics shutdown")
sock.close()
if proc.wait(timeout=30) != 0:
    sys.exit(f"metrics server exited with {proc.returncode}: "
             f"{proc.stderr.read()}")
print(f"metrics plane ok: scraped {host}:{port} under live traffic")

# -- 7a. HTTP gateway on the event-loop listener: the data plane over
#        POST /v1 routes, GET metrics on the same port, and a
#        pipelined NDJSON burst on a sibling connection.
proc = subprocess.Popen(
    [BIN, "--listen", "127.0.0.1:0"],
    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
banner = proc.stdout.readline().strip()
assert banner.startswith("listening "), banner
host, port = banner.split()[1].rsplit(":", 1)

def http(method, path, body=None):
    payload = (body or "").encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: smoke\r\n"
            f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(head.encode() + payload)
        raw = b""
        while chunk := s.recv(65536):
            raw += chunk
    header, _, content = raw.decode().partition("\r\n\r\n")
    return int(header.split()[1]), content

status, body = http("POST", "/v1/load",
                    json.dumps({"kb": "gw", "t": THEORY}))
assert status == 200, (status, body)
ok(json.loads(body), "gateway load")

status, body = http("POST", "/v1",
                    json.dumps({"cmd": "query", "kb": "gw", "q": "a"}))
assert status == 200, (status, body)
assert ok(json.loads(body), "gateway query")["entails"] is True

status, page = http("GET", "/metrics")
assert status == 200 and "revkb_server_requests_total" in page, status
status, _ = http("POST", "/v1/warp", "{}")
assert status == 404, status
status, _ = http("GET", "/v1/query")
assert status == 405, status

# A pipelined burst on a plain TCP connection of the same listener:
# one write, every response answered and correlated by id.
with socket.create_connection((host, int(port)), timeout=30) as sock:
    burst = "".join(
        json.dumps({"id": i, "cmd": "query", "kb": "gw", "q": "a"}) + "\n"
        for i in range(32))
    sock.sendall(burst.encode())
    stream = sock.makefile("r", encoding="utf-8", newline="\n")
    seen = set()
    for _ in range(32):
        resp = json.loads(stream.readline())
        ok(resp, "pipelined query")
        seen.add(resp["id"])
    assert seen == set(range(32)), seen
    stream = sock.makefile("rw", encoding="utf-8", newline="\n")
    stream.write('{"cmd":"shutdown"}\n')
    stream.flush()
    ok(json.loads(stream.readline()), "gateway shutdown")
if proc.wait(timeout=30) != 0:
    sys.exit(f"gateway server exited with {proc.returncode}: "
             f"{proc.stderr.read()}")
print(f"http gateway ok: {banner}, 32-deep pipelined burst answered")

# -- 8. diagnostics plane: trace echo, the /debug routes, and a
#       SIGKILL mid-load that must leave a parseable NDJSON log.
diag_dir = tempfile.mkdtemp(prefix="revkb-smoke-diag-")
log_file = os.path.join(diag_dir, "server.ndjson")
diag_env = dict(os.environ)
diag_env.pop("REVKB_TRACE", None)   # the flight recorder needs no mode
diag_env["REVKB_LOG"] = "debug"
proc = subprocess.Popen(
    [BIN, "--listen", "127.0.0.1:0", "--log-file", log_file],
    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    env=diag_env)
banner = proc.stdout.readline().strip()
assert banner.startswith("listening "), banner
host, port = banner.split()[1].rsplit(":", 1)

sock, call = session(host, int(port))
ok(call({"cmd": "load", "kb": "diag", "t": THEORY}), "diag load")
resp = call({"cmd": "revise", "kb": "diag", "op": "dalal", "p": REVISION,
             "trace": "000000000000beef"})
ok(resp, "diag revise")
assert resp["trace"] == "000000000000beef", resp
for i in range(10):
    ok(call({"cmd": "query", "kb": "diag", "q": "a"}), f"diag query {i}")

status, body = scrape("/debug/trace.json")
assert status == 200, (status, body)
trace_doc = json.loads(body)
events = trace_doc["traceEvents"]
assert any(e["name"] == "server.request" for e in events), events[:3]
assert any(e.get("args", {}).get("trace") == 0xBEEF for e in events), \
    "client trace id missing from the flight recorder"

status, body = scrape("/debug/logs.json")
assert status == 200, (status, body)
logs_doc = json.loads(body)
assert logs_doc["count"] == len(logs_doc["logs"]), logs_doc["count"]
for line in logs_doc["logs"]:
    assert "level" in line and "msg" in line, line

status, body = scrape("/debug/requests.json")
assert status == 200, (status, body)
req_doc = json.loads(body)
assert "slow_log" in req_doc and "in_flight" in req_doc, req_doc

# SIGKILL mid-load: a pipelined burst is in flight when the process
# dies. The unbuffered log file must still be a valid NDJSON prefix.
burst = "".join(
    json.dumps({"cmd": "query", "kb": "diag", "q": "a | e"}) + "\n"
    for _ in range(64))
sock.sendall(burst.encode())
proc.kill()
proc.wait(timeout=30)
sock.close()
with open(log_file, encoding="utf-8") as f:
    log_lines = f.read().splitlines()
assert log_lines, "log file is empty"
for line in log_lines:
    parsed = json.loads(line)          # every surviving line parses
    assert {"ts", "level", "target", "msg"} <= set(parsed), parsed
json.loads(json.dumps(trace_doc))      # fetched trace stays a valid doc
shutil.rmtree(diag_dir, ignore_errors=True)
print(f"diagnostics ok: trace echoed, 3 /debug routes served, "
      f"{len(log_lines)} NDJSON log line(s) survived SIGKILL")

print("server smoke: python phases passed")
EOF

# -- 7b. connection-count smoke: >= 1000 concurrent connections held
#        open against a 4-thread event-loop server while an open-loop
#        schedule drives queries through it. The bench spawns the
#        server binary it finds next to itself.
BENCH="${REVKB_BENCH_BIN:-target/release/revkb-bench}"
if [[ ! -x "$BENCH" ]]; then
    cargo build --release -p revkb-bench --bin revkb-bench
fi
LOAD_OUT=$(REVKB_SERVER_THREADS=4 REVKB_BENCH_CONNS=1000 \
    REVKB_BENCH_QPS=500 REVKB_BENCH_LOAD_MS=1000 "$BENCH" --load-only)
echo "$LOAD_OUT" | grep "open-loop:"
CONNS=$(echo "$LOAD_OUT" | sed -n 's/^open-loop: connections=\([0-9]*\).*/\1/p')
if [[ -z "$CONNS" || "$CONNS" -lt 1000 ]]; then
    echo "load smoke: expected >= 1000 concurrent connections, got '${CONNS:-none}'" >&2
    exit 1
fi
ERRS=$(echo "$LOAD_OUT" | sed -n 's/.* errors=\([0-9]*\).*/\1/p')
if [[ "${ERRS:-0}" -ne 0 ]]; then
    echo "load smoke: open-loop reported $ERRS error(s)" >&2
    exit 1
fi
echo "load smoke ok: $CONNS concurrent connections, 0 errors"
echo "server smoke: all eight phases passed"
