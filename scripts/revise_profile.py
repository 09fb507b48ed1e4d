#!/usr/bin/env python3
"""Time every revise of perfbench's cold_compile corpus, and each KB's
first query, per operator, backend and chain step, and check compiled
sizes across two builds or against a committed file.

    python3 scripts/revise_profile.py run target/release/revkb-server after.json
    python3 scripts/revise_profile.py compare before.json after.json
    python3 scripts/revise_profile.py check target/release/revkb-server scripts/corpus_sizes.json

`run` starts `revkb-server --stdio` (pinned to the last CPU this
process may use, where the OS supports affinity), sends the corpus's
240 chains in a fixed order -- load, each revise, one query, drop --
three times, and writes the median client-side latency of each
(operator, backend, step) revise, the median latency of the query
after a chain's last step (the KB version's first query, which loads
its SAT session, or on the BDD backend answers on the compiled diagram)
per (operator, backend, steps), and the
`compiled_size` of every (chain, step) revise, keyed
`chain:operator/backend/step`. It also writes the p50 and p90 over
every revise of every pass, and how many of the revises at or above
that p90 (the slowest decile) each (operator, backend, step)
contributes. Every query's answer is checked against perfbench's
oracle. The 64-entry artifact cache never holds a chain when it comes
round again, so every model-based revise compiles.
`compare` prints both sets of medians side by side, both runs' p50/p90
and slowest-decile keys, and the (operator, backend, step) keys whose
compiled sizes differ; it fails unless both runs saw the same compiled
size for every revise.
`check` runs the corpus once, also asks each KB its whole query set as
one batch, checks every answer against the oracle, and fails on any
compiled size that differs from the committed file (a JSON object in
`run`'s `compiled_size` form).
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

PASSES = 3


def pin_to_last_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def passes(binary, count, every_answer=False):
    """Send the corpus `count` times; return the revise latencies and
    first-query latencies per key, and the compiled size per revise."""
    corpus = workloads.instances(random.Random("corpus"), oracle.Alphabet(workloads.LETTERS),
                                 240, workloads.kinds(3))
    server = subprocess.Popen([binary, "--stdio"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, bufsize=1,
                              preexec_fn=pin_to_last_cpu)

    def call(request):
        start = time.perf_counter()
        server.stdin.write(json.dumps(request) + "\n")
        server.stdin.flush()
        response = json.loads(server.stdout.readline())
        if not response.get("ok"):
            sys.exit(f"request failed: {request} -> {response}")
        return response["result"], time.perf_counter() - start

    latencies, first_queries, sizes = {}, {}, {}
    for n in range(count):
        for k, inst in enumerate(corpus):
            kb = f"p{n}c{k}"
            call({"cmd": "load", "kb": kb, "t": inst.theory_text()})
            for step, p in enumerate(inst.chain, 1):
                request = {"cmd": "revise", "kb": kb, "op": inst.op, "p": oracle.render(p)}
                if inst.op in oracle.MODEL_BASED:
                    request["backend"] = inst.backend
                result, seconds = call(request)
                key = f"{inst.op}/{inst.backend}/{step}"
                latencies.setdefault(key, []).append(seconds * 1e3)
                size = sizes.setdefault(f"{k}:{key}", result.get("compiled_size"))
                if size != result.get("compiled_size"):
                    sys.exit(f"chain {k} step {step}: compiled size changed between passes")
            result, seconds = call({"cmd": "query", "kb": kb, "q": oracle.render(inst.queries[0])})
            if result.get("entails") != inst.answers[0]:
                sys.exit(f"chain {k}: first query answered {result} against the oracle's "
                         f"{inst.answers[0]}")
            key = f"{inst.op}/{inst.backend}/{len(inst.chain)}"
            first_queries.setdefault(key, []).append(seconds * 1e3)
            if every_answer:
                qs = [oracle.render(q) for q in inst.queries]
                result, _ = call({"cmd": "query_batch", "kb": kb, "qs": qs})
                if result.get("answers") != inst.answers:
                    sys.exit(f"chain {k}: answered {result.get('answers')} against the oracle's "
                             f"{inst.answers}")
            call({"cmd": "drop", "kb": kb})
    server.stdin.close()
    server.wait()
    return latencies, first_queries, sizes


def run(binary, out):
    latencies, first_queries, sizes = passes(binary, PASSES)
    every = sorted((ms, key) for key, v in latencies.items() for ms in v)
    deciles = statistics.quantiles([ms for ms, _ in every], n=10)
    slowest = {}
    for ms, key in every:
        if ms >= deciles[8]:
            slowest[key] = slowest.get(key, 0) + 1
    with open(out, "w") as f:
        json.dump({"passes": PASSES,
                   "revise_p50_ms": deciles[4],
                   "revise_p90_ms": deciles[8],
                   "slowest_decile": dict(sorted(slowest.items(), key=lambda kv: -kv[1])),
                   "median_ms": {k: statistics.median(v) for k, v in sorted(latencies.items())},
                   "revises": {k: len(v) for k, v in sorted(latencies.items())},
                   "first_query_ms": {k: statistics.median(v)
                                      for k, v in sorted(first_queries.items())},
                   "compiled_size": sizes}, f, indent=1)
    print(f"{len(sizes)} (chain, step) revises, {PASSES} passes -> {out}")


def size_changes(before, after):
    """The revises whose compiled sizes differ, counted per
    (operator, backend, step) key."""
    changed = {}
    for revise in sorted(before.keys() | after.keys()):
        if before.get(revise) != after.get(revise):
            key = revise.split(":", 1)[-1]
            changed[key] = changed.get(key, 0) + 1
    return changed


def print_size_changes(changed, total, before_name, after_name):
    for key, count in sorted(changed.items()):
        print(f"compiled size changed: {key:38} {count:4} revises")
    print(f"compiled size identical between {before_name} and {after_name} for "
          f"{total - sum(changed.values())} of {total} revises")


def check(binary, sizes_path):
    _, _, sizes = passes(binary, 1, every_answer=True)
    with open(sizes_path) as f:
        pinned = json.load(f)
    changed = size_changes(pinned, sizes)
    print(f"{len(sizes)} (chain, step) revises; every answer matches the oracle")
    print_size_changes(changed, len(pinned.keys() | sizes.keys()), sizes_path, binary)
    return 1 if changed else 0


def compare(before_path, after_path):
    with open(before_path) as f:
        before = json.load(f)
    with open(after_path) as f:
        after = json.load(f)
    for title, field in (("revise", "median_ms"), ("first query", "first_query_ms")):
        print(f"{title + ': operator/backend/step':38} {'before ms':>10} {'after ms':>10} "
              f"{'change':>8}")
        for key, was in before[field].items():
            now = after[field][key]
            print(f"{key:38} {was:10.3f} {now:10.3f} {100 * (now / was - 1):+7.1f}%")
    for q in ("p50", "p90"):
        was, now = before[f"revise_{q}_ms"], after[f"revise_{q}_ms"]
        print(f"{'revise ' + q + ', all revises':38} {was:10.3f} {now:10.3f} "
              f"{100 * (now / was - 1):+7.1f}%")
    print(f"{'slowest decile: operator/backend/step':38} {'before':>10} {'after':>10}")
    for key in sorted(set(before["slowest_decile"]) | set(after["slowest_decile"]),
                      key=lambda k: -before["slowest_decile"].get(k, 0)):
        print(f"{key:38} {before['slowest_decile'].get(key, 0):10} "
              f"{after['slowest_decile'].get(key, 0):10}")
    changed = size_changes(before["compiled_size"], after["compiled_size"])
    print_size_changes(changed, len(before["compiled_size"].keys() | after["compiled_size"].keys()),
                       before_path, after_path)
    return 1 if changed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("binary")
    r.add_argument("out")
    c = sub.add_parser("compare")
    c.add_argument("before")
    c.add_argument("after")
    k = sub.add_parser("check")
    k.add_argument("binary")
    k.add_argument("sizes")
    args = parser.parse_args()
    if args.mode == "run":
        run(args.binary, args.out)
        return 0
    if args.mode == "check":
        return check(args.binary, args.sizes)
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
