#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the perfbench binary
(perfbench/CMakeLists.txt, on top of src/) into a build tree of this
checkout's own under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) as a Release build; a build of any other type is
refused.

Workloads (see perfbench/README.md for the reasoning behind each):
  serve-uniform      PRSB requests over TCP to an unsharded QueryService,
                     cache off, uniform sources on a Chung-Lu graph
  serve-hot-sharded  the same graph from a 3-shard bundle behind
                     ShardRouter, result cache on, Zipf(1.2) sources
  batch-er           BatchQueryWithStats on an Erdos-Renyi graph, no
                     network and no service

With --trace 0 the last stdout line carries every end-to-end metric; with
--trace 1 every per-layer metric (from a separate traced run). The line
before it is the run record (environment, rates offered, phase tables).
A run whose correctness gate fails prints correct=false and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# PRSim as every workload runs it: c, eps, top-k and a fixed engine seed.
ENGINE = {"c": 0.6, "eps": 0.1, "k": 10, "engine_seed": 42}
# Set-ups per run; setup_s is their median.
SETUPS = 3
# A nominal window's p99 needs at least this many samples beyond it.
P99_TAIL = 10
# Each nominal window of a traced run lasts this share of --seconds.
TRACE_WINDOW = 0.5
# The gate's sample: 32 requests, one in every REF_STRIDE after the warm-up.
REF_STRIDE = 25
# |ledger.unexplained_frac| on serve-uniform must stay within this.
LEDGER_TOLERANCE = 0.05
# Accuracy check: a fixed source set on a fixed small ground-truth graph,
# so max_error is a pure function of the program (and repeats exactly).
GT = {"gt_n": 1000, "gt_sources": 40, "stream_seed": 1}

WORKLOADS = {
    "serve-uniform": {
        "kind": "serve", "model": "chunglu", "n": 200000, "degree": 10,
        "gamma": 2.0, "graph_seed": 1, "shards": 0, "cache_mb": 0, "zipf_s": 0.0,
        "threads": 0, "warmup": 400, "nominal_qps": 300.0,
        "ladder_start": 750.0, "ladder_step_s": 1.5, "ladder_max_steps": 30,
    },
    "serve-hot-sharded": {
        "kind": "serve", "model": "chunglu", "n": 200000, "degree": 10,
        "gamma": 2.0, "graph_seed": 1, "shards": 3, "cache_mb": 64, "zipf_s": 1.2,
        "threads": 1, "warmup": 3000, "nominal_qps": 500.0,
        "ladder_start": 1500.0, "ladder_step_s": 1.0, "ladder_max_steps": 30,
    },
    "batch-er": {
        "kind": "batch", "model": "er", "n": 200000, "degree": 10,
        "gamma": 2.0, "graph_seed": 1, "batch": 2000,
    },
}

# --smoke: a seconds-long version of every workload for the benchmark's own
# tests. It runs the same code paths and the same correctness gate on a
# small graph; its numbers are not comparable to a full run.
SMOKE = {
    "n": 4000, "warmup": 50, "nominal_qps": 100.0, "ladder_start": 200.0,
    "ladder_step_s": 0.3, "ladder_max_steps": 3,
    "batch": 200, "cache_mb": 1, "setups": 1, "gt_n": 300, "gt_sources": 5,
}

END_TO_END = {
    "setup_s": "s", "saturated_qps": "1/s", "answered_frac": "fraction",
    "max_error": "score", "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "graph.gen_s": "s", "index.rpr_s": "s", "index.backward_search_s": "s",
    "index.build_s": "s", "index.parallel_eff": "fraction",
    "index.tuples": "count", "index.bytes": "bytes",
    "artifact.save_s": "s", "artifact.load_s": "s", "server.start_s": "s",
    "engine.query_ms.p50": "ms", "engine.query_ms.p99": "ms",
    "engine.query_ms.n": "count",
    "engine.walks": "count", "engine.meeting_tests": "count",
    "engine.backward_walks": "count", "engine.backward_increments": "count",
    "engine.index_tuples_read": "count",
    "ppr.walk_ns": "ns", "ppr.meet_ns": "ns",
    "ppr.backward_increment_ns": "ns", "index.tuple_ns": "ns",
    "engine.explained_frac": "fraction",
    "service.submit_us.p50": "us", "service.submit_us.p99": "us",
    "service.resolve_ms.p50": "ms", "service.resolve_ms.p99": "ms",
    "service.resolve_ms.n": "count",
    "service.queue_wait_ms.p50": "ms", "service.queue_wait_ms.p99": "ms",
    "service.queue_high_water": "count", "service.failed": "count",
    "service.refused": "count", "pool.busy_frac": "fraction",
    "cache.hit_ratio": "fraction", "cache.lookups": "count",
    "cache.coalesced": "count", "cache.evictions": "count",
    "cache.bytes": "bytes", "router.shard_max_share": "fraction",
    "net.transport_ms.p50": "ms", "net.transport_ms.p99": "ms",
    "net.transport_ms.n": "count",
    "net.encode_us": "us", "net.decode_us": "us", "net.requests": "count",
    "net.protocol_errors": "count",
    "client.latency_ms.p50": "ms", "client.latency_ms.p95": "ms",
    "client.latency_ms.p99": "ms", "client.knee_qps": "1/s",
    "client.lateness_ms.p99": "ms", "client.lateness_ms.max": "ms",
    "client.achieved_frac": "fraction",
    "ledger.unexplained_frac": "fraction", "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_split():
    """(work CPUs, generator CPUs). The work (index build, server, batch)
    runs on all CPUs but one; the serve workloads' generator stands in for
    clients on other machines and gets that one to itself. The batch
    workload leaves it idle: on a virtual machine whose CPU quota is below
    its CPU count, every CPU busy at once stalls in 10-20 ms slices (see
    README.md, Noise). With one CPU everything shares it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:-1], cpus[-1:]


def work_cpus():
    return cpu_split()[0]


# --------------------------------------------------------------------------
# Build and run record


def build_dir(bench_dir=BENCH_DIR):
    """The build tree of the checkout whose perfbench/ is `bench_dir`. CMake
    keeps the source path it was configured with, so two checkouts sharing
    one CARGO_TARGET_DIR must not share a tree: each gets its own."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    tag = hashlib.sha256(str(bench_dir).encode()).hexdigest()[:16]
    return target / "perfbench" / tag


def build():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    binary = out / "perfbench"
    info = json.loads(subprocess.run([str(binary), "info"], check=True,
                                     capture_output=True, text=True).stdout)
    if info["build_type"] != "Release":
        raise BenchError(f"refusing a {info['build_type']} build")
    return binary, info


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_times():
    """Aggregate /proc/stat CPU ticks: (busy, steal, total)."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    total = sum(fields[:8])
    return total - idle - steal, steal, total


def run_record(args, info, workload):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "work_cpus": cpu_split()[0], "generator_cpus": cpu_split()[1],
        "hardware_threads": info["hardware_threads"],
        "build_type": info["build_type"], "git_commit": git_commit(),
        "source_sha256": source_digest(), "engine": ENGINE,
        "workload_params": workload,
    }


# --------------------------------------------------------------------------
# Process plumbing


class Procs:
    """Every process the run starts; all are stopped and reaped at exit."""

    def __init__(self, binary, workdir):
        self.binary = binary
        self.workdir = workdir
        self.live = []

    def flags(self, **kw):
        out = []
        for key, value in kw.items():
            out += ["--" + key.replace("_", "-"), str(value)]
        return out

    def popen(self, cmd, cpus, **kw):
        """Starts `cmd`, pinned to `cpus` (None: this process's CPUs)."""
        if cpus is not None:
            cmd = cmd + ["--cpus", ",".join(map(str, cpus))]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=self.workdir, **kw)
        self.live.append(proc)
        return proc

    def run(self, role, timeout=170, cpus=None, **kw):
        """Runs a role to completion; returns its stdout JSON lines."""
        proc = self.popen([str(self.binary), role] + self.flags(**kw), cpus)
        try:
            out, _ = proc.communicate(timeout=timeout)
        finally:
            self.reap(proc)
        if proc.returncode != 0:
            raise BenchError(f"{role} exited with {proc.returncode}")
        return [json.loads(line) for line in out.splitlines() if line.strip()]

    def reap(self, proc):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self):
        for proc in list(self.live):
            self.reap(proc)


class Server:
    """A `perfbench serve` process driven over its stdin/stdout."""

    def __init__(self, procs, cpus, **kw):
        self.procs = procs
        cmd = [str(procs.binary), "serve"] + procs.flags(**kw)
        self.spawn_ns = time.monotonic_ns()
        self.proc = procs.popen(cmd, cpus, stdin=subprocess.PIPE)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        ready = self._next(120)
        if not ready.startswith("READY "):
            raise BenchError(f"server did not start: {ready!r}")
        self.ready = json.loads(ready[6:])

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _next(self, timeout):
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError("server stopped answering") from None
        if line is None:
            raise BenchError("server exited early")
        return line

    def command(self, text, timeout=120):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return json.loads(self._next(timeout))

    def quit(self):
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        final = json.loads(self._next(60))
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.reader.join(timeout=10)
        self.procs.reap(self.proc)
        return final


# --------------------------------------------------------------------------
# Statistics helpers


def quantile(values, q):
    """Nearest-rank quantile, as the C++ roles compute it; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def tail_samples(count, q=0.99):
    """Samples beyond the nearest-rank q-quantile of `count` samples."""
    return count - 1 - min(count - 1, int(q * count))


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered, cursor = 0, start
        for child in sorted(children.get(span["id"], []),
                            key=lambda s: s["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = max(0, end - start - covered)
    return out


# --------------------------------------------------------------------------
# Serve workloads


def graph_flags(w):
    return {"model": w["model"], "n": w["n"], "degree": w["degree"],
            "gamma": w["gamma"], "graph_seed": w["graph_seed"]}


def engine_flags():
    return {"c": ENGINE["c"], "eps": ENGINE["eps"],
            "engine_seed": ENGINE["engine_seed"],
            "engine_threads": len(work_cpus()),
            "k": ENGINE["k"]}


def stream_flags(w, seed):
    return {"stream_seed": seed, "zipf_s": w["zipf_s"]}


def load_flags(w, seed, port):
    # One thread per connection, so a stall of one thread delays only one
    # connection's sends.
    return dict(port=port, n=w["n"], k=ENGINE["k"], conns=nproc(),
                cpus=cpu_split()[1], **stream_flags(w, seed))


def server_threads(w):
    """Service workers: one per work CPU unsharded, else per shard."""
    return w["threads"] or len(work_cpus())


def serve_setup(procs, w, seed, trace, refs):
    """One full set-up: prep, server start, warm-up. Returns (server,
    prep record, seconds spent in set-up)."""
    begin = time.monotonic_ns()
    prep = procs.run("prep", cpus=work_cpus(), dir=procs.workdir,
                     shards=w["shards"],
                     trace=int(trace), refs=32 if refs else 0,
                     refs_offset=w["warmup"], refs_stride=REF_STRIDE,
                     **graph_flags(w), **engine_flags(),
                     **stream_flags(w, seed))[-1]
    spent = prep["artifacts_done_ns"] - begin
    server = Server(procs, work_cpus(), dir=procs.workdir,
                    shards=w["shards"], threads=server_threads(w),
                    cache_mb=w["cache_mb"],
                    trace=int(trace), **engine_flags())
    warm = procs.run("load", plan="warmup", warmup=w["warmup"],
                     **load_flags(w, seed, server.ready["port"]))
    spent += time.monotonic_ns() - server.spawn_ns
    if warm[-1]["transport_ok"] != 1 or warm[0]["failed"] != 0:
        raise BenchError("warm-up requests failed")
    return server, prep, spent / 1e9


def phase_lines(lines, name):
    """The named phase lines; latencies the generator could not bound (more
    failed requests than the quantile allows) read as infinite."""
    out = [dict(line) for line in lines if line.get("phase") == name]
    for line in out:
        for key, value in line.items():
            if value is None:
                line[key] = math.inf
    return out


def run_serve(procs, args, w, record):
    seed = args.seed
    setups = []
    server = prep = None
    for rep in range(w["setups"]):
        if server is not None:
            server.quit()
        last = rep == w["setups"] - 1
        server, prep, spent = serve_setup(procs, w, seed, args.trace, last)
        setups.append(spent)
    record["setup_s_all"] = setups
    record["graph"] = {"n": prep["n"], "m": prep["m"]}
    port = server.ready["port"]
    common = dict(offset=w["warmup"], refs="refs.bin",
                  **load_flags(w, seed, port))
    if not args.trace:
        # One closed-loop phase of --seconds that keeps the server busy (see
        # README.md, Noise, for why the untraced run measures no open loop).
        lines = procs.run("load", plan="saturate", saturate_s=args.seconds,
                          **common)
        stats = server.quit()
        accuracy = procs.run("accuracy", cpus=work_cpus(), gt_n=w["gt_n"],
                             gt_sources=w["gt_sources"],
                             gt_stream_seed=GT["stream_seed"],
                             **graph_flags(w), **engine_flags())[-1]
        return serve_metrics(lines, stats, accuracy, setups, record)
    return serve_traced(procs, server, prep, common, w,
                        args.seconds * TRACE_WINDOW, record)


def serve_gate(lines, record):
    """Sums the gate counts of every generator process in `lines`."""
    ends = phase_lines(lines, "end")
    gate = {key: sum(end[key] for end in ends)
            for key in ("ref_checked", "ref_mismatch")}
    gate["transport_ok"] = int(all(end["transport_ok"] == 1 for end in ends))
    record["gate"] = gate
    record["generator_nice"] = ends[0]["nice"]
    return (gate["ref_mismatch"] == 0 and gate["ref_checked"] > 0
            and gate["transport_ok"] == 1)


def serve_metrics(lines, stats, accuracy, setups, record):
    saturate = phase_lines(lines, "saturate")[0]
    attempted, failed = saturate["requests"], saturate["failed"]
    record["phases"] = [saturate]
    record["in_flight"] = saturate["window"] * nproc()
    record["accuracy"] = accuracy
    record["server_stats"] = stats
    correct = (serve_gate(lines, record) and accuracy_ok(accuracy)
               and failed == 0)
    metrics = {
        "setup_s": statistics.median(setups),
        "saturated_qps": saturate["achieved_qps"],
        "answered_frac": (attempted - failed) / attempted,
        "max_error": accuracy["max_error"],
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    return correct, attempted, failed, metrics


def accuracy_ok(accuracy):
    return accuracy["max_error"] <= accuracy["error_bound"]


def read_lines(path):
    with open(path) as handle:
        return [line.split() for line in handle if line.strip()]


def serve_traced(procs, server, prep, common, w, seconds, record):
    """Three nominal windows on one server: untraced, traced, untraced.
    Spans from the generator and the server are joined by request id."""
    workdir = procs.workdir

    def window(**kw):
        lines = procs.run("load", plan="nominal", nominal_qps=w["nominal_qps"],
                          nominal_s=seconds, **dict(common, **kw))
        common["offset"] = phase_lines(lines, "end")[0]["next_offset"]
        return lines

    untraced = window()
    before = server.command("stats")
    server.command("trace on")
    traced = window(record=str(workdir / "client.txt"))
    server.command("trace off")
    after = server.command("stats")
    # Untraced again, so drift between windows cancels in the overhead.
    untraced_after = window()
    server.command("spans " + str(workdir / "server.txt"))
    probes = []
    if w["shards"]:
        server.command("probe " + str(workdir / "probe.txt"))
        probes = [(int(p[3]) - int(p[2])) / 1e6
                  for p in read_lines(workdir / "probe.txt")]
    ladder = procs.run("load", plan="ladder", ladder_start=w["ladder_start"],
                       ladder_step_s=w["ladder_step_s"],
                       ladder_max_steps=w["ladder_max_steps"], **common)
    server.quit()

    client = {int(c[1]): c for c in read_lines(workdir / "client.txt")}
    rows = read_lines(workdir / "server.txt")
    submits = {int(s[1]): s for s in rows if s[0] == "S"}
    engine_by_source = {}
    for e in rows:
        if e[0] == "E":
            engine_by_source.setdefault(int(e[1]), []).append(
                (int(e[2]), int(e[3])))

    spans, next_id = [], 0

    def span(name, start, end, parent, request):
        nonlocal next_id
        spans.append({"id": next_id, "name": name, "start_ns": start,
                      "end_ns": end, "parent": parent, "request": request})
        next_id += 1
        return next_id - 1

    engine_ms, submit_us, resolve_ms, queue_ms, transport_ms = [], [], [], [], []
    engine_total_ns = 0
    engine_runs = 0
    for rid, c in client.items():
        sched, recv, ok = int(c[3]), int(c[5]), c[6] == "1"
        s = submits.get(rid)
        if not ok or s is None:
            continue
        root = span("client.request", sched, recv, None, rid)
        start, end, latency = int(s[4]), int(s[5]), int(s[6])
        # A cache hit is resolved when Submit() returns; the service's own
        # latency_seconds for a hit is taken before its top-k copy.
        request = span("service.request", start, max(start + latency, end),
                       root, rid)
        span("service.submit", start, end, request, rid)
        engine_ns = 0
        for q0, q1 in engine_by_source.get(int(s[2]), []):
            if start <= q0 and q1 <= start + latency + 1_000_000:
                span("engine.query", q0, q1, request, rid)
                engine_ns = q1 - q0
                break
        if int(s[7]) > 0:
            engine_runs += 1
            if engine_ns:
                engine_ms.append(engine_ns / 1e6)
                engine_total_ns += engine_ns
        submit_us.append((end - start) / 1e3)
        resolve_ms.append(latency / 1e6)
        queue_ms.append(max(0, latency - engine_ns) / 1e6)
        transport_ms.append((recv - sched - latency) / 1e6)

    selfs = self_times(spans)
    roots = [sp for sp in spans if sp["parent"] is None]
    mean_client = sum(sp["end_ns"] - sp["start_ns"] for sp in roots) / len(roots)
    mean_self = sum(selfs.values()) / len(roots)
    unexplained = 1.0 - mean_self / mean_client

    trace_dir = ROOT / ".bench_out" / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    span_file = trace_dir / f"{record['workload']}-seed{record['seed']}.jsonl"
    with open(span_file, "w") as handle:
        for sp in spans:
            handle.write(json.dumps(dict(sp, self_ns=selfs[sp["id"]])) + "\n")
    record["span_file"] = str(span_file.relative_to(ROOT))
    record["ledger_tolerance"] = LEDGER_TOLERANCE

    if probes:
        # Behind the router the engine is timed offline (see serve.cc).
        engine_ms = probes
        engine_total_ns = statistics.mean(probes) * 1e6 * engine_runs
    nominal_u = phase_lines(untraced, "nominal")[0]
    nominal_t = phase_lines(traced, "nominal")[0]
    nominal_u2 = phase_lines(untraced_after, "nominal")[0]
    knee_line = phase_lines(ladder, "knee")[0]
    untraced_p50 = (nominal_u["p50_ms"] + nominal_u2["p50_ms"]) / 2
    window_s = nominal_t["elapsed_s"]
    delta = {key: after[key] - before[key] for key in (
        "completed", "failed", "rejected", "shed", "deadline_exceeded",
        "cache_hits", "cache_misses", "cache_coalesced", "cache_evictions",
        "net_requests", "net_protocol_errors")}
    cost = {key: after["cost"][key] - before["cost"][key]
            for key in after["cost"]}
    runs = max(1, engine_runs)
    unit = {"walks": prep["walk_ns"], "meeting_tests": prep["meet_ns"],
            "backward_increments": prep["backward_increment_ns"],
            "index_tuples_read": prep["tuple_ns"]}
    explained_ms = sum(cost[k] / runs * unit[k] for k in unit) / 1e6
    mean_engine_ms = statistics.mean(engine_ms) if engine_ms else 0.0
    lookups = delta["cache_hits"] + delta["cache_misses"] + delta["cache_coalesced"]
    shard_counts = {}
    for s in submits.values():
        shard_counts[s[3]] = shard_counts.get(s[3], 0) + 1
    metrics = {
        "graph.gen_s": prep["gen_s"], "index.rpr_s": prep["rpr_s"],
        "index.backward_search_s": prep["backward_search_s"],
        "index.build_s": prep["build_s"],
        "index.parallel_eff": prep["parallel_eff"],
        "index.tuples": prep["index_tuples"], "index.bytes": prep["index_bytes"],
        "artifact.save_s": prep["save_s"],
        "artifact.load_s": server.ready["graph_load_s"] + server.ready["load_s"],
        "server.start_s": server.ready["start_s"],
        "engine.query_ms.p50": quantile(engine_ms, 0.5),
        "engine.query_ms.p99": quantile(engine_ms, 0.99),
        "engine.query_ms.n": len(engine_ms),
        "engine.walks": cost["walks"] / runs,
        "engine.meeting_tests": cost["meeting_tests"] / runs,
        "engine.backward_walks": cost["backward_walks"] / runs,
        "engine.backward_increments": cost["backward_increments"] / runs,
        "engine.index_tuples_read": cost["index_tuples_read"] / runs,
        "ppr.walk_ns": prep["walk_ns"], "ppr.meet_ns": prep["meet_ns"],
        "ppr.backward_increment_ns": prep["backward_increment_ns"],
        "index.tuple_ns": prep["tuple_ns"],
        "engine.explained_frac":
            explained_ms / mean_engine_ms if mean_engine_ms else 0.0,
        "service.submit_us.p50": quantile(submit_us, 0.5),
        "service.submit_us.p99": quantile(submit_us, 0.99),
        "service.resolve_ms.p50": quantile(resolve_ms, 0.5),
        "service.resolve_ms.p99": quantile(resolve_ms, 0.99),
        "service.resolve_ms.n": len(resolve_ms),
        "service.queue_wait_ms.p50": quantile(queue_ms, 0.5),
        "service.queue_wait_ms.p99": quantile(queue_ms, 0.99),
        "service.queue_high_water": after["queue_high_water"],
        "service.failed": delta["failed"],
        "service.refused": (delta["rejected"] + delta["shed"]
                            + delta["deadline_exceeded"]),
        "pool.busy_frac": engine_total_ns / 1e9 / (after["workers"] * window_s),
        "cache.hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "cache.coalesced": delta["cache_coalesced"],
        "cache.evictions": delta["cache_evictions"],
        "cache.bytes": after["cache_bytes"],
        "router.shard_max_share":
            max(shard_counts.values()) / len(submits) if submits else 0.0,
        "net.transport_ms.p50": quantile(transport_ms, 0.5),
        "net.transport_ms.p99": quantile(transport_ms, 0.99),
        "net.transport_ms.n": len(transport_ms),
        "net.encode_us": nominal_t["encode_us"],
        "net.decode_us": nominal_t["decode_us"],
        "net.requests": delta["net_requests"],
        "net.protocol_errors": delta["net_protocol_errors"],
        "client.latency_ms.p50": untraced_p50,
        "client.latency_ms.p95": nominal_u["p95_ms"],
        "client.latency_ms.p99": nominal_u["p99_ms"],
        "client.knee_qps": knee_line["knee_qps"],
        "client.lateness_ms.p99": nominal_u["lateness_p99_ms"],
        "client.lateness_ms.max": nominal_u["lateness_max_ms"],
        "client.achieved_frac": nominal_u["achieved_frac"],
        "ledger.unexplained_frac": unexplained,
        "trace.overhead_frac": nominal_t["p50_ms"] / untraced_p50 - 1,
    }
    record["phases"] = [nominal_u, nominal_t, nominal_u2]
    steps = phase_lines(ladder, "step")
    record["ladder"] = steps
    record["rates_offered"] = [p["offered_qps"] for p in
                               record["phases"] + steps]
    record["knee_limit_ms"] = knee_line["limit_ms"]
    record["p99_tail"] = tail_samples(nominal_u["requests"])
    record["prep"] = prep
    record["server_ready"] = server.ready
    record["engine_runs"] = engine_runs
    record["cost_delta"] = cost
    windows = record["phases"] + steps
    attempted = sum(p["requests"] for p in windows)
    failed = sum(p["failed"] for p in windows)
    correct = (serve_gate(untraced + traced + untraced_after + ladder, record)
               and failed == 0)
    if record["workload"] == "serve-uniform":
        correct = correct and abs(unexplained) <= LEDGER_TOLERANCE
    return correct, attempted, failed, metrics


# --------------------------------------------------------------------------
# Batch workload


def run_batch(procs, args, w, record):
    out = procs.run("batch", cpus=work_cpus(), dir=procs.workdir,
                    trace=args.trace,
                    setups=w["setups"], batch=w["batch"],
                    seconds=float(args.seconds), gt_n=w["gt_n"],
                    gt_sources=w["gt_sources"],
                    gt_stream_seed=GT["stream_seed"], **graph_flags(w),
                    **engine_flags(), stream_seed=args.seed)[-1]
    record["batch"] = out
    record["graph"] = {"n": out["n"], "m": out["m"]}
    record["threads"] = out["threads"]
    attempted, failed = out["attempted"], out["attempted"] - out["answered"]
    correct = (out["gate_mismatch"] == 0 and failed == 0
               and accuracy_ok(out))
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(out["setup_s"]),
            "saturated_qps": out["batch_qps"],
            "answered_frac": out["answered"] / out["attempted"],
            "max_error": out["max_error"], "peak_rss_mb": out["peak_rss_mb"],
        }
        return correct, attempted, failed, metrics
    layers = out["layers"]
    queries = out["attempted"]
    cost = out["cost"]
    unit = {"walks": layers["walk_ns"], "meeting_tests": layers["meet_ns"],
            "backward_increments": layers["backward_increment_ns"],
            "index_tuples_read": layers["tuple_ns"]}
    explained_ms = sum(cost[k] / queries * unit[k] for k in unit) / 1e6
    on_path = {
        "graph.gen_s": out["gen_s"], "index.rpr_s": layers["rpr_s"],
        "index.backward_search_s": layers["backward_search_s"],
        "index.build_s": out["build_s"],
        "index.parallel_eff": layers["parallel_eff"],
        "index.tuples": layers["index_tuples"],
        "index.bytes": layers["index_bytes"],
        "artifact.save_s": out["save_s"], "artifact.load_s": out["load_s"],
        "engine.query_ms.p50": layers["engine_p50_ms"],
        "engine.query_ms.p99": layers["engine_p99_ms"],
        "client.latency_ms.p50": out["p50_ms"],
        "client.latency_ms.p95": out["p95_ms"],
        "client.latency_ms.p99": out["p99_ms"],
        "engine.query_ms.n": layers["engine_n"],
        "engine.walks": cost["walks"] / queries,
        "engine.meeting_tests": cost["meeting_tests"] / queries,
        "engine.backward_walks": cost["backward_walks"] / queries,
        "engine.backward_increments": cost["backward_increments"] / queries,
        "engine.index_tuples_read": cost["index_tuples_read"] / queries,
        "ppr.walk_ns": layers["walk_ns"], "ppr.meet_ns": layers["meet_ns"],
        "ppr.backward_increment_ns": layers["backward_increment_ns"],
        "index.tuple_ns": layers["tuple_ns"],
        "engine.explained_frac": explained_ms / layers["engine_mean_ms"],
        "pool.busy_frac": layers["busy_frac"],
        "trace.overhead_frac": layers["traced_p50_ms"] / out["p50_ms"] - 1,
    }
    # The service, cache, router and network layers are not on this path.
    metrics = {name: on_path.get(name, 0.0) for name in PER_LAYER}
    record["not_on_path"] = sorted(set(PER_LAYER) - set(on_path))
    return correct, attempted, failed, metrics


# --------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long workload sizes (tests only)")
    args = parser.parse_args(argv)
    if args.seed < 1 or args.seconds < 1:
        parser.error("--seed and --seconds must be positive")

    workload = dict(WORKLOADS[args.workload], gt_n=GT["gt_n"],
                    gt_sources=GT["gt_sources"],
                    setups=1 if args.trace else SETUPS)
    if args.smoke:
        workload.update(SMOKE)
    workdir = ROOT / ".bench_out" / f"run-{args.workload}-{os.getpid()}"
    procs = None
    try:
        binary, info = build()
        record = run_record(args, info, workload)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        procs = Procs(binary, workdir)
        runner = run_serve if workload["kind"] == "serve" else run_batch
        ticks_before = cpu_times()
        correct, attempted, failed, metrics = runner(procs, args, workload,
                                                     record)
        # Host contention shows as steal: vCPU time the hypervisor gave to
        # someone else while this run wanted it.
        busy, steal, total = (b - a for a, b in zip(ticks_before, cpu_times()))
        record["cpu"] = {"busy_frac": busy / max(1, total),
                         "steal_frac": steal / max(1, total)}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError, ZeroDivisionError) as error:
        log(f"error: {error}")
        return 1
    finally:
        if procs is not None:
            procs.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        # A failed request is an infinite latency; JSON has no infinity, so
        # such a value (only possible with correct=false) prints as 1e300.
        "metrics": {name: {"value": min(float(metrics[name]), 1e300),
                           "unit": units[name]}
                    for name in units},
    }
    print(json.dumps({"record": record}), flush=True)
    print(json.dumps(result), flush=True)
    if not correct:
        log("correctness gate failed; see the record line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
