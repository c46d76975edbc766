"""The ``gossip-serve`` workload: ``python -m repro serve`` under a closed
loop of one caller sending Mosk-Aoyama–Shah gossip jobs.

The client is the benchmark's own minimal HTTP/1.1 client (one TCP
connection per request, as the server closes after each answer).  Each
caller walks its own payload sequence, derived from the seed: in every
block of five submissions one repeats a payload that caller has already
had answered, so the repeat share is exactly one in five and each repeat
is answered from the store.

One caller, not one per CPU: with two, the client, the server and both
pool workers saturate both CPUs of a 2-CPU host, and CPU queueing
amplified host-speed swings into a 14-42% run-to-run spread of the upper
quartile latency, against 6% with one caller.  One pool worker: with one
caller at most one job is in flight, and a second worker was spawned only
when a new job raced the pool's idle-worker accounting, which changed
memory and latency from run to run.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import common

JOB = "repro.service.workload.gossip_sum_job"
GOSSIP_N = 24
GOSSIP_K = 8
CALLERS = 1
WORKERS = 1
REPEAT_EVERY = 5
#: Warm-up jobs during set-up.
WARMUP_JOBS = 3
SETUP_SAMPLES = 3
HERE = Path(__file__).resolve().parent


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def payload_body(campaign: str, seed_index: int, entropy: int) -> bytes:
    return json.dumps({
        "campaign": campaign, "job": JOB,
        "params": {"n": GOSSIP_N, "k": GOSSIP_K},
        "seed_index": seed_index, "index": 0, "entropy": entropy,
    }, sort_keys=True).encode("utf-8")


class PayloadSequence:
    """One caller's submissions: ``(key, body, is_repeat)`` in order.

    Fresh payload ``j`` of caller ``c`` has seed index ``j * CALLERS + c``,
    so callers never share a payload.  Block
    ``b`` of five submissions holds exactly one repeat, at a seeded slot
    (never the very first submission), of a seeded earlier fresh payload.
    """

    def __init__(self, seed: int, conn: int, campaign: str) -> None:
        import random

        self._rng = random.Random(f"{seed}-{conn}")
        self.conn = conn
        self.seed = seed
        self.campaign = campaign
        self.fresh: list[int] = []
        self._block: list = []

    def __next__(self):
        if not self._block:
            first = not self.fresh
            slot = self._rng.randrange(1 if first else 0, REPEAT_EVERY)
            self._block = [i == slot for i in range(REPEAT_EVERY)]
        is_repeat = self._block.pop(0)
        if is_repeat:
            key = self._rng.choice(self.fresh)
        else:
            key = len(self.fresh) * CALLERS + self.conn
            self.fresh.append(key)
        return key, payload_body(self.campaign, key, self.seed), is_repeat


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
def http(port: int, method: str, path: str, body: bytes = b"",
         timeout: float = 60.0) -> tuple[int, dict, bytes]:
    """One request on a fresh connection; returns ``(status, headers, body)``."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    head_bytes, _, payload = data.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


def closed_loop(port: int, sequences, seconds: float) -> tuple[list, float, float]:
    """Drive one thread per sequence until ``seconds`` have passed.

    Requests started before the deadline all complete and count.  Returns
    ``(rows, window_start, window_end)`` with one row per request.
    """
    rows: list = []
    errors: list = []
    start = perf_counter()
    deadline = start + seconds

    def loop(seq):
        mine = []
        try:
            while perf_counter() < deadline:
                key, body, is_repeat = next(seq)
                t0 = perf_counter()
                status, headers, payload = http(port, "POST", "/jobs?wait=1", body)
                t1 = perf_counter()
                mine.append({
                    "conn": seq.conn, "key": key, "repeat": is_repeat,
                    "start": t0, "end": t1, "status": status,
                    "outcome": headers.get("x-repro-outcome"), "body": payload,
                })
        except OSError as exc:
            errors.append(f"caller {seq.conn}: {exc!r}")
        rows.extend(mine)

    threads = [threading.Thread(target=loop, args=(s,)) for s in sequences]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = max((r["end"] for r in rows), default=perf_counter())
    if errors:
        raise RuntimeError("; ".join(errors))
    return rows, start, end


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` process on a fresh store, started and warmed."""

    def __init__(self, tag: str, traced: bool) -> None:
        self.store = common.WORK_DIR / f"store-{os.getpid()}-{tag}"
        shutil.rmtree(self.store, ignore_errors=True)
        self.span_file = common.WORK_DIR / f"service-spans-{os.getpid()}-{tag}.jsonl"
        self.pids: list[int] = []
        self.log_path = common.WORK_DIR / f"server-{os.getpid()}-{tag}.log"
        serve_args = ["--store", str(self.store), "--port", "0",
                      "--workers", str(WORKERS)]
        if traced:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--spans-out", str(self.span_file), "--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        # the server's stderr goes to a log, shown only when it fails to start
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                env=common.program_env(), start_new_session=True,
            )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}\n"
                                   + self.log_path.read_text(encoding="utf-8")[-2000:])
        except BaseException:
            self.stop()
            self.cleanup()
            raise
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = perf_counter() + timeout
        while True:
            try:
                status, _h, body = http(self.port, "GET", "/healthz")
                if status == 200 and json.loads(body).get("ok"):
                    return
            except OSError:
                pass
            if perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def warm(self, seed: int) -> None:
        """Fresh warm-up jobs, outside the timed campaign, so the pool
        worker has been spawned and has imported and run the job."""
        statuses = [
            http(self.port, "POST", "/jobs?wait=1",
                 payload_body(f"perfbench-warmup-{seed}", i, seed))[0]
            for i in range(WARMUP_JOBS)
        ]
        if statuses != [200] * WARMUP_JOBS:
            raise RuntimeError(f"warm-up jobs answered {statuses}")

    def metrics(self) -> dict:
        status, _h, body = http(self.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its pool workers (all descendants)."""
        self.pids = common.descendants(self.proc.pid)
        return sum(common.vm_hwm_mb(p) for p in [self.proc.pid, *self.pids])

    def stop(self) -> None:
        """SIGINT (clean shutdown, spans written), then make sure every
        process of the server's session has ended."""
        pids = self.pids or common.descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = perf_counter() + 10
        while any(os.path.exists(f"/proc/{p}") for p in pids):
            if perf_counter() > deadline:
                break
            time.sleep(0.01)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        self.span_file.unlink(missing_ok=True)
        self.log_path.unlink(missing_ok=True)


def start_server(tag: str, seed: int, traced: bool = False) -> tuple[Server, float]:
    """Spawn, wait for ``/healthz``, warm the pool; returns the server and
    the set-up time from spawn to ready."""
    t0 = perf_counter()
    server = Server(tag, traced)
    try:
        server.wait_healthy()
        server.warm(seed)
    except BaseException:
        server.stop()
        server.cleanup()
        raise
    return server, perf_counter() - t0


# ----------------------------------------------------------------------
# one measured window and its checks
# ----------------------------------------------------------------------
def measure(server: Server, seed: int, seconds: float) -> dict:
    before = server.metrics()
    sequences = [PayloadSequence(seed, c, f"perfbench-{seed}") for c in range(CALLERS)]
    rows, start, end = closed_loop(server.port, sequences, seconds)
    after = server.metrics()
    rss = server.peak_rss_mb()
    return {"rows": rows, "start": start, "end": end, "rss": rss,
            "counters": _delta(before, after)}


def _delta(before: dict, after: dict) -> dict:
    b, a = before.get("counters", {}), after.get("counters", {})
    return {k: a.get(k, 0) - b.get(k, 0) for k in set(a) | set(b)}


def check(window: dict, store_dir: Path) -> tuple[int, list[str]]:
    """Returns ``(failed requests, problems)``.  A request fails unless it
    got a 200 and, when executed, a converged result with ``true_sum`` in
    [n, 2n], or, when repeated, a body byte-identical to the first answer.
    The window fails unless the server's dedupe counters equal the repeat
    share and the store verifies clean with exactly one record per fresh
    payload."""
    from repro.campaigns.store import ArtifactStore

    problems = []
    failed = 0
    first: dict = {}
    fresh_hashes = set()
    rows = window["rows"]
    for row in sorted(rows, key=lambda r: r["start"]):
        problem = None
        if row["status"] != 200:
            problem = f"status {row['status']}"
        elif row["repeat"]:
            if row["body"] != first.get(row["key"]):
                problem = "repeat body differs from the first answer"
        else:
            first[row["key"]] = row["body"]
            record = json.loads(row["body"])
            result = record.get("result", {})
            fresh_hashes.add(record.get("job_hash"))
            if record.get("status") != "ok" or not result.get("converged"):
                problem = f"not converged (status {record.get('status')})"
            elif not GOSSIP_N <= result.get("true_sum", -1) <= 2 * GOSSIP_N:
                problem = (f"true_sum {result.get('true_sum')} outside "
                           f"[{GOSSIP_N}, {2 * GOSSIP_N}]")
        if problem is not None:
            failed += 1
            if len(problems) < 5:
                problems.append(f"job {row['key']}: {problem}")
    repeats = sum(1 for r in rows if r["repeat"])
    c = window["counters"]
    deduped = c.get("cache_hits", 0) + c.get("inflight_dedups", 0)
    if c.get("jobs_submitted", 0) != len(rows) or deduped != repeats:
        problems.append(
            f"server counted {c.get('jobs_submitted', 0)} submissions and "
            f"{deduped} dedupes; the client sent {len(rows)} with {repeats} repeats")
    store = ArtifactStore(store_dir)
    bad = store.verify()
    if bad:
        problems.append(f"store verify found {len(bad)} corrupted artifacts")
    counts: dict = {}
    for rec in store.iter_records():
        counts[rec.get("job_hash")] = counts.get(rec.get("job_hash"), 0) + 1
    fresh_counts = [counts.get(h, 0) for h in fresh_hashes]
    if (any(v != 1 for v in fresh_counts)
            or sum(counts.values()) != len(fresh_hashes) + WARMUP_JOBS):
        problems.append(
            f"store holds {sum(counts.values())} records; expected one per "
            f"each of {len(fresh_hashes)} fresh payloads plus {WARMUP_JOBS} warm-up jobs")
    return failed, problems


def latency_stats(rows) -> dict:
    lat = [r["end"] - r["start"] for r in rows]
    executed = [r["end"] - r["start"] for r in rows if r["outcome"] == "accepted"]
    cached = [r["end"] - r["start"] for r in rows if r["outcome"] == "cached"]
    return {
        "p50": common.median(lat),
        "p99": common.percentile(lat, 99),
        "executed_p50": common.median(executed) if executed else 0.0,
        "cached_p50": common.median(cached) if cached else 0.0,
        "count": len(lat),
    }


def service_layers(rows, span_file: Path) -> tuple[dict, list]:
    """Server-side spans matched to client requests by job hash and time.

    Per-layer times describe the executed requests (outcome ``accepted``),
    the path every layer is on; cached repeats are summarized by their own
    latency median.  ``service.http_self_s`` is the client latency the
    server-side spans do not cover.  Latencies are skewed, so medians of
    the parts do not add up to the median of the whole: each part is
    instead averaged over the median band of executed requests.  Returns
    ``(per-layer metrics, wrapped targets that were not found)``.
    """
    by_hash: dict = {}
    missing = []
    with open(span_file, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] == "missing":
                missing = span["targets"]
                continue
            by_hash.setdefault(span["request"], []).append(span)
    names = ("service.submit_s", "campaigns.dispatch_s", "campaigns.execute_s",
             "campaigns.store_append_s", "service.http_self_s")
    breakdown = []
    for row in rows:
        if row["outcome"] != "accepted":
            continue
        job_hash = json.loads(row["body"]).get("job_hash")
        spent = dict.fromkeys(names, 0.0)
        for s in by_hash.get(job_hash, ()):
            if not row["start"] <= s["start"] <= row["end"]:
                continue
            dur = s["end"] - s["start"]
            if s["name"] == "service.submit":
                spent["service.submit_s"] += dur
            elif s["name"] == "campaigns.execute_job_async":
                execute = s.get("execute_s") or 0.0
                spent["campaigns.execute_s"] += execute
                spent["campaigns.dispatch_s"] += dur - execute
            elif s["name"] == "campaigns.store_append":
                spent["campaigns.store_append_s"] += dur
        latency = row["end"] - row["start"]
        spent["service.http_self_s"] = latency - sum(spent.values())
        breakdown.append((latency, spent))
    band = common.median_band(breakdown)
    out = {k: sum(spent[k] for _lat, spent in band) / len(band) for k in names}
    request = common.median([lat for lat, _spent in breakdown])
    out["trace.request_s"] = request
    out["trace.unattributed_s"] = out["service.http_self_s"]
    out["trace.requests"] = len(breakdown)
    out["trace.reconcile_error"] = abs(sum(out[k] for k in names) - request) / request
    return out, missing


def run(seed: int, seconds: float, trace: bool) -> dict:
    """The whole workload; returns what ``run.py`` reports."""
    common.use_program_sources()
    common.WORK_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    out: dict = {"problems": problems}
    servers: list[Server] = []
    try:
        if not trace:
            setups = []
            for i in range(SETUP_SAMPLES):
                server, took = start_server(f"setup{i}", seed)
                servers.append(server)
                setups.append(took)
                if i < SETUP_SAMPLES - 1:
                    server.stop()
                    server.cleanup()
                    servers.remove(server)
            window = measure(server, seed, seconds)
            server.stop()
            failed, found = check(window, server.store)
            problems.extend(found)
            stats = latency_stats(window["rows"])
            out.update({
                "setup_samples": setups,
                "times": [r["end"] - r["start"] for r in window["rows"]],
                "request_statistic": "median",
                "peak_rss_mb": window["rss"],
                "attempted": stats["count"],
                "failed": failed,
            })
            return out

        half = seconds / 2
        server, _took = start_server("untraced", seed)
        servers.append(server)
        plain = measure(server, seed, half)
        server.stop()
        failed_plain, found = check(plain, server.store)
        problems.extend(found)
        server, _took = start_server("traced", seed, traced=True)
        servers.append(server)
        traced = measure(server, seed, half)
        server.stop()
        failed_traced, found = check(traced, server.store)
        problems.extend(found)
        stats = latency_stats(plain["rows"])
        layers, missing = service_layers(traced["rows"], server.span_file)
        c = traced["counters"]
        submitted = c.get("jobs_submitted", 0)
        out["per_layer"] = {
            **layers,
            "campaigns.pool_rebuilds": c.get("pool_rebuilds", 0),
            "service.executed_latency_p50_s": stats["executed_p50"],
            "service.cached_latency_p50_s": stats["cached_p50"],
            "service.latency_p99_s": stats["p99"],
            "service.dedupe_ratio": (c.get("cache_hits", 0) + c.get("inflight_dedups", 0))
            / submitted if submitted else 0.0,
            "service.rejections": c.get("quota_rejections", 0)
            + c.get("backpressure_rejections", 0),
            "service.jobs_per_s": stats["count"] / (plain["end"] - plain["start"]),
            "trace.untraced_request_p50_s": stats["p50"],
            "trace.overhead_ratio": latency_stats(traced["rows"])["p50"] / stats["p50"],
        }
        out["missing_targets"] = missing
        rows = plain["rows"] + traced["rows"]
        out["attempted"] = len(rows)
        out["failed"] = failed_plain + failed_traced
        return out
    finally:
        for server in servers:
            server.stop()
            server.cleanup()
