"""Simulation workloads: one timed request is a topology build plus one
``run()`` call.  Run as a worker process by ``run.py``::

    python3 perfbench/sim.py --workload coin-circulant --seed 1 \
        --seconds 20 --trace 0 --role main

The worker imports the program, builds its inputs from the seed, makes one
warm-up request, prints the ready line (the orchestrator times set-up up
to it) and, as ``--role probe``, exits at once.  As ``--role main`` it
then times requests for ``--seconds`` seconds of request time, checks
every output and prints one result line.  With ``--trace 1`` it times
every second request with spans around every layer.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import sys
from collections import Counter
from itertools import repeat
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spans as spanlib  # noqa: E402

#: Workload sizes (also listed in README.md).
CIRCULANT_N = 2**17
CIRCULANT_OFFSETS = (1, 2, 3)
CIRCULANT_STEPS = 8
CHURN_N = 2**13
CHURN_EXTRA_EDGES = 2  # random chords per node, on top of a ring
CHURN_REPLICAS = 16
CHURN_STEPS = 48
CHURN_EVENTS_PER_KIND = 16  # x4 kinds = 64 events
CYCLE_N = 2**16
CYCLE_STEPS = 24
#: Check-size instances compared with a second engine once per run.
CHECK_CIRCULANT_N = 2**10
CHECK_CHURN_N = 2**9
CHECK_CHURN_REPLICAS = (0, CHURN_REPLICAS - 1)


# ----------------------------------------------------------------------
# inputs (from the seed, by the benchmark's own code)
# ----------------------------------------------------------------------
def churn_inputs(seed: int, n: int):
    """Edge list (a ring plus ``CHURN_EXTRA_EDGES * n`` random chords,
    deduplicated) and 64 mixed down/up topology events over the run."""
    import numpy as np
    from repro.algorithms import election
    from repro.runtime.churn import TopologyEvent

    rng = np.random.default_rng([seed, n])
    idx = np.arange(n)
    chords = rng.integers(0, n, size=(CHURN_EXTRA_EDGES * n, 2))
    pairs = np.concatenate([np.stack([idx, (idx + 1) % n], 1), chords])
    pairs = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
    pairs = np.unique(pairs, axis=0)
    edges = [(int(u), int(v)) for u, v in pairs]

    k = CHURN_EVENTS_PER_KIND
    times = rng.integers(1, CHURN_STEPS, size=4 * k)
    events = []
    for t, v in zip(times[:k], rng.choice(n, k, replace=False)):
        events.append(TopologyEvent(int(t), "node-down", int(v)))
    for i, t in enumerate(times[k:2 * k]):
        partners = tuple(int(u) for u in rng.choice(n, 3, replace=False))
        events.append(TopologyEvent(
            int(t), "node-up", n + i, state=election.K_REMAIN0, edges=partners,
        ))
    for t, e in zip(times[2 * k:3 * k], rng.choice(len(edges), k, replace=False)):
        events.append(TopologyEvent(int(t), "edge-down", edges[int(e)]))
    present = set(edges)
    added = 0
    while added < k:
        u, v = sorted(int(x) for x in rng.integers(0, n, 2))
        if u != v and (u, v) not in present:
            present.add((u, v))
            events.append(TopologyEvent(int(times[3 * k + added]), "edge-up", (u, v)))
            added += 1
    return list(range(n)), edges, events


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
class Workload:
    """One simulation workload: inputs, the timed request and its checks."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.algorithms import election
        from repro.network import generators
        from repro.network.graph import Network
        from repro.network.symmetry import cyclic_rotation
        from repro.runtime import api
        from repro.runtime.churn import ChurnPlan

        self.name = name
        self.seed = seed
        self._election = election
        self._generators = generators
        self._Network = Network
        self._cyclic_rotation = cyclic_rotation
        self._api = api
        self._ChurnPlan = ChurnPlan
        self.programs = election.coin_kernel_programs()
        if name == "churn-replicas":
            self.nodes, self.edges, self.events = churn_inputs(seed, CHURN_N)
        elif name not in ("coin-circulant", "symmetric-cycle"):
            raise ValueError(f"unknown simulation workload {name!r}")

    def request(self, tracer=None, metrics=None):
        """One whole request: topology build, then ``run()``.  Returns
        ``(result, net)``.  ``tracer`` wraps the benchmark's own calls
        into the program in spans."""
        call = tracer.call if tracer is not None else _plain_call
        election, api = self._election, self._api
        if self.name == "coin-circulant":
            net = call("network.build", self._generators.circulant_graph,
                       CIRCULANT_N, CIRCULANT_OFFSETS)
            init = call("runtime.init_state", election.coin_kernel_init, net)
            result = call("runtime.run", api.run, self.programs, net, init,
                          until=CIRCULANT_STEPS, randomness=2, rng=self.seed,
                          metrics=metrics)
        elif self.name == "churn-replicas":
            net = call("network.build", self._Network, self.nodes, self.edges)
            init = call("runtime.init_state", election.coin_kernel_init, net)
            plan = self._ChurnPlan(self.events)
            result = call("runtime.run", api.run, self.programs, net, init,
                          until=CHURN_STEPS, randomness=2, rng=self.seed,
                          replicas=CHURN_REPLICAS, fault_plan=plan,
                          metrics=metrics)
        else:
            net = call("network.build", self._generators.cycle_graph, CYCLE_N)
            group = call("network.symmetry_group", self._cyclic_rotation, CYCLE_N)
            net.declare_symmetry(group)
            init = call("runtime.init_state", election.coin_kernel_init, net)
            result = call("runtime.run", api.run, self.programs, net, init,
                          engine="quotient", until=CYCLE_STEPS, randomness=2,
                          rng=self.seed, metrics=metrics)
        return result, net

    # -- output checks (outside the timed region) -----------------------
    def check(self, result, net) -> list[str]:
        """Problems with one request's output: counts must sum to the live
        node count and at least one candidate must remain, in every
        replica."""
        states = result.replica_states or [result.final_state]
        problems = []
        alive = len(net)
        candidates = (self._election.K_REMAIN0, self._election.K_REMAIN1)
        for r, state in enumerate(states):
            counts = Counter(state.values())
            if sum(counts.values()) != alive:
                problems.append(f"replica {r}: counts sum to "
                                f"{sum(counts.values())}, network has {alive}")
            if not any(counts.get(q, 0) for q in candidates):
                problems.append(f"replica {r}: no candidate remains")
        return problems

    def digest(self, result) -> str:
        """The benchmark's own digest of every final state (not the
        program's fingerprint, whose scheme may be re-versioned)."""
        import numpy as np

        election = self._election
        code = {election.K_REMAIN0: 0, election.K_REMAIN1: 1, election.K_OUT: 2}
        h = hashlib.sha256()
        for state in result.replica_states or [result.final_state]:
            nodes = np.fromiter(state.keys(), dtype=np.int64, count=len(state))
            codes = np.fromiter(map(code.get, state.values(), repeat(-1)),
                                dtype=np.int64, count=len(state))
            order = np.argsort(nodes, kind="stable")  # order-independent
            h.update(nodes[order].tobytes())
            h.update(codes[order].tobytes())
            h.update(b"|")
        return h.hexdigest()

    def cross_engine_check(self) -> list[str]:
        """Once per run: a check-size instance agrees bitwise with a second
        engine (the reference interpreter; for the quotient workload, the
        full-size vectorized engine under the per-orbit draw convention)."""
        import numpy as np
        from repro.runtime.quotient import OrbitBroadcastRng

        election, api = self._election, self._api
        programs = self.programs
        if self.name == "coin-circulant":
            results = []
            for engine in ("vectorized", "reference"):
                net = self._generators.circulant_graph(CHECK_CIRCULANT_N, CIRCULANT_OFFSETS)
                results.append(api.run(
                    programs, net, election.coin_kernel_init(net), engine=engine,
                    until=CIRCULANT_STEPS, randomness=2, rng=self.seed,
                ))
            pairs = [("vectorized vs reference", results[0].final_state, results[1].final_state)]
        elif self.name == "churn-replicas":
            nodes, edges, events = churn_inputs(self.seed, CHECK_CHURN_N)
            net = self._Network(nodes, edges)
            batched = api.run(
                programs, net, election.coin_kernel_init(net),
                until=CHURN_STEPS, randomness=2, rng=self.seed,
                replicas=CHURN_REPLICAS, fault_plan=self._ChurnPlan(events),
            )
            streams = np.random.default_rng(self.seed).spawn(CHURN_REPLICAS)
            pairs = []
            for r in CHECK_CHURN_REPLICAS:
                net = self._Network(nodes, edges)
                ref = api.run(
                    programs, net, election.coin_kernel_init(net), engine="reference",
                    until=CHURN_STEPS, randomness=2, rng=streams[r],
                    fault_plan=self._ChurnPlan(events),
                )
                pairs.append((f"batched replica {r} vs reference",
                               batched.replica_states[r], ref.final_state))
        else:
            quotient, _net = self.request()
            net = self._generators.cycle_graph(CYCLE_N)
            net.declare_symmetry(self._cyclic_rotation(CYCLE_N))
            full = api.run(
                programs, net, election.coin_kernel_init(net), engine="vectorized",
                until=CYCLE_STEPS, randomness=2,
                rng=OrbitBroadcastRng(net, np.random.default_rng(self.seed)),
            )
            pairs = [("quotient vs vectorized+OrbitBroadcastRng",
                      quotient.final_state, full.final_state)]
        return [f"{label}: final states differ"
                for label, a, b in pairs if dict(a) != dict(b)]


def _plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------
def timed_window(work: Workload, seconds: float, expected: str, *,
                 tracer=None, lowering_cache_info=None):
    """Time requests until ``seconds`` of request time have passed.

    Garbage from the previous request is collected before the clock
    starts, so each request pays for its own allocations only.  With a
    ``tracer``, every second request runs with the span wrappers installed
    (and a ``MetricsRegistry`` passed), so traced and untraced requests
    see the same host conditions.  Returns a list of per-request dicts.
    """
    from repro.runtime.telemetry import MetricsRegistry

    out = []
    spent = 0.0
    while spent < seconds or len(out) < 2:
        traced = tracer is not None and len(out) % 2 == 1
        gc.collect()
        metrics = None
        if traced:
            metrics = MetricsRegistry()
            first_span = len(tracer.spans)
            cache0 = lowering_cache_info()
            tracer.request_id = len(out)
            tracer.install(spanlib.SIM_TARGETS)
        try:
            t0 = perf_counter()
            result, net = work.request(tracer if traced else None, metrics)
            elapsed = perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        spent += elapsed
        problems = work.check(result, net)
        if work.digest(result) != expected:
            problems.append("final-state digest differs from the warm-up's")
        row = {"request_s": elapsed, "problems": problems, "traced": traced}
        if traced:
            cache1 = lowering_cache_info()
            row["spans"] = (first_span, len(tracer.spans))
            row["counters"] = dict(metrics.counters)
            row["cache"] = (cache1["hits"] - cache0["hits"],
                            cache1["misses"] - cache0["misses"])
        out.append(row)
        del result, net
    return out


def summarize_trace(tracer, rows, untraced) -> dict:
    """Per-layer metrics from the traced requests.

    Each layer's self time is averaged over the median band of traced
    requests (``common.median_band``), so the reported parts plus
    ``trace.unattributed_s`` add up to that band's request times, which
    sit at the median.
    """
    per_request = []
    for row in rows:
        a, b = row["spans"]
        self_s, calls, top = spanlib.self_times(tracer.spans[a:b], offset=a)
        self_s["trace.unattributed"] = row["request_s"] - top
        per_request.append((row["request_s"], self_s, calls, row["counters"]))
    band = common.median_band(per_request)
    names = sorted({n for _req, s, _c, _k in per_request for n in s})
    metrics: dict = {}
    for name in names:
        metric = "runtime.run_self_s" if name == "runtime.run" else f"{name}_s"
        metrics[metric] = sum(s.get(name, 0.0) for _req, s, _c, _k in band) / len(band)
    layer_sum = sum(metrics.values())
    # counts that must repeat exactly from request to request
    exact: dict = {}
    for name in ("network.to_csr", "network.symmetry_verify",
                 "network.orbit_partition", "telemetry.state_fingerprint"):
        exact[f"{name}_calls"] = [c.get(name, 0) for _req, _s, c, _k in per_request]
    for key in ("steps", "node_updates", "node_updates_lifted", "rng_draws",
                "churn_events"):
        exact[f"runtime.{key}"] = [k.get(key, 0) for _req, _s, _c, k in per_request]
    problems = [f"{name} varies between requests: {sorted(set(vals))}"
                for name, vals in exact.items() if len(set(vals)) != 1]
    for name, vals in exact.items():
        metrics[name] = vals[0]
    hits = sum(r["cache"][0] for r in rows)
    misses = sum(r["cache"][1] for r in rows)
    metrics["core.lowering_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    request = common.median([req for req, _s, _c, _k in per_request])
    metrics["trace.request_s"] = request
    metrics["trace.requests"] = len(rows)
    metrics["trace.untraced_request_p50_s"] = common.median([r["request_s"] for r in untraced])
    metrics["trace.overhead_ratio"] = request / metrics["trace.untraced_request_p50_s"]
    metrics["trace.reconcile_error"] = abs(layer_sum - request) / request
    return {"metrics": metrics, "problems": problems, "missing": tracer.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "main"), default="main")
    args = parser.parse_args(argv)

    common.use_program_sources()
    from repro.core.ir import lowering_cache_info

    work = Workload(args.workload, args.seed)
    result, net = work.request()
    expected = work.digest(result)
    warm_problems = work.check(result, net)
    del result, net
    common.emit(common.READY, {"pid": os.getpid()})
    if args.role == "probe":
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown: only set-up is measured

    out: dict = {"warmup_problems": warm_problems}
    if args.trace:
        tracer = spanlib.Tracer()
        rows = timed_window(work, args.seconds, expected, tracer=tracer,
                            lowering_cache_info=lowering_cache_info)
        out["rows"] = [{"request_s": r["request_s"], "problems": r["problems"]}
                       for r in rows]
        out["trace"] = summarize_trace(
            tracer, [r for r in rows if r["traced"]], [r for r in rows if not r["traced"]])
        common.WORK_DIR.mkdir(exist_ok=True)
        span_file = common.WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(span_file)
        out["span_file"] = str(span_file)
    else:
        out["rows"] = timed_window(work, args.seconds, expected)
    out["peak_rss_mb"] = common.peak_rss_mb_self()
    out["cross_engine_problems"] = work.cross_engine_check()
    common.emit(common.RESULT, out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
