"""Outside-in spans: wrappers around the program's public entry points.

The traced run patches each target where its caller looks it up (a class
attribute for methods and properties, the importing module's global for
functions imported by name), records one span per call and restores the
originals afterwards.  Spans are kept in memory as tuples
``(name, start, end, parent, request_id)`` and written out at the end.

A target that no longer exists is skipped and listed in
:attr:`Tracer.missing`, so a refactor that removes or stops calling it
reports zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

#: Simulation-layer targets: ``(span name, module, attribute path, kind)``.
#: ``kind`` is ``"call"`` for functions and methods, ``"property"`` for
#: properties.  Span names are the per-layer metric names without ``_s``.
SIM_TARGETS = (
    ("network.to_csr", "repro.network.graph", "Network.to_csr", "call"),
    ("network.declare_symmetry", "repro.network.graph", "Network.declare_symmetry", "call"),
    ("network.orbit_partition", "repro.network.graph", "Network.orbit_partition", "call"),
    ("network.symmetry_verify", "repro.network.symmetry", "AutomorphismGroup.verify", "call"),
    ("telemetry.capture_manifest", "repro.runtime.api", "capture_manifest", "call"),
    ("telemetry.finalize", "repro.runtime.telemetry", "RunManifest.finalize", "call"),
    ("telemetry.state_fingerprint", "repro.runtime.telemetry", "state_fingerprint", "call"),
    ("runtime.engine_init", "repro.runtime.vectorized", "VectorizedSynchronousEngine.__init__", "call"),
    ("runtime.engine_init", "repro.runtime.batched", "BatchedSynchronousEngine.__init__", "call"),
    ("runtime.engine_init", "repro.runtime.quotient", "QuotientSynchronousEngine.__init__", "call"),
    ("runtime.step", "repro.runtime.vectorized", "VectorizedSynchronousEngine.step", "call"),
    ("runtime.step", "repro.runtime.batched", "BatchedSynchronousEngine.step", "call"),
    ("runtime.step", "repro.runtime.quotient", "QuotientSynchronousEngine.step", "call"),
    ("runtime.state_decode", "repro.runtime.vectorized", "VectorizedSynchronousEngine.state", "property"),
    ("runtime.state_decode", "repro.runtime.quotient", "QuotientSynchronousEngine.state", "property"),
    ("runtime.state_decode", "repro.runtime.batched", "BatchedSynchronousEngine.states", "property"),
    ("runtime.state_decode", "repro.runtime.batched", "BatchedSynchronousEngine.replica_state", "call"),
    ("runtime.backend_counts", "repro.runtime.backends.numpy_backend", "NumpyBackend.neighbour_counts", "call"),
    ("runtime.backend_transition", "repro.runtime.backends.numpy_backend", "NumpyBackend.transition", "call"),
    ("runtime.backend_draw", "repro.runtime.backends.base", "ArrayBackend.draw", "call"),
    ("runtime.churn_apply", "repro.runtime.churn", "ChurnPlan.apply_due", "call"),
)


class Tracer:
    """In-memory span recorder with a parent stack (one thread)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.request_id = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording -----------------------------------------------------
    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request_id)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (for the benchmark's own call sites)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------
    def install(self, targets) -> None:
        self.missing = []
        for name, module, path, kind in targets:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                # the raw attribute, so properties and methods are seen as
                # defined (inherited ones are patched on this class too)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            if kind == "property":
                if not isinstance(original, property):
                    self.missing.append(f"{module}.{path}")
                    continue
                patched = property(self.wrap(name, original.fget))
            else:
                patched = self.wrap(name, getattr(owner, attr))
            had_own = attr in vars(owner)
            setattr(owner, attr, patched)
            self._restore.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, t0, t1, parent, rid = span
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1,
                    "parent": parent, "request": rid,
                }) + "\n")


def self_times(spans, offset: int = 0) -> tuple[dict, dict, float]:
    """Per-name self time and call count of one request's spans.

    ``spans`` is the slice of :attr:`Tracer.spans` starting at index
    ``offset`` that one request recorded; ``parent`` fields index the full
    list (``-1`` for top level).  Returns ``(self_s, calls, top_level_s)``:
    a span's self time is its duration minus its direct children's
    durations, so the self times of a tree sum to its root.
    """
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, t0, t1, parent, _rid in spans:
        if parent >= 0:
            child_time[parent - offset] += t1 - t0
        else:
            top += t1 - t0
    self_s: dict = {}
    calls: dict = {}
    for i, (name, t0, t1, _parent, _rid) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
    return self_s, calls, top


class ServiceTracer:
    """Flat spans for the serving stack, keyed by job hash.

    The server interleaves many jobs on one event loop and appends to the
    store from a thread pool, so spans carry the job hash as their request
    id instead of a parent stack; each recorded call is atomic under the
    interpreter lock.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list[str] = []

    def install(self) -> None:
        try:
            jobs = importlib.import_module("repro.service.jobs")
            store = importlib.import_module("repro.campaigns.store")
        except ImportError as exc:
            self.missing.append(str(exc))
            return
        spans = self.spans
        submit = getattr(getattr(jobs, "JobManager", None), "submit", None)
        if submit is not None:
            @functools.wraps(submit)
            def traced_submit(manager, payload, *args, **kwargs):
                t0 = perf_counter()
                sub = submit(manager, payload, *args, **kwargs)
                spans.append({
                    "name": "service.submit", "start": t0, "end": perf_counter(),
                    "request": getattr(sub, "job_hash", None),
                    "outcome": getattr(sub, "outcome", None),
                })
                return sub

            jobs.JobManager.submit = traced_submit
        else:
            self.missing.append("repro.service.jobs.JobManager.submit")

        execute = getattr(jobs, "execute_job_async", None)
        if execute is not None:
            @functools.wraps(execute)
            async def traced_execute(executor, payload, *args, **kwargs):
                t0 = perf_counter()
                record = await execute(executor, payload, *args, **kwargs)
                spans.append({
                    "name": "campaigns.execute_job_async", "start": t0,
                    "end": perf_counter(), "request": payload.get("job_hash"),
                    "execute_s": record.get("wall_time"),
                })
                return record

            jobs.execute_job_async = traced_execute
        else:
            self.missing.append("repro.service.jobs.execute_job_async")

        append = getattr(getattr(store, "ArtifactStore", None), "append", None)
        if append is not None:
            @functools.wraps(append)
            def traced_append(self_, record, *args, **kwargs):
                t0 = perf_counter()
                sealed = append(self_, record, *args, **kwargs)
                spans.append({
                    "name": "campaigns.store_append", "start": t0,
                    "end": perf_counter(), "request": record.get("job_hash"),
                })
                return sealed

            store.ArtifactStore.append = traced_append
        else:
            self.missing.append("repro.campaigns.store.ArtifactStore.append")

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"name": "missing", "targets": self.missing}) + "\n")
