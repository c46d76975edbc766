"""Minimal asyncio HTTP/1.1 + SSE front door (no frameworks).

The wire contract (see ``docs/model.md``, "Serving"):

``GET /healthz``
    ``200`` with ``{"ok":true,...}`` — liveness plus pool state
    (``ok``/``rebuilding``/``down``), the store's identity token (how a
    cluster operator confirms replicas really share one store), the
    replica id, and worker/inflight gauges.
``GET /metrics``
    ``200`` with the service :class:`~repro.runtime.telemetry.
    MetricsRegistry` snapshot plus live gauges.
``POST /jobs[?wait=1]``
    Body: a :meth:`~repro.campaigns.spec.JobSpec.payload`-shaped JSON
    object (``job_hash`` optional — the server recomputes it).  Tenant
    comes from the ``X-Tenant`` header.  Outcomes map to status codes:
    cached ``200``, accepted/deduplicated/lease_wait ``202`` (or ``200``
    with the sealed record when ``wait=1``), quota ``429``, backpressure
    ``503``.  ``lease_wait`` is cluster mode's sixth outcome: another
    replica holds the execution lease, and this replica's response waits
    on the shared store (taking the work over if the executor dies).
    The outcome is always in the ``X-Repro-Outcome`` response header,
    and every body holding a sealed record is its *canonical JSON* — so
    responses for one job are byte-identical whether the record was
    computed, deduplicated or served from the store.
``POST /campaigns[?wait=1]``
    Body: a :class:`~repro.campaigns.spec.CampaignSpec` JSON object.
    Expands server-side and submits every job; ``200`` with an
    admission summary (and per-outcome counts after completion when
    ``wait=1``).
``GET /jobs/<hash>``
    ``200`` canonical record, or ``404``.
``GET /jobs/<hash>/events``
    ``200`` ``text/event-stream``: one ``data:`` frame per typed event
    (the same JSONL encoding ``EventStream.dumps`` uses), closing after
    the terminal :class:`~repro.runtime.telemetry.JobEvent`.  In cluster
    mode the frames come from the job's shared event spool, so they
    include per-step
    :class:`~repro.runtime.telemetry.StepProgressEvent`\\ s and the
    stream works from replicas that are *not* executing the job.  Idle
    streams emit ``: keep-alive`` comment frames every
    ``sse_keepalive`` seconds (default 15) so intermediaries don't drop
    quiet subscribers.  A client disconnect mid-stream unsubscribes
    cleanly — it never cancels the job it was watching.

Error codes: ``400`` undecodable/invalid body or ``Content-Length`` or an
over-long request line, ``404`` unknown path or job, ``405`` wrong method,
``413`` oversized body, ``431`` more than :data:`MAX_HEADERS` headers or a
header line over 64 KiB.  A request head not complete within
:data:`HEAD_TIMEOUT` seconds is closed without an answer.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.campaigns.spec import CampaignSpec, canonical_json
from repro.runtime.telemetry import _EVENT_TAGS, _jsonable
from repro.service.jobs import JobManager

__all__ = ["ServiceConfig", "serve"]

MAX_BODY = 4 * 1024 * 1024  # a spec is small; anything bigger is abuse
#: Seconds a client gets to send the whole request head (request line and
#: headers); a head still unfinished then is dropped with a clean close.
HEAD_TIMEOUT = 10.0
#: Header lines accepted per request; a line longer than the stream
#: reader's limit (64 KiB) is refused the same way, with a 431.
MAX_HEADERS = 100
_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
#: Submission outcome → HTTP status (non-wait path).
_OUTCOME_STATUS = {
    "cached": 200,
    "accepted": 202,
    "deduplicated": 202,
    "lease_wait": 202,
    "quota_rejected": 429,
    "backpressure_rejected": 503,
}

#: JobSpec payload fields a client may send; everything else is rejected
#: rather than silently dropped (a typo must not change the job hash).
_JOB_FIELDS = {
    "campaign", "job", "params", "seed_index", "index", "entropy", "job_hash",
}


@dataclass
class ServiceConfig:
    """Knobs for one server; mirrors the ``repro serve`` CLI flags."""

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    queue_limit: int = 64
    quota_burst: Optional[float] = None
    quota_rate: float = 0.0
    retries: int = 0
    backoff: float = 0.05
    timeout: Optional[float] = None
    # cluster-mode knobs (replica_id None = single-process service)
    replica_id: Optional[str] = None
    lease_ttl: float = 10.0
    progress_stride: int = 1
    tenants: Optional[str] = None  # path to a TenantQuotaConfig file
    sse_keepalive: float = 15.0
    reuse_port: bool = False


def _event_line(event) -> str:
    """One typed event as its ``EventStream.dumps`` JSONL object."""
    obj = {"type": _EVENT_TAGS.get(type(event).__name__, type(event).__name__)}
    obj.update(_jsonable(event))
    return json.dumps(obj, default=repr)


class _BadRequest(Exception):
    """``(status, message)`` for a request answered before routing."""


async def _read_head(reader: asyncio.StreamReader):
    """The request line and headers; ``None`` on EOF/garbage.  An
    over-long line or too many headers raise :class:`_BadRequest`."""
    try:
        request_line = await reader.readline()
    except ValueError:  # the reader's line limit (LimitOverrunError)
        raise _BadRequest(400, "request line too long") from None
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        return None
    headers: dict[str, str] = {}
    lines = 0
    while True:
        try:
            line = await reader.readline()
        except ValueError:
            raise _BadRequest(431, "request header line too long") from None
        if line in (b"\r\n", b"\n", b""):
            break
        lines += 1  # lines, not names: a repeated name still costs a read
        if lines > MAX_HEADERS:
            raise _BadRequest(431, f"more than {MAX_HEADERS} request headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, target, headers


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request head + body; returns ``None`` on EOF/garbage or
    when the head is not complete within :data:`HEAD_TIMEOUT`, and raises
    :class:`_BadRequest` for an over-long or oversized head or an
    unusable ``Content-Length``."""
    try:
        head = await asyncio.wait_for(_read_head(reader), HEAD_TIMEOUT)
    except (ConnectionError, asyncio.TimeoutError):
        return None
    if head is None:
        return None
    method, target, headers = head
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise _BadRequest(400, f"bad Content-Length {raw!r}")
    if (length := int(raw)) > MAX_BODY:
        raise _BadRequest(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra: Optional[dict] = None,
) -> None:
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


def _json_response(
    writer, status: int, obj, *, extra: Optional[dict] = None
) -> None:
    _respond(
        writer, status, (canonical_json(obj) + "\n").encode("utf-8"), extra=extra
    )


def _error(writer, status: int, message: str) -> None:
    _json_response(writer, status, {"error": message})


async def _stream_events(manager: JobManager, job_hash: str, writer) -> None:
    """The SSE loop: replay history, then follow until terminal/EOF.

    Single-process managers feed the queue from the in-memory event
    stream; cluster managers tail the job's shared spool (see
    :meth:`~repro.service.jobs.JobManager.subscribe_any`) — the wire
    format is identical either way.  An idle wait longer than the
    manager's ``sse_keepalive`` emits a ``: keep-alive`` SSE comment so
    proxies and LBs don't reap the quiet connection.  Client disconnects
    surface as write errors; the ``finally`` always cleans up, so a
    vanished client costs nothing and — crucially — never cancels the
    job it was watching.
    """
    queue, cleanup = manager.subscribe_any(job_hash)
    keepalive = getattr(manager, "sse_keepalive", 15.0)
    head = (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-cache\r\n"
        "Connection: close\r\n\r\n"
    )
    try:
        writer.write(head.encode("latin-1"))
        await writer.drain()
        while True:
            try:
                event = await asyncio.wait_for(
                    queue.get(), timeout=keepalive if keepalive > 0 else None
                )
            except asyncio.TimeoutError:
                writer.write(b": keep-alive\n\n")
                await writer.drain()
                continue
            if event is None:
                writer.write(b"event: end\r\ndata: {}\n\n")
                await writer.drain()
                return
            writer.write(f"data: {_event_line(event)}\n\n".encode("utf-8"))
            await writer.drain()
    finally:
        cleanup()


def _parse_job_payload(body: bytes) -> dict:
    """Decode and validate one JobSpec payload; raises ``ValueError``."""
    data = json.loads(body.decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError("job payload must be a JSON object")
    unknown = set(data) - _JOB_FIELDS
    if unknown:
        raise ValueError(f"unknown job fields: {sorted(unknown)}")
    if "job" not in data:
        raise ValueError("job payload needs a 'job' dotted name")
    return {
        "campaign": data.get("campaign", "adhoc"),
        "job": data["job"],
        "params": dict(data.get("params", {})),
        "seed_index": int(data.get("seed_index", 0)),
        "index": int(data.get("index", 0)),
        "entropy": int(data.get("entropy", 0)),
        "job_hash": "",  # recomputed server-side by JobManager.submit
    }


async def _respond_submission(writer, submission, wait: bool) -> None:
    """Map one :class:`~repro.service.jobs.Submission` onto the wire."""
    extra = {"X-Repro-Outcome": submission.outcome}
    if submission.rejected:
        _json_response(
            writer, _OUTCOME_STATUS[submission.outcome],
            {"job_hash": submission.job_hash, "outcome": submission.outcome},
            extra=extra,
        )
        return
    if submission.outcome == "cached" or wait:
        record = await submission.result()
        if record is None:  # execution cancelled under the waiter
            _error(writer, 500, "job execution was cancelled")
            return
        status = 200 if record.get("status") == "ok" else 500
        _json_response(writer, status, record, extra=extra)
        return
    _json_response(
        writer, 202,
        {"job_hash": submission.job_hash, "outcome": submission.outcome},
        extra=extra,
    )


async def _handle(
    manager: JobManager,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            parsed = await _read_request(reader)
        except _BadRequest as exc:
            _error(writer, *exc.args)
            return
        if parsed is None:
            return
        method, target, headers, body = parsed
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
        tenant = headers.get("x-tenant", "anonymous")

        if path == "/healthz" and method == "GET":
            health = {
                "ok": True,
                "pool": manager.pool_state,
                "store": str(manager.store.root),
                "store_identity": manager.store.identity(),
                "replica": manager.replica_id,
                "workers": manager.workers,
                "inflight": manager.inflight(),
            }
            if manager.tenant_config is not None:
                health["tenant_config"] = manager.tenant_config.snapshot()
            _json_response(writer, 200, health)
        elif path == "/metrics" and method == "GET":
            _json_response(writer, 200, manager.snapshot())
        elif path == "/jobs" and method == "POST":
            try:
                payload = _parse_job_payload(body)
            except (ValueError, json.JSONDecodeError) as exc:
                _error(writer, 400, f"bad job payload: {exc}")
                return
            try:
                submission = manager.submit(payload, tenant=tenant)
            except ValueError as exc:
                _error(writer, 400, f"unsubmittable job: {exc}")
                return
            await _respond_submission(writer, submission, wait)
        elif path == "/campaigns" and method == "POST":
            try:
                spec = CampaignSpec.from_dict(json.loads(body.decode("utf-8")))
            except (ValueError, TypeError, json.JSONDecodeError) as exc:
                _error(writer, 400, f"bad campaign spec: {exc}")
                return
            submissions = [
                manager.submit(job.payload(), tenant=tenant)
                for job in spec.expand()
            ]
            outcomes: dict[str, int] = {}
            for sub in submissions:
                outcomes[sub.outcome] = outcomes.get(sub.outcome, 0) + 1
            summary = {
                "spec_hash": spec.spec_hash,
                "total": len(submissions),
                "outcomes": outcomes,
                "job_hashes": [s.job_hash for s in submissions],
            }
            if wait:
                records = await asyncio.gather(
                    *(s.result() for s in submissions if not s.rejected)
                )
                summary["ok"] = sum(
                    1 for r in records if r and r.get("status") == "ok"
                )
                summary["failed"] = sum(
                    1 for r in records if r and r.get("status") != "ok"
                )
            _json_response(writer, 200, summary)
        elif path.startswith("/jobs/") and method == "GET":
            rest = path[len("/jobs/"):]
            if rest.endswith("/events"):
                job_hash = rest[: -len("/events")]
                if not manager.knows_job(job_hash):
                    _error(writer, 404, f"unknown job {job_hash!r}")
                else:
                    await _stream_events(manager, job_hash, writer)
            else:
                record = manager.record(rest)
                if record is None:
                    _error(writer, 404, f"no completed artifact for {rest!r}")
                else:
                    _json_response(
                        writer, 200, record, extra={"X-Repro-Outcome": "cached"}
                    )
        elif path in ("/jobs", "/campaigns", "/healthz", "/metrics"):
            _error(writer, 405, f"{method} not allowed on {path}")
        else:
            _error(writer, 404, f"no route for {path!r}")
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # client went away mid-request; nothing to answer
    except asyncio.CancelledError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        try:
            _error(writer, 500, repr(exc))
        except ConnectionError:
            pass
    finally:
        try:
            if not writer.is_closing():
                await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    reuse_port: bool = False,
):
    """Bind and return an :class:`asyncio.Server` routing to ``manager``.

    The manager must already be :meth:`~repro.service.jobs.JobManager.
    start`-ed.  Callers own both lifecycles: close the server, then
    ``await manager.close()``.  ``reuse_port=True`` sets SO_REUSEPORT so
    several cluster replicas can share one listening port and let the
    kernel spread connections across them (Linux; per-replica ports are
    the portable alternative).
    """
    return await asyncio.start_server(
        lambda r, w: _handle(manager, r, w), host, port,
        reuse_port=reuse_port or None,
    )
