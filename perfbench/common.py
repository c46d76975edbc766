"""Helpers shared by the benchmark's orchestrator, workers and reports.

Nothing here imports the program under test: statistics, host facts,
the work directory and the line protocol between the orchestrator and
its worker processes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path

#: Scratch space inside the checkout (stores, span dumps); git-ignored.
WORK_DIR = Path(".perfbench_work")
#: Where the program's sources live, relative to the checkout root.
SRC_DIR = Path("src")
#: Prefix of the line a worker prints once it is ready to be timed.
READY = "PERFBENCH-READY"
#: Prefix of the line carrying a worker's measurements.
RESULT = "PERFBENCH-RESULT"


def program_importable() -> bool:
    """True iff the program's package is present under ``src/``."""
    return (SRC_DIR / "repro" / "__init__.py").is_file()


def use_program_sources() -> None:
    """Put ``src/`` first on ``sys.path`` (the checkout is not installed)."""
    src = str(SRC_DIR.resolve())
    if src not in sys.path:
        sys.path.insert(0, src)


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    src = str(SRC_DIR.resolve())
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"
    return env


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n p / 100)
    return float(ordered[int(rank) - 1])


def median_band(items: list) -> list:
    """The middle fifth (at least one) of ``items`` sorted by their first
    field: the requests around the median, whose parts are averaged so
    that the reported parts add up to a median-like whole."""
    ordered = sorted(items, key=lambda item: item[0])
    n = len(ordered)
    return ordered[int(0.4 * n):int(0.6 * n) + 1]


def host_facts() -> dict:
    """What a reader needs to compare two results from different hosts."""

    def version(mod: str):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def emit(prefix: str, obj) -> None:
    """Print one protocol line and flush it at once."""
    print(f"{prefix} {json.dumps(obj)}", flush=True)


def parse_line(line: str, prefix: str):
    """The JSON object of a protocol line, or ``None`` for other lines."""
    if line.startswith(prefix + " "):
        return json.loads(line[len(prefix) + 1:])
    return None


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB (``VmHWM``)."""
    return vm_hwm_mb(os.getpid())


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` in MB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (from ``/proc/<pid>/task/*/children``)."""
    out: list[int] = []
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{p}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    kids = [int(x) for x in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out
