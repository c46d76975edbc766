"""One front door for every execution engine.

Theorem 3.7 makes the three synchronous engines interchangeable on
mod-thresh automata; this module is where the codebase exploits it.
:func:`run` accepts any automaton, picks the fastest engine that can
execute it (``engine="auto"``), applies one unified termination policy,
streams per-step events to pluggable :class:`StepObserver` instances, and
returns a structured :class:`RunResult`.

Engine selection under ``engine="auto"`` is capability negotiation over
the shared compiler IR (:mod:`repro.core.ir`), not isinstance checks:

* any automaton :func:`repro.core.ir.lower` accepts — mod-thresh program
  mappings, automata built from programs of any Theorem 3.7 form,
  rule-based automata declaring ``compile_hints`` — goes to the
  :class:`~repro.runtime.vectorized.VectorizedSynchronousEngine`, or the
  :class:`~repro.runtime.batched.BatchedSynchronousEngine` when
  ``replicas=R`` is passed.  A ``fault_plan`` — including a general
  :class:`~repro.runtime.churn.ChurnPlan` with ``node-up``/``edge-up``
  arrivals — no longer forces a fallback: the plan is lowered into
  per-step live-node masks (arrivals via the plan's union topology) and
  the churned run stays vectorized;
* automata the compiler rejects (no ``compile_hints``, untraced
  neighbourhood queries, non-enumerable alphabets — see
  ``docs/model.md`` for the genuine-fallback list) run on the reference
  :class:`~repro.runtime.simulator.SynchronousSimulator`;
* a **deterministic** lowerable automaton on a network with a declared
  automorphism group (:meth:`~repro.network.graph.Network.declare_symmetry`),
  an orbit-constant initial state and no fault plan goes to the
  :class:`~repro.runtime.quotient.QuotientSynchronousEngine`, which
  simulates one representative per orbit and lifts the trajectory back to
  full-state views — bitwise identical results at n/k cost.  Any broken
  precondition (fault plan, non-orbit-constant init, missing or stale
  group) falls back to the full-graph path;
  :func:`~repro.runtime.api._quotient_blocker` names the actual blocker,
  and ``engine="quotient"`` surfaces it as a structured
  :class:`~repro.core.ir.QuotientLoweringError`.  Probabilistic automata
  are *never* auto-quotiented (the shared per-orbit draw convention is a
  different stochastic process — symmetry can never break); request
  ``engine="quotient"`` to opt in;
* ``engine="reference"`` forces the reference interpreter everywhere (the
  conformance escape hatch): for a shared seed the reference and
  vectorized paths produce bitwise-identical trajectories, probabilistic
  draws included — with or without faults.

Orthogonal to engine selection, ``backend=`` chooses which
:class:`~repro.runtime.backends.ArrayBackend` executes the array engines'
step kernel (numpy — the default and bitwise reference — array-API, or
the optional numba JIT).  Every array engine composes with every backend;
a pinned backend that cannot run raises
:class:`~repro.core.ir.BackendLoweringError` naming the blocker.

Termination policy (one convention for every engine — ``RunResult.steps``
always counts ``step()`` calls actually executed):

* ``until=k`` (an int): exactly ``k`` synchronous steps; ``steps == k``.
* ``until="stable"``: run to a fixed point.  The final no-change step *is*
  executed and counted (so a network that is born stable reports
  ``steps == 1``), matching the engines' ``run_until_stable``.  With a
  ``fault_plan``, stability additionally requires the plan exhausted.
* ``until=predicate`` (a callable ``NetworkState -> bool``): the predicate
  is checked *before* each step, so an initially satisfied predicate
  reports ``steps == 0``.  With ``replicas=R`` the predicate is evaluated
  per replica and satisfied replicas are deactivated (they stop evolving
  and stop consuming randomness).

Both open-ended modes raise :class:`RuntimeError` at ``max_steps``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional, Protocol, Union

import numpy as np

from repro.core.automaton import FSSGA, ProbabilisticFSSGA
from repro.core.ir import (
    BackendLoweringError,
    LoweringError,
    QuotientLoweringError,
    lower,
    lowering_cache_info,
)
from repro.network.graph import Network
from repro.network.state import NetworkState
from repro.network.symmetry import SymmetryError
from repro.runtime.backends import (
    BACKENDS,
    DEFAULT_MAX_STEPS,
    ArrayBackend,
    resolve_backend,
)
from repro.runtime.batched import BatchedSynchronousEngine
from repro.runtime.churn import ChurnPlan
from repro.runtime.quotient import (
    QuotientSynchronousEngine,
    orbit_constancy_violation,
)
from repro.runtime.simulator import SynchronousSimulator
from repro.runtime.telemetry import (
    EventStream,
    MetricsRegistry,
    RunEndedEvent,
    RunManifest,
    RunStartedEvent,
    StepEvent,
    capture_manifest,
)
from repro.runtime.trace import Trace
from repro.runtime.vectorized import VectorizedSynchronousEngine

__all__ = [
    "Engine",
    "RunResult",
    "StepObserver",
    "TraceObserver",
    "MetricsObserver",
    "run",
    "supports_vectorized",
    "ENGINES",
    "BACKENDS",
]

Automaton = Union[FSSGA, ProbabilisticFSSGA, Mapping]
Until = Union[int, str, Callable[[NetworkState], bool]]

ENGINES = ("auto", "reference", "vectorized", "batched", "quotient")


class Engine(Protocol):
    """What :func:`run` needs from an execution engine: one synchronous
    ``step()`` plus a decodable ``state``.  All three engines satisfy it
    structurally; the front door adapts their differing step/termination
    signatures to the unified policy."""

    def step(self): ...

    @property
    def state(self) -> NetworkState: ...


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------
class StepObserver:
    """Pluggable per-step hook.  Subclass and override what you need.

    ``on_step(time, changes, faults)`` fires after every executed step:
    ``time`` is the 0-based index of the completed step, ``changes`` maps
    changed nodes to ``(old, new)`` pairs (for batched runs: changed
    *replica indices* to ``True``), ``faults`` lists the fault events
    applied immediately before the step — on every engine.
    """

    def on_run_start(self, net: Network, state: NetworkState) -> None:
        pass

    def on_step(self, time: int, changes: dict, faults: list) -> None:
        pass

    def on_run_end(self, result: "RunResult") -> None:
        pass


class TraceObserver(StepObserver):
    """Adapts a :class:`~repro.runtime.trace.Trace` to the observer
    interface, so existing trace-based assertions work unchanged through
    :func:`run` on any engine."""

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.trace = trace if trace is not None else Trace()

    def on_step(self, time: int, changes: dict, faults: list) -> None:
        self.trace.record(time, changes, faults)


class MetricsObserver(StepObserver):
    """Lightweight per-run metrics: wall time per step and the convergence
    curve (changed-node count per step), cheap enough for benchmarks.

    Since the telemetry unification this is a view over a
    :class:`~repro.runtime.telemetry.EventStream`: every step becomes a
    timed :class:`~repro.runtime.telemetry.StepEvent` (``change_count``
    only, no per-node dict) and the run boundaries become
    ``RunStartedEvent``/``RunEndedEvent``, so ``observer.stream`` can be
    persisted with ``stream.to_jsonl(path)`` or shared with other
    producers.  The historical accessors (``step_times``,
    ``change_counts``, ``total_time``, ``convergence_curve``) are derived
    from the stream and unchanged for callers.
    """

    def __init__(self, stream: Optional[EventStream] = None) -> None:
        self.stream = stream if stream is not None else EventStream()
        self._last: Optional[float] = None

    def on_run_start(self, net: Network, state: NetworkState) -> None:
        self.stream.emit(RunStartedEvent(n_nodes=len(net)))
        self._last = perf_counter()

    def on_step(self, time: int, changes: dict, faults: list) -> None:
        now = perf_counter()
        duration = now - self._last if self._last is not None else None
        self._last = now
        self.stream.emit(
            StepEvent(
                time,
                faults=list(faults),
                change_count=len(changes),
                duration=duration,
            )
        )

    def on_run_end(self, result: "RunResult") -> None:
        self.stream.emit(
            RunEndedEvent(
                steps=result.steps,
                engine=result.engine,
                converged=result.converged,
                wall_time=result.wall_time,
                rng_draws=result.rng_draws,
            )
        )

    @property
    def step_times(self) -> list[float]:
        return [
            e.duration
            for e in self.stream.step_events()
            if e.duration is not None
        ]

    @property
    def change_counts(self) -> list[int]:
        return [e.change_count for e in self.stream.step_events()]

    @property
    def total_time(self) -> float:
        return sum(self.step_times)

    def convergence_curve(self) -> list[int]:
        """Changed-node count per step — flat at 0 once converged."""
        return list(self.change_counts)


class _FaultCapture:
    """Minimal trace stand-in harvesting the faults of the latest step
    (``SynchronousSimulator.step`` returns changes but not faults)."""

    def __init__(self) -> None:
        self.last_faults: list = []

    def record(self, time, changes, faults=None, state=None) -> None:
        self.last_faults = list(faults or [])


# ----------------------------------------------------------------------
# results and engine selection
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Structured outcome of a :func:`run`.

    ``steps`` counts executed ``step()`` calls under the module's unified
    convention; ``change_counts[t]`` is the number of nodes that changed in
    step ``t`` (for batched runs: the number of *replicas* that changed).
    ``rng_draws`` counts the random draws consumed (0 for deterministic
    automata).  Batched runs also populate ``replica_states`` /
    ``replica_rounds`` and report ``final_state = replica_states[0]``,
    ``steps = max(replica_rounds)``.  ``manifest`` is the
    :class:`~repro.runtime.telemetry.RunManifest` captured for this call —
    pass it to :func:`repro.runtime.telemetry.replay` to re-execute the
    run and assert a bitwise-identical outcome.
    """

    final_state: NetworkState
    steps: int
    engine: str
    converged: bool
    wall_time: float
    rng_draws: int
    change_counts: list[int]
    replica_states: Optional[list[NetworkState]] = None
    replica_rounds: Optional[np.ndarray] = None
    manifest: Optional[RunManifest] = None
    #: Resolved array-backend name for the array engines (``"numpy"``,
    #: ``"array-api"``, ``"numba"``…); ``None`` for the reference
    #: interpreter, which executes no array kernel.
    backend: Optional[str] = None


def _negotiate(
    automaton: Automaton, randomness: Optional[int]
) -> tuple[bool, str]:
    """Can the IR execute this automaton?  Returns ``(lowerable, reason)``.

    ``reason`` is the compiler's own explanation of the blocking capability
    when lowering fails (empty when it succeeds).  Lowering is cached, so
    negotiation costs one dict lookup after the first call.
    """
    try:
        lower(automaton, randomness)
        return True, ""
    except LoweringError as exc:
        return False, str(exc)


def supports_vectorized(
    automaton: Automaton, randomness: Optional[int] = None
) -> bool:
    """True iff ``automaton`` lowers to the shared engine IR — i.e. the
    vectorized/batched engines can execute it: a program mapping or a
    program-built :class:`FSSGA`/:class:`ProbabilisticFSSGA` (programs of
    any Theorem 3.7 form), or a rule-based automaton declaring
    ``compile_hints``."""
    return _negotiate(automaton, randomness)[0]


def _quotient_blocker(
    automaton: Automaton,
    net: Optional[Network],
    init,
    replicas: Optional[int],
    fault_plan: Optional[ChurnPlan],
    randomness: Optional[int],
    *,
    auto: bool,
) -> Optional[tuple[str, str]]:
    """Why this run cannot take the quotient path, or ``None`` if it can.

    Returns ``(blocker_tag, message)`` naming the *actual* obstruction —
    the same preconditions
    :class:`~repro.runtime.quotient.QuotientSynchronousEngine` checks at
    construction (the group check is a cache hit there).  ``auto=True``
    (negotiating ``engine="auto"``) additionally blocks probabilistic
    automata: the quotient's shared per-orbit draws are a different
    stochastic process from the full-graph engines' one-draw-per-node
    convention (symmetry can never break), so ``auto`` never switches a
    probabilistic run's semantics silently; opting in via
    ``engine="quotient"`` is explicit.  Only ``auto`` checks that ``init``
    is orbit-constant, since it must choose before an engine exists; a
    pinned quotient run gets that blocker from the engine constructor, so
    each run encodes and checks ``init`` once.
    """
    lowerable, reason = _negotiate(automaton, randomness)
    if not lowerable:
        return (
            "not-lowerable",
            f"the automaton does not lower to the engine IR: {reason}",
        )
    if replicas is not None:
        return (
            "replicas",
            f"replicas={replicas} needs the batched engine; the quotient "
            f"path is single-replica",
        )
    if fault_plan is not None and len(fault_plan) > 0:
        if getattr(fault_plan, "has_additions", False):
            return (
                "churn-plan",
                "churn plans break symmetry: an arrival (node-up/edge-up) "
                "changes the node or edge set, so no declared automorphism "
                "group can remain valid across the run",
            )
        return (
            "fault-plan",
            "fault plans break symmetry: a deletion distinguishes the "
            "faulted node's orbit members",
        )
    if net is None or net.symmetry is None:
        return (
            "no-group",
            "network declares no automorphism group; call "
            "net.declare_symmetry(...) to enable the quotient path",
        )
    if auto and lower(automaton, randomness).probabilistic:
        return (
            "probabilistic",
            "shared per-orbit draws change the stochastic process (symmetry "
            "can never break), so auto keeps probabilistic runs on a "
            "full-graph engine; request engine='quotient' to opt in",
        )
    try:
        net.verify_symmetry()  # cached per topology version
    except SymmetryError as exc:
        return (
            "stale-group",
            f"declared automorphism group is stale for the current "
            f"topology: {exc}",
        )
    if not isinstance(init, Mapping):
        return (
            "init-form",
            f"quotient runs need a single NetworkState init, got "
            f"{type(init).__name__}",
        )
    if auto:
        violation = orbit_constancy_violation(
            net.orbit_partition(), init, lower(automaton, randomness).code
        )
        if violation is not None:
            return ("init-not-orbit-constant", violation)
    return None


def _select_engine(
    engine: str,
    automaton: Automaton,
    replicas: Optional[int],
    fault_plan: Optional[ChurnPlan],
    randomness: Optional[int] = None,
    net: Optional[Network] = None,
    init=None,
) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    lowerable, reason = _negotiate(automaton, randomness)
    if engine == "quotient":
        blocked = _quotient_blocker(
            automaton, net, init, replicas, fault_plan, randomness,
            auto=False,
        )
        if blocked is not None:
            tag, msg = blocked
            raise QuotientLoweringError(
                f"engine 'quotient' cannot execute this run: {msg}",
                blocker=tag,
            )
        chosen = "quotient"
    elif engine == "auto":
        if not lowerable:
            chosen = "reference"
        elif replicas is not None:
            chosen = "batched"
        elif (
            net is not None
            and net.symmetry is not None
            and _quotient_blocker(
                automaton, net, init, replicas, fault_plan, randomness,
                auto=True,
            )
            is None
        ):
            chosen = "quotient"
        else:
            chosen = "vectorized"
    else:
        chosen = engine
    if chosen in ("vectorized", "batched") and not lowerable:
        raise LoweringError(
            f"engine {chosen!r} cannot execute this automaton: {reason}"
        )
    if chosen == "batched" and replicas is None:
        raise ValueError("engine='batched' needs replicas=R")
    if chosen != "batched" and replicas is not None:
        # name the *actual* blocking capability: either the caller pinned a
        # non-batched engine, or the automaton does not lower (the compiler
        # says why) — never a guess based on unrelated arguments.
        blocker = (
            f"engine={chosen!r} was requested"
            if engine != "auto"
            else f"the automaton does not lower to the engine IR "
            f"(rule-based fallback: {reason})"
        )
        raise ValueError(
            f"replicas={replicas} needs the batched engine, but {blocker}"
        )
    return chosen


def _select_backend(
    backend: Union[str, ArrayBackend, None],
    chosen_engine: str,
    requested_engine: str,
) -> Optional[ArrayBackend]:
    """Resolve the ``backend=`` axis against the negotiated engine.

    The reference interpreter executes no array kernel, so a *pinned*
    backend (anything but ``"auto"``/``None``) on the reference path is an
    unsatisfiable request — a structured
    :class:`~repro.core.ir.BackendLoweringError` with blocker
    ``"reference-engine"`` names it, whether the caller pinned
    ``engine="reference"`` or ``engine="auto"`` fell back because the
    automaton does not lower.  Array engines resolve through
    :func:`repro.runtime.backends.resolve_backend` (which raises the
    ``"numba-unavailable"`` blocker for a pinned-but-missing JIT backend).
    Returns the live backend, or ``None`` on the reference path.
    """
    pinned = backend is not None and backend != "auto"
    if chosen_engine == "reference":
        if pinned:
            name = backend.name if isinstance(backend, ArrayBackend) else backend
            how = (
                "engine='reference' was requested"
                if requested_engine == "reference"
                else "engine='auto' fell back to the reference interpreter "
                "(the automaton does not lower to the engine IR)"
            )
            raise BackendLoweringError(
                f"backend {name!r} was pinned but {how}; the reference "
                f"interpreter executes no array kernel, so the pinned "
                f"backend cannot take effect",
                blocker="reference-engine",
            )
        return None
    return resolve_backend(backend)


def _as_reference_automaton(
    automaton: Automaton, randomness: Optional[int]
) -> Union[FSSGA, ProbabilisticFSSGA]:
    """The reference simulator needs an automaton object.

    Anything that lowers executes its compiled form
    (:meth:`~repro.core.ir.CompiledAutomaton.as_automaton`, result-only
    states padded with hold programs), so all three engines run the very
    same IR-derived programs; only automata the compiler rejects run their
    raw Python rule."""
    try:
        return lower(automaton, randomness).as_automaton()
    except LoweringError:
        if isinstance(automaton, (FSSGA, ProbabilisticFSSGA)):
            return automaton
        raise


# ----------------------------------------------------------------------
# the unified step driver
# ----------------------------------------------------------------------
def _drive(
    step_once: Callable[[], bool],
    current_state: Callable[[], NetworkState],
    quiescent_ok: Callable[[], bool],
    until: Until,
    max_steps: int,
) -> tuple[int, bool]:
    """Run ``step_once`` under the unified termination policy; returns
    ``(steps_executed, converged)``.  ``step_once`` returns whether any
    node changed."""
    if isinstance(until, bool):
        raise TypeError("until must be an int, 'stable', or a predicate")
    if isinstance(until, int):
        if until < 0:
            raise ValueError("until must be >= 0")
        for _ in range(until):
            step_once()
        return until, True
    if until == "stable":
        for steps in range(1, max_steps + 1):
            if not step_once() and quiescent_ok():
                return steps, True
        raise RuntimeError(f"no fixed point within {max_steps} steps")
    if callable(until):
        for steps in range(max_steps):
            if until(current_state()):
                return steps, True
            step_once()
        if until(current_state()):
            return max_steps, True
        raise RuntimeError(f"predicate not reached within {max_steps} steps")
    raise TypeError(f"until must be an int, 'stable', or a predicate; got {until!r}")


def _run_reference(
    automaton, net, init, until, max_steps, randomness, rng, fault_plan,
    observers, metrics,
):
    automaton = _as_reference_automaton(automaton, randomness)
    capture = _FaultCapture()
    sim = SynchronousSimulator(
        net, automaton, init, rng=rng, fault_plan=fault_plan, trace=capture,
        metrics=metrics,
    )
    probabilistic = isinstance(automaton, ProbabilisticFSSGA)
    draws = [0]
    change_counts: list[int] = []

    def step_once() -> bool:
        changes = sim.step()
        if probabilistic:
            draws[0] += len(sim.net)
        change_counts.append(len(changes))
        for ob in observers:
            ob.on_step(sim.time - 1, changes, capture.last_faults)
        return bool(changes)

    def quiescent_ok() -> bool:
        return fault_plan is None or fault_plan.exhausted

    steps, converged = _drive(
        step_once, lambda: sim.state, quiescent_ok, until, max_steps
    )
    return sim.state, steps, converged, draws[0], change_counts, None, None


def _run_vectorized(
    automaton, net, init, until, max_steps, randomness, rng, fault_plan,
    observers, metrics, backend,
):
    eng = VectorizedSynchronousEngine(
        net, automaton, init, randomness=randomness, rng=rng,
        fault_plan=fault_plan, metrics=metrics, backend=backend,
    )
    draws = [0]
    change_counts: list[int] = []

    def step_once() -> bool:
        old = eng._sigma  # step() replaces the array; this snapshot stays valid
        changed = eng.step()
        if eng._probabilistic:
            draws[0] += eng.live_count  # one draw per live node, as reference
        diff = np.flatnonzero(eng._sigma != old)
        change_counts.append(len(diff))
        if observers:
            changes = {
                eng._order[i]: (eng.alphabet[old[i]], eng.alphabet[eng._sigma[i]])
                for i in diff
            }
            for ob in observers:
                ob.on_step(eng.time - 1, changes, eng.last_faults)
        return changed

    def quiescent_ok() -> bool:
        return fault_plan is None or fault_plan.exhausted

    steps, converged = _drive(
        step_once, lambda: eng.state, quiescent_ok, until, max_steps
    )
    return eng.state, steps, converged, draws[0], change_counts, None, None


def _run_quotient(
    automaton, net, init, until, max_steps, randomness, rng, fault_plan,
    observers, metrics, backend,
):
    eng = QuotientSynchronousEngine(
        net, automaton, init, randomness=randomness, rng=rng,
        fault_plan=fault_plan, metrics=metrics, backend=backend,
    )
    part = eng.partition
    sizes = np.asarray(part.sizes, dtype=np.int64)
    members: Optional[list[list]] = None
    if observers:
        members = [[] for _ in part.reps]
        for v, j in zip(part.nodes, part.orbit_of_row.tolist()):
            members[j].append(v)
    draws = [0]
    change_counts: list[int] = []

    def step_once() -> bool:
        old = eng._sigma  # step() replaces the array; this snapshot stays valid
        changed = eng.step()
        if eng._probabilistic:
            draws[0] += eng.orbit_count  # one shared draw per orbit
        diff = np.flatnonzero(eng._sigma != old)
        # lifted change count: every member of a changed orbit changed, so
        # this equals the full-graph engines' per-step counts exactly
        change_counts.append(int(sizes[diff].sum()))
        if observers:
            changes = {}
            for i in diff:
                pair = (eng.alphabet[old[i]], eng.alphabet[eng._sigma[i]])
                for v in members[i]:
                    changes[v] = pair
            for ob in observers:
                ob.on_step(eng.time - 1, changes, eng.last_faults)
        return changed

    steps, converged = _drive(
        step_once, lambda: eng.state, lambda: True, until, max_steps
    )
    return eng.state, steps, converged, draws[0], change_counts, None, None


def _run_batched(
    automaton, net, init, until, max_steps, replicas, randomness, rng,
    fault_plan, observers, metrics, backend,
):
    eng = BatchedSynchronousEngine(
        net, automaton, init, replicas, randomness=randomness, rng=rng,
        fault_plan=fault_plan, metrics=metrics, backend=backend,
    )
    draws = [0]
    change_counts: list[int] = []

    def step_once() -> np.ndarray:
        active_before = int(eng._active.sum())
        changed = eng.step()
        if eng._probabilistic:
            # live_count reflects faults fired at the top of this step
            draws[0] += active_before * eng.live_count
        change_counts.append(int(changed.sum()))
        if observers:
            rep_changes = {int(r): True for r in np.flatnonzero(changed)}
            for ob in observers:
                ob.on_step(eng.time - 1, rep_changes, eng.last_faults)
        return changed

    if isinstance(until, bool):
        raise TypeError("until must be an int, 'stable', or a predicate")
    if isinstance(until, int):
        if until < 0:
            raise ValueError("until must be >= 0")
        for _ in range(until):
            step_once()
        converged = True
    elif until == "stable":
        # mirror BatchedSynchronousEngine.run_until_stable: a replica is
        # deactivated after its first no-change step (which is counted),
        # but never while fault events are still pending.
        for _ in range(max_steps):
            if not eng._active.any():
                break
            changed = step_once()
            if fault_plan is None or fault_plan.exhausted:
                eng._active &= changed
        if eng._active.any():
            raise RuntimeError(
                f"{int(eng._active.sum())}/{eng.replicas} replicas reached "
                f"no fixed point within {max_steps} steps"
            )
        converged = True
    elif callable(until):
        # predicate checked before each step, per replica; satisfied
        # replicas deactivate and stop evolving/drawing.
        for remaining in range(max_steps, -1, -1):
            for r in np.flatnonzero(eng._active):
                if until(eng.replica_state(int(r))):
                    eng._active[r] = False
            if not eng._active.any():
                break
            if remaining == 0:
                raise RuntimeError(
                    f"{int(eng._active.sum())}/{eng.replicas} replicas did "
                    f"not satisfy the predicate within {max_steps} steps"
                )
            step_once()
        converged = True
    else:
        raise TypeError(
            f"until must be an int, 'stable', or a predicate; got {until!r}"
        )

    states = eng.states
    rounds = eng.rounds
    return (
        states[0],
        int(rounds.max()),
        converged,
        draws[0],
        change_counts,
        states,
        rounds,
    )


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def run(
    automaton: Automaton,
    net: Network,
    init: Union[NetworkState, list],
    *,
    engine: str = "auto",
    until: Until = "stable",
    max_steps: int = DEFAULT_MAX_STEPS,
    replicas: Optional[int] = None,
    randomness: Optional[int] = None,
    rng: Union[int, np.random.Generator, None] = None,
    fault_plan: Optional[ChurnPlan] = None,
    observers: tuple = (),
    metrics: Optional[MetricsRegistry] = None,
    backend: Union[str, ArrayBackend, None] = "auto",
) -> RunResult:
    """Execute ``automaton`` on ``net`` from ``init`` on the best engine.

    Parameters
    ----------
    automaton:
        :class:`FSSGA` / :class:`ProbabilisticFSSGA` (rule- or
        program-based), or a raw ``{q: ModThreshProgram}`` /
        ``{(q, i): ModThreshProgram}`` mapping (the latter with
        ``randomness``).
    engine:
        ``"auto"`` (default — fastest applicable), ``"reference"``,
        ``"vectorized"``, ``"batched"`` (requires ``replicas``), or
        ``"quotient"`` (requires a declared automorphism group and an
        orbit-constant init; raises
        :class:`~repro.core.ir.QuotientLoweringError` naming the blocker
        otherwise).
    until:
        Termination: an int (fixed steps), ``"stable"`` (fixed point), or
        a ``NetworkState -> bool`` predicate.  See the module docstring for
        the step-count convention.
    replicas:
        R independent replicas via the batched engine.  ``init`` may then
        be one shared state or a list of R states.
    fault_plan:
        Mid-run topology dynamics: a deletion-only
        :class:`~repro.runtime.faults.FaultPlan` or a general
        :class:`~repro.runtime.churn.ChurnPlan` mixing ``node-down`` /
        ``edge-down`` / ``node-up`` / ``edge-up`` events.  Lowered into
        per-step live-node masks on the vectorized/batched engines
        (plans that add topology lower their *union* topology into the
        construction-time CSR, so churn stays on the vector fast path),
        interpreted directly on the reference engine — all with
        identical semantics (``net`` is mutated as events fire, exactly
        as the reference simulator does).  The quotient engine rejects
        any non-empty plan with a structured blocker (``"churn-plan"``
        when the plan adds topology, ``"fault-plan"`` otherwise).
    observers:
        :class:`StepObserver` instances notified per executed step.
    metrics:
        Optional :class:`~repro.runtime.telemetry.MetricsRegistry` wired
        into the chosen engine's hot loop (``steps``, ``node_updates``,
        ``rng_draws``, ``fault_events``, and for batched runs the
        ``active_fraction`` series) plus per-run cache counters
        (``lowering_cache_hits``/``misses``, ``csr_rebuilds``).  ``None``
        (default) keeps the hot loops branch-only.
    backend:
        Which :class:`~repro.runtime.backends.ArrayBackend` executes the
        array engines' step kernel: ``"auto"`` (numpy, the bitwise
        reference), ``"numpy"``, ``"array-api"``, ``"numba"``, or a live
        backend instance.  Orthogonal to ``engine``: every array engine
        accepts every backend, all bitwise-identical.  A pinned backend
        that cannot run raises
        :class:`~repro.core.ir.BackendLoweringError` with a
        machine-readable ``blocker`` (``"numba-unavailable"`` when the
        JIT backend is pinned without numba installed,
        ``"reference-engine"`` when the run lands on the reference
        interpreter, which executes no array kernel).  The resolved name
        is recorded on the result and its manifest, so
        :func:`~repro.runtime.telemetry.replay` re-pins it.
    """
    observers = tuple(observers)
    cache_before = lowering_cache_info() if metrics is not None else None
    csr_before = net.csr_rebuilds if metrics is not None else 0
    chosen = _select_engine(
        engine, automaton, replicas, fault_plan, randomness, net, init
    )
    backend_obj = _select_backend(backend, chosen, engine)
    backend_name = backend_obj.name if backend_obj is not None else None
    # captured before the engine consumes rng or faults mutate net — both
    # are snapshotted by value inside the manifest
    manifest = capture_manifest(
        automaton=automaton, net=net, init=init, engine=chosen, until=until,
        max_steps=max_steps, replicas=replicas, randomness=randomness,
        rng=rng, fault_plan=fault_plan, backend=backend_name,
    )
    if fault_plan is not None:
        fault_plan.ensure_fresh()  # cursor contract: full schedule re-applies
    start = perf_counter()
    for ob in observers:
        ob.on_run_start(net, init if isinstance(init, NetworkState) else init[0])
    if chosen == "reference":
        out = _run_reference(
            automaton, net, init, until, max_steps, randomness, rng, fault_plan,
            observers, metrics,
        )
    elif chosen == "vectorized":
        out = _run_vectorized(
            automaton, net, init, until, max_steps, randomness, rng, fault_plan,
            observers, metrics, backend_obj,
        )
    elif chosen == "quotient":
        out = _run_quotient(
            automaton, net, init, until, max_steps, randomness, rng, fault_plan,
            observers, metrics, backend_obj,
        )
    else:
        out = _run_batched(
            automaton, net, init, until, max_steps, replicas, randomness, rng,
            fault_plan, observers, metrics, backend_obj,
        )
    final_state, steps, converged, draws, change_counts, states, rounds = out
    wall_time = perf_counter() - start
    if metrics is not None:
        cache_after = lowering_cache_info()
        metrics.inc(
            "lowering_cache_hits", cache_after["hits"] - cache_before["hits"]
        )
        metrics.inc(
            "lowering_cache_misses",
            cache_after["misses"] - cache_before["misses"],
        )
        metrics.inc("csr_rebuilds", net.csr_rebuilds - csr_before)
        metrics.observe("run_wall_time", wall_time)
    result = RunResult(
        final_state=final_state,
        steps=steps,
        engine=chosen,
        converged=converged,
        wall_time=wall_time,
        rng_draws=draws,
        change_counts=change_counts,
        replica_states=states,
        replica_rounds=rounds,
        manifest=manifest,
        backend=backend_name,
    )
    manifest.finalize(result)
    for ob in observers:
        ob.on_run_end(result)
    return result
