"""The shared numpy step-kernel primitives every array engine executes.

This module is the single home of the machinery that used to be duplicated
across the vectorized, batched and quotient engines: proposition
evaluation over a neighbour-count tensor (:func:`prop_bool`), the lazily
memoized per-step atom truth table (:class:`AtomTable`), compiled-tree
evaluation (:func:`ctree_bool`), cascade resolution with ``np.select``
first-match semantics (:func:`resolve_compiled`), and the one-hot
neighbour-count products (:func:`one_hot_counts` for a single state
vector, :func:`stacked_counts` for an ``(R, n)`` replica stack).

Everything here is shape-generic: evaluators operate on any counts tensor
whose *last* axis indexes the alphabet — ``(n, s)`` for the
single-replica and quotient engines, ``(R, n, s)`` for the batched one —
so a single implementation serves all engines with no code divergence.

:class:`~repro.runtime.backends.NumpyBackend` is a thin wrapper over
these functions.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
from scipy import sparse

from repro.core.ir import CompiledProgram
from repro.core.modthresh import (
    And,
    ModAtom,
    Not,
    Or,
    Proposition,
    ThreshAtom,
    _Const,
)

__all__ = [
    "prop_bool",
    "AtomTable",
    "ctree_bool",
    "resolve_compiled",
    "one_hot_counts",
    "stacked_counts",
]


def prop_bool(prop: Proposition, counts: np.ndarray, code: Mapping) -> np.ndarray:
    """Evaluate a proposition over a counts tensor ``(..., s)`` → bool ``(...)``.

    The leading shape is arbitrary: ``(n,)`` for the single-replica engine,
    ``(R, n)`` for the batched one.
    """
    shape = counts.shape[:-1]
    if isinstance(prop, ThreshAtom):
        col = code.get(prop.state)
        if col is None:
            return np.ones(shape, dtype=bool)  # state never occurs
        return counts[..., col] < prop.threshold
    if isinstance(prop, ModAtom):
        col = code.get(prop.state)
        if col is None:
            return np.full(shape, prop.residue == 0)
        return counts[..., col] % prop.modulus == prop.residue
    if isinstance(prop, And):
        out = np.ones(shape, dtype=bool)
        for c in prop.children:
            out &= prop_bool(c, counts, code)
        return out
    if isinstance(prop, Or):
        out = np.zeros(shape, dtype=bool)
        for c in prop.children:
            out |= prop_bool(c, counts, code)
        return out
    if isinstance(prop, Not):
        return ~prop_bool(prop.child, counts, code)
    if isinstance(prop, _Const):
        return np.full(shape, prop.evaluate(None))  # constant
    raise TypeError(f"unexpected proposition {prop!r}")


class AtomTable:
    """Per-step truth table over the IR's unique feature atoms.

    Each atom evaluates lazily, exactly once, into a boolean array shared by
    every cascade that references it — the common-subexpression payoff of
    the atom-table IR.
    """

    __slots__ = ("atoms", "counts", "code", "shape", "_memo")

    def __init__(self, atoms: tuple, counts: np.ndarray, code: Mapping) -> None:
        self.atoms = atoms
        self.counts = counts
        self.code = code
        self.shape = counts.shape[:-1]
        self._memo: dict[int, np.ndarray] = {}

    def truth(self, idx: int) -> np.ndarray:
        arr = self._memo.get(idx)
        if arr is None:
            arr = prop_bool(self.atoms[idx], self.counts, self.code)
            self._memo[idx] = arr
        return arr


def ctree_bool(tree: tuple, table: AtomTable) -> np.ndarray:
    """Evaluate a compiled proposition tree against the atom truth table."""
    op = tree[0]
    if op == "atom":
        return table.truth(tree[1])
    if op == "not":
        return ~ctree_bool(tree[1], table)
    if op == "and":
        out = np.ones(table.shape, dtype=bool)
        for c in tree[1]:
            out &= ctree_bool(c, table)
        return out
    if op == "or":
        out = np.zeros(table.shape, dtype=bool)
        for c in tree[1]:
            out |= ctree_bool(c, table)
        return out
    return np.full(table.shape, tree[1])  # ("const", bool)


def resolve_compiled(
    cprog: CompiledProgram,
    table: AtomTable,
    mask: np.ndarray,
    new_sigma: np.ndarray,
) -> None:
    """Resolve one IR cascade for the masked entries into ``new_sigma``.

    ``np.select`` has exactly the first-match semantics of a Definition 3.6
    cascade, evaluated for every entry of the leading shape at once.
    """
    if not cprog.clauses:
        new_sigma[mask] = cprog.default
        return
    conds = [ctree_bool(t, table) for t, _ in cprog.clauses]
    out = np.select(
        conds,
        [np.int64(c) for _, c in cprog.clauses],
        default=np.int64(cprog.default),
    )
    new_sigma[mask] = out[mask]


def one_hot_counts(adj, sig: np.ndarray, s: int) -> np.ndarray:
    """Neighbour-count table for one state vector: ``adj @ one_hot(sig)``.

    ``adj`` is an ``(m, m)`` CSR adjacency (or quotient matrix with orbit
    multiplicities); the result is the dense ``(m, s)`` integer table
    ``counts[v, q] = μ_q(Γ(v))``.
    """
    m = sig.shape[0]
    if not m:
        return np.zeros((0, s), dtype=np.int64)
    one_hot = sparse.csr_matrix(
        (np.ones(m, dtype=np.int64), (np.arange(m), sig)), shape=(m, s)
    )
    return np.asarray((adj @ one_hot).todense())


def stacked_counts(adj, sig: np.ndarray, s: int) -> np.ndarray:
    """All replicas' count tables via one sparse product → ``(R, m, s)``.

    The per-replica one-hot matrices are stacked horizontally into an
    ``(m, R·s)`` block matrix ``H`` with ``H[v, r·s + σ_r(v)] = 1``, so
    ``adj @ H`` yields every replica's count table at once.
    """
    nrep, m = sig.shape
    onehot = np.zeros((m, nrep * s), dtype=np.int64)
    rows = np.broadcast_to(np.arange(m), (nrep, m))
    cols = sig + (np.arange(nrep) * s)[:, None]
    onehot[rows.ravel(), cols.ravel()] = 1
    counts = adj @ onehot  # (m, R*s)
    return np.ascontiguousarray(counts.reshape(m, nrep, s).transpose(1, 0, 2))
