"""Simple undirected graphs with fault (deletion) and churn support.

The :class:`Network` class is the substrate for every simulation in this
package.  It has two backing forms.  ``Network(nodes, edges)`` holds
adjacency sets over hashable node identifiers, with O(1) amortised edge
insertion/removal and O(deg) node removal.  Deletions model the paper's
*decreasing benign faults* (Section 1); the churn layer
(:mod:`repro.runtime.churn`) additionally re-adds nodes and edges mid-run,
using the batch :meth:`Network.add_nodes` / :meth:`Network.add_edges`
constructors, which amortise cache invalidation over the whole batch.

:meth:`Network.from_edge_arrays` (used by the regular generators) holds
arrays instead: nodes ``0..n-1``, the sorted CSR and the edge list in
creation order.  An FSSGA node reads only the multiset of its neighbours'
states, so the array engines need only the CSR: node-only queries and
:meth:`Network.to_csr` never build the sets.  The first call that needs
them builds them by replaying the edge list in creation order — so every
neighbour set iterates as if the edges had been added one by one — and
the network continues as the adjacency-set form.

For vectorized engines, :meth:`Network.to_csr` exports a
``scipy.sparse.csr_matrix`` adjacency plus a stable node ordering.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from typing import Optional

import numpy as np
from scipy import sparse

Node = Hashable
Edge = tuple[Node, Node]

__all__ = ["Network", "Node", "Edge", "canonical_edge"]


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return a canonical (sorted-by-repr) orientation of the edge ``{u, v}``.

    Undirected edges are stored both ways in the adjacency structure; when a
    single canonical tuple is needed (e.g. as a dictionary key for edge
    counters) we order the endpoints deterministically.
    """
    a, b = sorted((u, v), key=repr)
    return (a, b)


class Network:
    """A simple undirected graph with deletion faults.

    Parameters
    ----------
    nodes:
        Optional iterable of initial node identifiers (any hashable).
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints are added
        automatically.

    Notes
    -----
    Self-loops and parallel edges are rejected: the FSSGA model reads the
    states of *neighbours*, and the paper's graphs are simple.
    """

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._num_edges = 0
        self._csr_cache: Optional[tuple] = None
        #: CSR exports actually built (cache misses) — telemetry reads the
        #: delta across a run to report export-cache effectiveness
        self.csr_rebuilds = 0
        #: bumped by every topology mutation; the symmetry caches are
        #: keyed on it
        self._topology_version = 0
        self._symmetry = None
        self._verified = None  # (group, version, row permutations)
        self._orbit_cache = None  # (group, version, OrbitPartition)
        #: group verifications actually run (cache misses)
        self.symmetry_verifications = 0
        #: orbit partitions actually computed (cache misses), mirroring
        #: :attr:`csr_rebuilds` for the symmetry layer
        self.orbit_rebuilds = 0
        #: adjacency sets built from the array form (0 or 1)
        self.adjacency_builds = 0
        if nodes is not None:
            for v in nodes:
                self.add_node(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> None:
        """Add an isolated node (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = set()
            self._topology_changed()

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed."""
        if u == v:
            raise ValueError(f"self-loop {u!r} not allowed in a simple network")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._num_edges += 1
            self._topology_changed()

    def add_nodes(self, nodes: Iterable[Node]) -> int:
        """Add many nodes at once; returns how many were actually new.

        Reserves the whole batch under a *single* CSR/orbit cache
        invalidation (per-node :meth:`add_node` invalidates per call), so
        lowering a churn plan's union topology stays O(batch) instead of
        O(batch × cache churn).  Insertion order is preserved.
        """
        added = 0
        for v in nodes:
            if v not in self._adj:
                self._adj[v] = set()
                added += 1
        if added:
            self._topology_changed()
        return added

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Add many edges at once; returns how many were actually new.

        The batch counterpart of :meth:`add_edge` (endpoints are created
        as needed), with one cache invalidation for the whole batch.
        """
        added = 0
        for u, v in edges:
            if u == v:
                raise ValueError(
                    f"self-loop {u!r} not allowed in a simple network"
                )
            for w in (u, v):
                if w not in self._adj:
                    self._adj[w] = set()
                    added += 1  # a fresh endpoint also dirties the caches
            if v not in self._adj[u]:
                self._adj[u].add(v)
                self._adj[v].add(u)
                self._num_edges += 1
                added += 1
        if added:
            self._topology_changed()
        return added

    def _topology_changed(self) -> None:
        self._csr_cache = None
        self._topology_version += 1

    # ------------------------------------------------------------------
    # faults (deletions)
    # ------------------------------------------------------------------
    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``{u, v}`` (an edge fault)."""
        if u not in self._adj or v not in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) not in network")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._topology_changed()

    def remove_node(self, v: Node) -> None:
        """Delete node ``v`` and all incident edges (a node fault)."""
        if v not in self._adj:
            raise KeyError(f"node {v!r} not in network")
        for u in list(self._adj[v]):
            self.remove_edge(u, v)
        del self._adj[v]
        self._topology_changed()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self)

    @property
    def num_edges(self) -> int:
        """``m = |E|``."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, v: Node) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def nodes(self) -> list[Node]:
        """All node identifiers, in insertion order."""
        return list(self)

    def edges(self) -> list[Edge]:
        """Each undirected edge exactly once, canonically oriented.

        Dedup is by already-visited endpoint and orientation by a per-call
        repr cache, so the export costs two dict probes per stored entry
        rather than a ``sorted(key=repr)`` call per edge — this runs on
        every manifest snapshot and union-topology build, where the
        per-edge constant is the whole cost.
        """
        out: list[Edge] = []
        done: set = set()
        rep = {v: repr(v) for v in self._adj}
        for u in self._adj:
            ru = rep[u]
            for v in self._adj[u]:
                if v not in done:
                    out.append((u, v) if ru <= rep[v] else (v, u))
            done.add(u)
        return out

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Node) -> set[Node]:
        """The (live) neighbour set of ``v``.  Do not mutate the result."""
        return self._adj[v]

    def degree(self, v: Node) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Δ, the maximum degree (0 for an empty or edgeless network)."""
        return max((len(s) for s in self._adj.values()), default=0)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def component_of(self, v: Node) -> set[Node]:
        """The node set of the connected component containing ``v``."""
        seen = {v}
        frontier = deque([v])
        while frontier:
            u = frontier.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    def connected_components(self) -> list[set[Node]]:
        """All connected components, largest-first."""
        remaining = set(self._adj)
        comps: list[set[Node]] = []
        while remaining:
            v = next(iter(remaining))
            comp = self.component_of(v)
            comps.append(comp)
            remaining -= comp
        comps.sort(key=len, reverse=True)
        return comps

    def is_connected(self) -> bool:
        """True iff the network is connected (the empty network is not)."""
        if not self._adj:
            return False
        v = next(iter(self._adj))
        return len(self.component_of(v)) == len(self._adj)

    def bfs_distances(self, sources: Iterable[Node]) -> dict[Node, int]:
        """Hop distance from the nearest source, for every reachable node."""
        dist: dict[Node, int] = {}
        frontier = deque()
        for s in sources:
            if s not in self._adj:
                raise KeyError(f"source {s!r} not in network")
            if s not in dist:
                dist[s] = 0
                frontier.append(s)
        while frontier:
            u = frontier.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        return dist

    def eccentricity(self, v: Node) -> int:
        """Greatest hop distance from ``v`` within its component."""
        return max(self.bfs_distances([v]).values())

    def diameter(self) -> int:
        """Diameter of a connected network (raises if disconnected)."""
        if not self.is_connected():
            raise ValueError("diameter undefined on a disconnected network")
        return max(self.eccentricity(v) for v in self._adj)

    # ------------------------------------------------------------------
    # symmetry
    # ------------------------------------------------------------------
    def declare_symmetry(self, group) -> None:
        """Attach an :class:`~repro.network.symmetry.AutomorphismGroup`.

        Every generator is verified against the current topology
        (:class:`~repro.network.symmetry.SymmetryError` on failure) before
        the declaration sticks.  The declaration is *not* revoked by later
        mutations — consumers such as the quotient engine re-verify at
        lowering time (:meth:`verify_symmetry`) and report a stale group
        as their blocker.  Pass ``None`` to clear the declaration.
        """
        if group is not None:
            self._verify(group)
        self._symmetry = group

    @property
    def symmetry(self):
        """The declared automorphism group, or ``None``."""
        return self._symmetry

    def _cached(self, entry, group):
        """The value of a ``(group, version, value)`` cache entry if it is
        for ``group`` at the current topology version, else ``None``."""
        if entry is not None and entry[0] is group and entry[1] == self._topology_version:
            return entry[2]
        return None

    def _verify(self, group) -> tuple:
        perms = self._cached(self._verified, group)
        if perms is None:
            self.symmetry_verifications += 1
            perms = group.verify(self)
            self._verified = (group, self._topology_version, perms)
        return perms

    def verify_symmetry(self) -> tuple:
        """Verify the declared group against the current topology.

        Returns its generators as int64 row permutations over the
        :meth:`to_csr` node order, or raises
        :class:`~repro.network.symmetry.SymmetryError` naming the
        violation when a mutation has made the declaration stale.  A
        successful check is cached per group and topology version, so
        :meth:`declare_symmetry`, quotient negotiation and the quotient
        engine verify once between mutations;
        :attr:`symmetry_verifications` counts the checks actually run.
        Raises :class:`ValueError` when no group is declared.
        """
        if self._symmetry is None:
            raise ValueError(
                "no automorphism group declared; call declare_symmetry() first"
            )
        return self._verify(self._symmetry)

    def orbit_partition(self):
        """The cached orbit partition under the declared group.

        Raises :class:`ValueError` when no group is declared.  The result
        is cached per group and topology version, so every node/edge
        mutation (and re-declaring) recomputes it, mirroring
        :meth:`to_csr`; :attr:`orbit_rebuilds` counts actual
        recomputations.  A group verified at this version contributes its
        permutation arrays; a stale one is read leniently (see
        :func:`~repro.network.symmetry.orbit_partition`).
        """
        group = self._symmetry
        if group is None:
            raise ValueError(
                "no automorphism group declared; call declare_symmetry() first"
            )
        part = self._cached(self._orbit_cache, group)
        if part is not None:
            return part
        from repro.network.symmetry import OrbitPartition, orbit_partition

        perms = self._cached(self._verified, group)
        if perms is None:
            part = orbit_partition(self, group)
        else:
            order = self.to_csr()[1]
            rows = np.arange(len(order), dtype=np.int64)
            part = OrbitPartition.from_maps(order, [(rows, p) for p in perms])
        self._orbit_cache = (group, self._topology_version, part)
        self.orbit_rebuilds += 1
        return part

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def copy(self) -> "Network":
        g = Network()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._symmetry = self._symmetry
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Network":
        """The induced subgraph on ``nodes`` (all of which must exist)."""
        keep = set(nodes)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"nodes not in network: {sorted(map(repr, missing))}")
        return Network(
            (v for v in self._adj if v in keep),
            ((u, v) for u, v in self.edges() if u in keep and v in keep),
        )

    def is_subgraph_of(self, other: "Network") -> bool:
        """True iff every node and edge of ``self`` exists in ``other``."""
        for v in self._adj:
            if v not in other:
                return False
        return all(other.has_edge(u, v) for u, v in self.edges())

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def node_index(self) -> dict[Node, int]:
        """A stable node → row-index map (insertion order)."""
        return {v: i for i, v in enumerate(self)}

    def to_csr(self) -> tuple[sparse.csr_matrix, list[Node]]:
        """Adjacency matrix in CSR form plus the node ordering used.

        The matrix is symmetric 0/1 with an empty diagonal.  Used by the
        vectorized synchronous engine to count neighbour states via a single
        sparse mat-mat product per step.

        The result is cached on the instance and invalidated by every
        node/edge mutation, so fault lowering (which re-exports the CSR
        only at topology changes) and repeated engine construction on a
        static network pay the export once.  Callers must treat the
        returned matrix and order as read-only snapshots.
        """
        if self._csr_cache is not None:
            return self._csr_cache
        order = self.nodes()
        index = {v: i for i, v in enumerate(order)}
        # each row's entries are distinct by construction, so no COO
        # deduplication pass; _csr_matrix sorts within rows
        sets = self._adj.values()
        degree = np.fromiter(map(len, sets), dtype=np.int64, count=len(order))
        cols = np.fromiter((index[u] for nbrs in sets for u in nbrs),
                           dtype=np.int64, count=2 * self._num_edges)
        self.csr_rebuilds += 1
        self._csr_cache = (_csr_matrix(degree, cols), order)
        return self._csr_cache

    @classmethod
    def from_edge_arrays(cls, n: int, src, dst) -> "Network":
        """The array form on nodes ``0..n-1`` with edges ``(src[k], dst[k])``.

        The edges must be distinct, loop-free and given in the order they
        would be added one by one (that order fixes the neighbour-set
        iteration order if the sets are ever built).  The CSR is exported
        here, so it counts as built at construction (``csr_rebuilds`` is
        1).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        if (src == dst).any():
            raise ValueError("self-loops are not allowed in a simple network")
        # row-major keys of both orientations; sorted, they are the CSR
        key = np.concatenate((src * n + dst, dst * n + src))
        key.sort(kind="stable")
        if (key[1:] == key[:-1]).any():
            raise ValueError("parallel edges are not allowed in a simple network")
        degree = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        return _ArrayNetwork(n, (src, dst), _csr_matrix(degree, key % n))

    def to_networkx(self):
        """Export to a :class:`networkx.Graph` (for cross-validation only)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, g) -> "Network":
        """Import a simple undirected :class:`networkx.Graph`."""
        net = cls(nodes=g.nodes(), edges=((u, v) for u, v in g.edges() if u != v))
        return net

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network(n={self.num_nodes}, m={self.num_edges})"


def _csr_matrix(degree: np.ndarray, indices: np.ndarray) -> sparse.csr_matrix:
    """The 0/1 ``int64`` adjacency matrix with these row degrees and
    row-grouped column indices (sorted within rows here)."""
    n = degree.shape[0]
    indptr = np.zeros(n + 1, dtype=indices.dtype)
    np.cumsum(degree, out=indptr[1:])
    data = np.ones(indices.shape[0], dtype=np.int64)
    mat = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.sort_indices()
    return mat


class _ArrayNetwork(Network):
    """The array form (see the module docstring).  Every method that needs
    neighbour sets reads ``self._adj``, which does not exist here, so the
    read lands in :meth:`__getattr__`; that builds the sets and turns the
    instance into a plain :class:`Network`, whose methods need no check
    for this form.

    Trusted inputs: the CSR, and the creation-order edge list as ``(src,
    dst)`` arrays or a picklable function returning them (deferring that
    work to the first build).
    """

    def __init__(self, n: int, edges, csr: sparse.csr_matrix) -> None:
        self._order = list(range(n))
        self._edges = edges
        self._num_edges = csr.nnz // 2
        self._csr_cache = (csr, self._order)
        self.csr_rebuilds = 1
        self._topology_version = 0
        self._symmetry = None
        self._verified = None
        self._orbit_cache = None
        self.symmetry_verifications = 0
        self.orbit_rebuilds = 0
        self.adjacency_builds = 0

    def __getattr__(self, name: str):
        if name != "_adj":
            raise AttributeError(f"'Network' object has no attribute {name!r}")
        adj: dict[Node, set[Node]] = {v: set() for v in self._order}
        src, dst = self._edges() if callable(self._edges) else self._edges
        for u, v in zip(src.tolist(), dst.tolist()):
            adj[u].add(v)
            adj[v].add(u)
        del self._order, self._edges
        self._adj = adj
        self.adjacency_builds += 1
        self.__class__ = Network
        return adj

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, v: Node) -> bool:
        # the nodes are 0..n-1 (``v in range`` would scan for non-ints)
        try:
            return 0 <= v < len(self._order) and v == int(v)
        except TypeError:
            return False

    def __iter__(self) -> Iterator[Node]:
        return iter(self._order)

    def copy(self) -> "Network":
        """A copy sharing the (read-only) arrays, CSR export and verified
        symmetry arrays (equal topologies until either side mutates)."""
        g = object.__new__(_ArrayNetwork)
        g.__dict__.update(self.__dict__)
        g._orbit_cache = None
        g.csr_rebuilds = g.orbit_rebuilds = g.symmetry_verifications = 0
        return g
