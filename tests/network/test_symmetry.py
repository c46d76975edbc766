"""Property-based tests for declared automorphism groups and orbits.

Hypothesis generates random group *words* (products of declared
generators), random relabelings, and deliberately corrupted generators,
checking the algebraic properties the quotient engine depends on:

* every element of the generated group — not just the declared
  generators — is a verified automorphism;
* the orbit partition is equivariant under relabeling the network
  (orbits are a structural invariant, not an artifact of node names or
  insertion order);
* a wrong generator is rejected by :func:`verify_automorphism` /
  :meth:`Network.declare_symmetry` with an error naming the precise
  violation (the offending edge, the non-injective image, the domain
  mismatch) — never a generic failure.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import Network, generators
from repro.network.symmetry import (
    AutomorphismGroup,
    SymmetryError,
    cyclic_rotation,
    detect_symmetry,
    full_symmetric,
    grid_reflections,
    orbit_partition,
    torus_translations,
    verify_automorphism,
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def declared_network(draw):
    """A ``(net, group)`` pair from the declared-group families."""
    family = draw(st.sampled_from(
        ["cycle", "subgroup-cycle", "complete", "torus", "circulant", "grid"]
    ))
    if family == "cycle":
        n = draw(st.integers(3, 16))
        return generators.cycle_graph(n), cyclic_rotation(n)
    if family == "subgroup-cycle":
        n = 2 * draw(st.integers(2, 8))
        return generators.cycle_graph(n), cyclic_rotation(n, shift=2)
    if family == "complete":
        n = draw(st.integers(2, 10))
        return generators.complete_graph(n), full_symmetric(range(n))
    if family == "torus":
        r, c = draw(st.integers(3, 5)), draw(st.integers(3, 5))
        return generators.torus_graph(r, c), torus_translations(r, c)
    if family == "circulant":
        n = draw(st.integers(5, 16))
        offs = draw(
            st.sets(st.integers(1, n // 2), min_size=1, max_size=3)
        )
        return generators.circulant_graph(n, offs), cyclic_rotation(n)
    r, c = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    return generators.grid_graph(r, c), grid_reflections(r, c)


def compose_word(group: AutomorphismGroup, nodes, word) -> dict:
    """The permutation that is the product of ``generators[i] for i in word``."""
    return {v: group.apply(word, v) for v in nodes}


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestGeneratedElementsAreAutomorphisms:
    @settings(max_examples=40, deadline=None)
    @given(pair=declared_network(), data=st.data())
    def test_random_group_word_is_verified_automorphism(self, pair, data):
        net, group = pair
        word = data.draw(
            st.lists(
                st.integers(0, len(group.generators) - 1), min_size=0,
                max_size=6,
            )
        )
        perm = compose_word(group, net.nodes(), word)
        verify_automorphism(net, perm)  # must not raise

    @settings(max_examples=40, deadline=None)
    @given(pair=declared_network())
    def test_declared_generators_verify(self, pair):
        net, group = pair
        group.verify(net)  # must not raise
        net.declare_symmetry(group)
        assert net.symmetry is group


class TestOrbitPartitionInvariance:
    @settings(max_examples=40, deadline=None)
    @given(pair=declared_network(), data=st.data())
    def test_orbits_equivariant_under_relabeling(self, pair, data):
        """Relabeling nodes by φ maps each orbit to an orbit: the partition
        is a structural invariant, independent of names and insertion
        order."""
        net, group = pair
        nodes = net.nodes()
        n = len(nodes)
        perm_order = data.draw(st.permutations(range(n)))
        phi = {nodes[i]: f"n{perm_order[i]}" for i in range(n)}
        relabeled = Network(
            nodes=[phi[v] for v in nodes],
            edges=[(phi[u], phi[v]) for u, v in net.edges()],
        )
        conj = AutomorphismGroup(
            tuple({phi[v]: phi[g[v]] for v in nodes} for g in group.generators)
        )
        part = orbit_partition(net, group)
        part_rel = orbit_partition(relabeled, conj)
        orbits = {
            frozenset(phi[v] for v, j in part.orbit_of.items() if j == jj)
            for jj in range(part.num_orbits)
        }
        orbits_rel = {
            frozenset(v for v, j in part_rel.orbit_of.items() if j == jj)
            for jj in range(part_rel.num_orbits)
        }
        assert orbits == orbits_rel

    @settings(max_examples=40, deadline=None)
    @given(pair=declared_network())
    def test_orbits_partition_the_node_set(self, pair):
        net, group = pair
        part = orbit_partition(net, group)
        assert sorted(part.orbit_of) == sorted(net.nodes(), key=repr) or set(
            part.orbit_of
        ) == set(net.nodes())
        assert sum(part.sizes) == net.num_nodes
        for j, rep in enumerate(part.reps):
            assert part.orbit_of[rep] == j
        # representatives are each orbit's first node in insertion order
        seen = set()
        for v in net.nodes():
            j = part.orbit_of[v]
            if j not in seen:
                seen.add(j)
                assert part.reps[j] == v


class TestWrongGeneratorsRejected:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 12))
    def test_rotation_on_path_names_the_broken_edge(self, n):
        """The cycle rotation is *not* an automorphism of the open path:
        the error must name the concrete edge mapped to a non-edge."""
        net = generators.path_graph(n)
        with pytest.raises(SymmetryError, match="non-edge"):
            verify_automorphism(net, {i: (i + 1) % n for i in range(n)})

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 12), data=st.data())
    def test_non_injective_map_rejected(self, n, data):
        net = generators.cycle_graph(n)
        target = data.draw(st.integers(0, n - 1))
        collapse = {i: target for i in range(n)}
        with pytest.raises(SymmetryError, match="not injective"):
            verify_automorphism(net, collapse)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 12))
    def test_wrong_domain_rejected(self, n):
        net = generators.cycle_graph(n)
        partial = {i: i for i in range(n - 1)}  # node n-1 missing
        with pytest.raises(SymmetryError, match="domain"):
            verify_automorphism(net, partial)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 12))
    def test_declare_symmetry_rejects_and_stays_unset(self, n):
        net = generators.path_graph(n)
        bad = AutomorphismGroup(
            ({i: (i + 1) % n for i in range(n)},), name="bogus"
        )
        with pytest.raises(SymmetryError, match="generator 0 of 'bogus'"):
            net.declare_symmetry(bad)
        assert net.symmetry is None
        with pytest.raises(ValueError, match="no automorphism group"):
            net.orbit_partition()


class TestDetector:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(3, 14))
    def test_detects_cycles(self, n):
        group = detect_symmetry(generators.cycle_graph(n))
        assert group is not None
        group.verify(generators.cycle_graph(n))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 10))
    def test_detects_complete(self, n):
        net = generators.complete_graph(n)
        group = detect_symmetry(net)
        assert group is not None and group.name == f"S{n}"
        assert orbit_partition(net, group).num_orbits == 1

    @settings(max_examples=20, deadline=None)
    @given(r=st.integers(3, 5), c=st.integers(3, 5))
    def test_detects_torus_as_transitive(self, r, c):
        net = generators.torus_graph(r, c)
        group = detect_symmetry(net)
        assert group is not None
        assert orbit_partition(net, group).num_orbits == 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(5, 14), data=st.data())
    def test_detects_circulants(self, n, data):
        offs = data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))
        net = generators.circulant_graph(n, offs)
        group = detect_symmetry(net)
        assert group is not None
        assert orbit_partition(net, group).num_orbits == 1

    def test_returns_none_on_asymmetric_families(self):
        assert detect_symmetry(generators.path_graph(6)) is None
        assert detect_symmetry(generators.star_graph(5)) is None
        rng = np.random.default_rng(7)
        assert detect_symmetry(generators.random_tree(9, rng)) is None

    def test_detected_groups_are_always_verified(self):
        """A near-miss (cycle plus a chord) must not be reported as
        rotation-symmetric: the detector verifies before returning."""
        net = generators.cycle_graph(8)
        net.add_edge(0, 2)
        assert detect_symmetry(net) is None


# ----------------------------------------------------------------------
# parity of the array check and partition with the per-edge oracles
# ----------------------------------------------------------------------
def oracle_verify(net: Network, perm) -> None:
    """The per-edge automorphism check the array check replaced: set
    comparisons for the domain and image, then ``has_edge`` per edge."""
    nodes = set(net.nodes())
    dom = set(perm.keys())
    if dom != nodes:
        raise SymmetryError("generator domain is not V")
    image = set(perm.values())
    if image != nodes:
        if len(image) < len(dom):
            raise SymmetryError("generator is not injective")
        raise SymmetryError("generator image is not V")
    for u, v in net.edges():
        if not net.has_edge(perm[u], perm[v]):
            raise SymmetryError(f"generator maps edge ({u!r}, {v!r}) to non-edge")


def oracle_orbits(net: Network, group: AutomorphismGroup):
    """The union-find orbit partition the connected-components one
    replaced: ``(reps, orbit_of, sizes)``."""
    nodes = net.nodes()
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for g in group.generators:
        for v in nodes:
            w = g.get(v)
            if w is None or w not in parent:
                continue
            rv, rw = find(v), find(w)
            if rv != rw:
                parent[rw] = rv
    reps, index, orbit_of, counts = [], {}, {}, []
    for v in nodes:
        root = find(v)
        if root not in index:
            index[root] = len(reps)
            reps.append(v)
            counts.append(0)
        orbit_of[v] = index[root]
        counts[index[root]] += 1
    return tuple(reps), orbit_of, tuple(counts)


def category(check, net, perm):
    """``None`` when ``check`` accepts, else the violation's category."""
    try:
        check(net, perm)
    except SymmetryError as exc:
        msg = str(exc)
        for tag in ("domain", "not injective", "image is not V", "non-edge"):
            if tag in msg:
                return tag
        raise AssertionError(f"uncategorized SymmetryError: {msg}")
    return None


@st.composite
def relabelled(draw, pair):
    """``pair`` as is, or relabelled onto string nodes in a shuffled
    insertion order (a dict-form network whose labels are not rows)."""
    net, group = pair
    if not draw(st.booleans()):
        return net, group
    nodes = net.nodes()
    order = draw(st.permutations(range(len(nodes))))
    phi = {v: f"v{v}" for v in nodes}
    out = Network(nodes=[phi[nodes[i]] for i in order],
                  edges=[(phi[u], phi[v]) for u, v in net.edges()])
    conj = AutomorphismGroup(
        tuple({phi[v]: phi[g[v]] for v in nodes} for g in group.generators),
        name=group.name,
    )
    return out, conj


@st.composite
def candidate_maps(draw):
    """A network and a candidate map: a group word, a random permutation,
    or a corrupted map (partial domain, extra key, key coerced by
    ``np.fromiter`` such as ``1.5`` or ``'3'``, non-injective, image
    outside V, wrong size)."""
    net, group = draw(relabelled(draw(declared_network())))
    nodes = net.nodes()
    kind = draw(st.sampled_from([
        "word", "permutation", "partial", "extra", "coerced",
        "non-injective", "outside-image", "wrong-size",
    ]))
    word = draw(st.lists(st.integers(0, len(group.generators) - 1), max_size=4))
    perm = compose_word(group, nodes, word)
    if kind == "permutation":
        perm = dict(zip(nodes, draw(st.permutations(nodes))))
    elif kind == "partial":
        for v in draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3)):
            perm.pop(v, None)
    elif kind == "extra":
        perm["not-a-node"] = nodes[0]
    elif kind == "coerced":
        v = draw(st.sampled_from(nodes))
        if isinstance(v, int):
            alias = draw(st.sampled_from([str(v), v + 0.5]))
        else:
            alias = v + "!"
        perm[alias] = perm.pop(v)
    elif kind == "non-injective":
        perm = {v: draw(st.sampled_from(nodes)) for v in nodes}
    elif kind == "outside-image":
        perm[draw(st.sampled_from(nodes))] = ("outside",)
    elif kind == "wrong-size":
        perm.pop(draw(st.sampled_from(nodes)))
        perm[("extra", 1)] = nodes[0]
        perm[("extra", 2)] = nodes[1]
    return net, perm


class TestArrayCheckParity:
    @settings(max_examples=150, deadline=None)
    @given(case=candidate_maps())
    def test_accepts_and_rejects_exactly_as_the_oracle(self, case):
        net, perm = case
        got = category(verify_automorphism, net, perm)  # CSR only, first
        assert got == category(oracle_verify, net, perm)

    @settings(max_examples=60, deadline=None)
    @given(case=candidate_maps())
    def test_lenient_partition_matches_union_find(self, case):
        """Any map — valid or not — partitions V exactly as union-find
        over its in-V pairs did (the lenient read of a stale group)."""
        net, perm = case
        group = AutomorphismGroup((perm,))
        part = orbit_partition(net, group)
        assert (part.reps, part.orbit_of, part.sizes) == oracle_orbits(net, group)
        assert list(part.orbit_of) == net.nodes()


class TestPartitionParity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_partition_matches_union_find(self, data):
        family = data.draw(st.sampled_from(["rotation", "grid", "torus"]))
        if family == "rotation":
            n = data.draw(st.integers(2, 40))
            d = data.draw(st.integers(1, n))
            net, group = generators.cycle_graph(max(n, 3)), cyclic_rotation(max(n, 3), d)
        elif family == "grid":
            r, c = data.draw(st.integers(1, 7)), data.draw(st.integers(2, 7))
            net, group = generators.grid_graph(r, c), grid_reflections(r, c)
        else:
            r, c = data.draw(st.integers(3, 6)), data.draw(st.integers(3, 6))
            net, group = generators.torus_graph(r, c), torus_translations(r, c)
        net, group = data.draw(relabelled((net, group)))
        oracle = oracle_orbits(net, group)
        net.declare_symmetry(group)
        for part in (net.orbit_partition(), orbit_partition(net, group)):
            assert (part.reps, part.orbit_of, part.sizes) == oracle
            assert [part.nodes[r] for r in part.rep_rows.tolist()] == list(part.reps)
            assert part.orbit_of_row.tolist() == [oracle[1][v] for v in net.nodes()]

    def test_cyclic_rotation_subgroups_have_gcd_orbits(self):
        for n, d in ((12, 3), (12, 8), (30, 4), (7, 7)):
            part = orbit_partition(generators.cycle_graph(n), cyclic_rotation(n, d))
            assert part.num_orbits == np.gcd(n, d)
            assert part.sizes == (n // np.gcd(n, d),) * int(np.gcd(n, d))
