"""The array form of ``Network`` against loop-built oracles.

The regular generators emit whole-array edge lists and return the array
form (``Network.from_edge_arrays``), which builds its adjacency sets only
on demand.  The oracles below are the generators as they were written
before that change: node-by-node ``add_edge`` loops over the adjacency-set
form.  Every observable of the two must agree exactly — CSR arrays, node
order, the ``edges()`` list and the iteration order of every neighbour set
(churn planners pick edges by index from those lists) — and so must every
engine run on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import election
from repro.network import generators as gen
from repro.network.graph import Network
from repro.network.symmetry import cyclic_rotation, detect_symmetry
from repro.runtime import api
from repro.runtime.churn import ChurnPlan, TopologyEvent
from repro.runtime.telemetry import MetricsRegistry, network_fingerprint


# ----------------------------------------------------------------------
# oracles: the loop-built constructions
# ----------------------------------------------------------------------
def oracle_path(n):
    return Network(nodes=range(n), edges=((i, i + 1) for i in range(n - 1)))


def oracle_cycle(n):
    g = oracle_path(n)
    g.add_edge(n - 1, 0)
    return g


def oracle_circulant(n, offsets):
    offs = sorted({int(d) % n for d in offsets} - {0})
    g = Network(nodes=range(n))
    for i in range(n):
        for d in offs:
            j = (i + d) % n
            if i != j and not g.has_edge(i, j):
                g.add_edge(i, j)
    return g


def oracle_complete(n):
    return Network(
        nodes=range(n), edges=((i, j) for i in range(n) for j in range(i + 1, n))
    )


def oracle_star(n_leaves):
    return Network(edges=((0, i) for i in range(1, n_leaves + 1)))


def oracle_wheel(n_rim):
    g = oracle_star(n_rim)
    for i in range(1, n_rim):
        g.add_edge(i, i + 1)
    g.add_edge(n_rim, 1)
    return g


def oracle_grid(rows, cols):
    g = Network(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def oracle_torus(rows, cols):
    g = Network(nodes=range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            g.add_edge(v, r * cols + (c + 1) % cols)
            g.add_edge(v, ((r + 1) % rows) * cols + c)
    return g


def oracle_hypercube(dim):
    n = 1 << dim
    g = Network(nodes=range(n))
    for v in range(n):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                g.add_edge(v, u)
    return g


def oracle_binary_tree(height):
    n = (1 << (height + 1)) - 1
    g = Network(nodes=range(n))
    for v in range(n):
        for child in (2 * v + 1, 2 * v + 2):
            if child < n:
                g.add_edge(v, child)
    return g


def oracle_gnp(n, p, rng):
    g = Network(nodes=range(n))
    if p == 0.0 or n < 2:
        return g
    iu, ju = np.triu_indices(n, k=1)
    mask = np.random.default_rng(rng).random(iu.shape[0]) < p
    for u, v in zip(iu[mask], ju[mask]):
        g.add_edge(int(u), int(v))
    return g


def oracle_gnm(n, m, rng):
    chosen = np.random.default_rng(rng).choice(n * (n - 1) // 2, size=m, replace=False)
    g = Network(nodes=range(n))
    iu, ju = np.triu_indices(n, k=1)
    for idx in chosen:
        g.add_edge(int(iu[idx]), int(ju[idx]))
    return g


def oracle_lollipop(clique, tail):
    g = oracle_complete(clique)
    prev = 0
    for i in range(tail):
        g.add_edge(prev, clique + i)
        prev = clique + i
    return g


def oracle_caterpillar(spine, legs_per_node):
    g = oracle_path(spine)
    nxt = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(v, nxt)
            nxt += 1
    return g


def oracle_complete_bipartite(a, b):
    return Network(
        nodes=range(a + b), edges=((i, a + j) for i in range(a) for j in range(b))
    )


#: (name, generator, oracle, hypothesis strategy for the argument tuple)
CASES = [
    ("path", gen.path_graph, oracle_path, st.tuples(st.integers(1, 60))),
    ("cycle", gen.cycle_graph, oracle_cycle, st.tuples(st.integers(3, 60))),
    (
        "circulant", gen.circulant_graph, oracle_circulant,
        st.integers(3, 60).flatmap(lambda n: st.tuples(
            st.just(n), st.lists(st.integers(-2 * n, 2 * n), min_size=1, max_size=5)
            .filter(lambda offs: any(d % n for d in offs)),
        )),
    ),
    ("complete", gen.complete_graph, oracle_complete, st.tuples(st.integers(1, 24))),
    ("star", gen.star_graph, oracle_star, st.tuples(st.integers(1, 40))),
    ("wheel", gen.wheel_graph, oracle_wheel, st.tuples(st.integers(3, 40))),
    ("grid", gen.grid_graph, oracle_grid, st.tuples(st.integers(1, 12), st.integers(1, 12))),
    ("torus", gen.torus_graph, oracle_torus, st.tuples(st.integers(3, 12), st.integers(3, 12))),
    ("hypercube", gen.hypercube_graph, oracle_hypercube, st.tuples(st.integers(1, 7))),
    ("binary_tree", gen.binary_tree, oracle_binary_tree, st.tuples(st.integers(0, 6))),
    (
        "gnp", gen.gnp_random_graph, oracle_gnp,
        st.tuples(st.integers(0, 30), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                  st.integers(0, 2**16)),
    ),
    (
        "gnm", gen.gnm_random_graph, oracle_gnm,
        st.integers(0, 30).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(0, n * (n - 1) // 2), st.integers(0, 2**16),
        )),
    ),
    ("lollipop", gen.lollipop_graph, oracle_lollipop,
     st.tuples(st.integers(3, 12), st.integers(1, 12))),
    ("caterpillar", gen.caterpillar_graph, oracle_caterpillar,
     st.tuples(st.integers(1, 12), st.integers(0, 4))),
    ("complete_bipartite", gen.complete_bipartite_graph, oracle_complete_bipartite,
     st.tuples(st.integers(1, 10), st.integers(1, 10))),
]
CASE_IDS = [name for name, *_ in CASES]


def assert_csr_equal(lazy, oracle):
    (a, order), (b, oracle_order) = lazy.to_csr(), oracle.to_csr()
    assert order == oracle_order
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def assert_same_network(lazy, oracle):
    """Every observable agrees; node-only queries and the CSR come first,
    and must not build the adjacency sets."""
    assert_csr_equal(lazy, oracle)
    assert len(lazy) == len(oracle) and lazy.num_nodes == oracle.num_nodes
    assert lazy.num_edges == oracle.num_edges
    assert list(lazy) == list(oracle) and lazy.nodes() == oracle.nodes()
    assert lazy.node_index() == oracle.node_index()
    assert all(v in lazy for v in oracle) and -1 not in lazy and "x" not in lazy
    assert lazy.adjacency_builds == 0
    assert lazy.edges() == oracle.edges()
    assert lazy.adjacency_builds == 1
    for v in oracle:
        assert list(lazy.neighbors(v)) == list(oracle.neighbors(v))
    assert network_fingerprint(lazy) == network_fingerprint(oracle)


# ----------------------------------------------------------------------
# parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,make,oracle,args", CASES, ids=CASE_IDS)
def test_generator_matches_oracle(name, make, oracle, args):
    @settings(max_examples=25, deadline=None)
    @given(args)
    def check(argv):
        assert_same_network(make(*argv), oracle(*argv))

    check()


def test_torus_40_by_50_keeps_insertion_order():
    # sorted-CSR materialization would reorder 45 of these neighbour sets
    # and the edges() list; the creation-order replay must not
    assert_same_network(gen.torus_graph(40, 50), oracle_torus(40, 50))


def test_circulant_with_overlapping_offsets():
    # d and n - d (and d = n/2) name the same edges; the first one wins
    assert_same_network(gen.circulant_graph(12, (1, 6, 11, 5, 7)),
                        oracle_circulant(12, (1, 6, 11, 5, 7)))
    assert_same_network(gen.circulant_graph(9, range(1, 5)), oracle_complete(9))


# ----------------------------------------------------------------------
# the array form itself
# ----------------------------------------------------------------------
class TestArrayForm:
    def test_rejects_non_simple_inputs(self):
        with pytest.raises(ValueError, match="self-loop"):
            Network.from_edge_arrays(3, [0, 1], [1, 1])
        with pytest.raises(ValueError, match="parallel"):
            Network.from_edge_arrays(3, [0, 1], [1, 0])
        with pytest.raises(ValueError, match="0..2"):
            Network.from_edge_arrays(3, [0], [3])
        with pytest.raises(ValueError, match="equal length"):
            Network.from_edge_arrays(3, [0, 1], [1])

    def test_csr_counts_as_built_at_construction(self):
        net = gen.circulant_graph(64, (1, 2))
        assert net.csr_rebuilds == 1
        mat, _ = net.to_csr()
        assert net.to_csr()[0] is mat and net.csr_rebuilds == 1

    def test_becomes_a_plain_network_once_built(self):
        net = gen.cycle_graph(8)
        assert type(net) is not Network and isinstance(net, Network)
        assert net.degree(3) == 2
        assert type(net) is Network and net.adjacency_builds == 1
        net.remove_edge(0, 1)
        assert net.to_csr()[0].nnz == 14 and net.csr_rebuilds == 2

    def test_copy_shares_arrays_until_mutated(self):
        net = gen.circulant_graph(32, (1, 3))
        clone = net.copy()
        assert clone.to_csr()[0] is net.to_csr()[0]
        clone.add_edge(0, 2)
        assert clone.adjacency_builds == 1 and net.adjacency_builds == 0
        assert clone.num_edges == net.num_edges + 1
        assert not net.has_edge(0, 2) and net.adjacency_builds == 1

    def test_membership_of_non_node_values(self):
        net = gen.path_graph(5)
        assert 4 in net and np.int64(2) in net and 2.0 in net
        assert 5 not in net and 2.5 not in net and None not in net
        assert (1, 2) not in net and "1" not in net
        assert net.adjacency_builds == 0

    def test_pickle_round_trip(self):
        import pickle

        net = gen.torus_graph(4, 5)
        clone = pickle.loads(pickle.dumps(net))
        assert_same_network(clone, oracle_torus(4, 5))


# ----------------------------------------------------------------------
# mutation on a never-built network
# ----------------------------------------------------------------------
MUTATIONS = [
    ("remove_edge", lambda g: g.remove_edge(0, 1)),
    ("remove_node", lambda g: g.remove_node(5)),
    ("add_node", lambda g: g.add_node(1000)),
    ("add_edge", lambda g: g.add_edge(0, 17)),
    ("add_edge_new_node", lambda g: g.add_edge(7, "new")),
]


@pytest.mark.parametrize("mutate", [m for _, m in MUTATIONS],
                         ids=[name for name, _ in MUTATIONS])
@pytest.mark.parametrize("make,oracle", [
    (lambda: gen.torus_graph(5, 6), lambda: oracle_torus(5, 6)),
    (lambda: gen.circulant_graph(30, (1, 4)), lambda: oracle_circulant(30, (1, 4))),
    (lambda: gen.hypercube_graph(5), lambda: oracle_hypercube(5)),
], ids=["torus", "circulant", "hypercube"])
def test_mutation_matches_oracle(make, oracle, mutate):
    lazy, ref = make(), oracle()
    assert lazy.adjacency_builds == 0
    mutate(lazy)
    mutate(ref)
    assert lazy.adjacency_builds == 1
    assert_csr_equal(lazy, ref)
    assert lazy.edges() == ref.edges()
    assert all(list(lazy.neighbors(v)) == list(ref.neighbors(v)) for v in ref)


# ----------------------------------------------------------------------
# engines on the array form
# ----------------------------------------------------------------------
def test_vectorized_run_never_builds_the_sets():
    programs = election.coin_kernel_programs()
    n, offsets = 2**16, (1, 2, 3)
    lazy = gen.circulant_graph(n, offsets)
    metrics = MetricsRegistry()
    result = api.run(programs, lazy, election.coin_kernel_init(lazy), until=8,
                     randomness=2, rng=5, metrics=metrics)
    assert result.engine == "vectorized"
    assert lazy.adjacency_builds == 0
    assert lazy.csr_rebuilds == 1 and metrics.get("csr_rebuilds") == 0
    assert lazy.orbit_rebuilds == 0
    ref_net = oracle_circulant(n, offsets)
    expected = api.run(programs, ref_net, election.coin_kernel_init(ref_net),
                       until=8, randomness=2, rng=5)
    assert list(result.final_state.items()) == list(expected.final_state.items())
    assert result.rng_draws == expected.rng_draws


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_node_down_churn_run_matches_oracle(engine):
    programs = election.coin_kernel_programs()
    events = [TopologyEvent(t, "node-down", v) for t, v in ((1, 4), (2, 17), (3, 30))]
    finals = []
    for net in (gen.torus_graph(6, 7), oracle_torus(6, 7)):
        result = api.run(programs, net, election.coin_kernel_init(net),
                         engine=engine, until=6, randomness=2, rng=9,
                         fault_plan=ChurnPlan(events))
        finals.append((list(result.final_state.items()), net.edges()))
    assert finals[0] == finals[1]


def test_quotient_run_matches_oracle():
    """A quotient run reads only the CSR: after ``declare_symmetry`` it
    verifies nothing more, never builds the sets (also at n = 2^16), and
    its lifted final state equals the run on the loop-built oracle."""
    programs = election.coin_kernel_programs()
    for n in (48, 2**16):
        lazy = gen.cycle_graph(n)
        results = []
        for net in (lazy, oracle_cycle(n)):
            net.declare_symmetry(cyclic_rotation(n))
            results.append(api.run(programs, net, election.coin_kernel_init(net),
                                   engine="quotient", until=24, randomness=2, rng=2))
            assert net.symmetry_verifications == 1
            assert net.orbit_rebuilds == 1
        assert lazy.adjacency_builds == 0
        assert list(results[0].final_state.items()) == list(results[1].final_state.items())
        assert results[0].change_counts == results[1].change_counts


@pytest.mark.parametrize(
    "make, oracle",
    [
        (lambda: gen.cycle_graph(30), lambda: oracle_cycle(30)),
        (lambda: gen.torus_graph(5, 7), lambda: oracle_torus(5, 7)),
        (lambda: gen.complete_graph(9), lambda: oracle_complete(9)),
        (lambda: gen.grid_graph(4, 6), lambda: oracle_grid(4, 6)),
    ],
    ids=["cycle", "torus", "complete", "grid"],
)
def test_detect_symmetry_never_builds_the_sets(make, oracle):
    lazy = make()
    found = detect_symmetry(lazy)
    assert lazy.adjacency_builds == 0
    expected = detect_symmetry(oracle())
    assert found is not None and expected is not None
    assert found.name == expected.name
    assert found.generators == expected.generators
