import random

import numpy as np
import pytest

from splithc.errors import IndexOutOfRange, SelfLoop
from splithc.generators import big_delta2_instance
from splithc.graph import (
    Graph,
    HamCycle,
    _cycle_defect,
    graph_from_edges,
    graph_from_split,
    validate_ham_cycle,
)
from splithc.solver import solve

from conftest import brute_find_star, explicit_twin, permute_graph
from reference_graph import (
    complete_graph,
    cycle_graph,
    find_induced_star,
    induced_subgraph,
    probe_cycle_defect,
)


def test_graph_from_edges_triangle():
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3 and g.m == 3
    assert g.has_edge(0, 1) and g.has_edge(2, 0)


def test_graph_from_edges_c4_and_dedup():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)])
    assert g.m == 4
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_graph_from_edges_errors():
    with pytest.raises(SelfLoop):
        graph_from_edges(1, [(0, 0)])
    with pytest.raises(IndexOutOfRange):
        graph_from_edges(2, [(0, 2)])
    for bad in ([(0, -1)], np.array([[-2, 1]])):
        with pytest.raises(IndexOutOfRange, match=r"edge \(-?\d+, -?\d+\) outside"):
            graph_from_edges(3, bad)
    with pytest.raises(IndexOutOfRange):
        graph_from_edges(-1, [])


def test_induced_subgraph_examples():
    k3 = complete_graph(3)
    sub, mapping = induced_subgraph(k3, [0, 1])
    assert sub.m == 1 and mapping == (0, 1)
    c4 = cycle_graph(4)
    sub, _ = induced_subgraph(c4, [0, 1, 2])
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]


def test_c5_minus_any_vertex_is_p4():
    # Derived by enumeration: every 4-subset of C5 induces a path on 4.
    c5 = cycle_graph(5)
    for drop in range(5):
        keep = [v for v in range(5) if v != drop]
        sub, _ = induced_subgraph(c5, keep)
        degs = sorted(sub.degree(v) for v in range(4))
        assert degs == [1, 1, 2, 2] and sub.m == 3


def test_induced_subgraph_identity():
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    sub, mapping = induced_subgraph(g, range(5))
    assert mapping == (0, 1, 2, 3, 4)
    assert sorted(sub.edges()) == sorted(g.edges())


def test_validate_ham_cycle_examples():
    assert validate_ham_cycle(complete_graph(3), [0, 1, 2])
    assert not validate_ham_cycle(cycle_graph(4), [0, 1, 3, 2])
    assert validate_ham_cycle(complete_graph(4), [0, 2, 1, 3])
    k4 = complete_graph(4)
    # Entries beyond int64 are out of range, not an OverflowError.
    assert not validate_ham_cycle(k4, [0, 1, 2, 2**70])
    assert not validate_ham_cycle(k4, [0, 1, 2, np.uint64(2**64 - 1)])


def test_validate_rejects_malformed():
    k4 = complete_graph(4)
    assert not validate_ham_cycle(k4, [0, 1, 2])          # short
    assert not validate_ham_cycle(k4, [0, 1, 2, 2])       # repeat
    assert not validate_ham_cycle(k4, [0, 1, 0, 2])       # repeat, every pair an edge
    assert not validate_ham_cycle(k4, [0, 1, 2, 9])       # out of range
    assert not validate_ham_cycle(k4, HamCycle((0, 1, 2, "x")))  # type: ignore[arg-type]
    assert not validate_ham_cycle(k4, [0, 1, 2, -1])      # negative
    assert not validate_ham_cycle(k4, [0, 1, 2, 3, 0])    # long
    assert not validate_ham_cycle(k4, [0, 1, 2, 3.0])     # float  # type: ignore[list-item]
    assert not validate_ham_cycle(k4, [0, True, 2, 3])    # bool, not a vertex id
    assert validate_ham_cycle(complete_graph(3), (0, 1, 2))
    assert not validate_ham_cycle(complete_graph(3), (False, True, 2))
    assert not validate_ham_cycle(complete_graph(3), (np.bool_(False), 1, 2))


def test_validate_invariant_under_relabeling():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(4, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = graph_from_edges(n, edges)
        cycle = list(range(n))
        rng.shuffle(cycle)
        perm = list(range(n))
        rng.shuffle(perm)
        before = validate_ham_cycle(g, cycle)
        after = validate_ham_cycle(permute_graph(g, perm), [perm[v] for v in cycle])
        assert before == after


def _edge_set(g) -> set[tuple[int, int]]:
    """Both orientations of every edge, read from ``g.edges()``."""
    pairs = set(g.edges())
    return pairs | {(v, u) for u, v in pairs}


def _brute_valid(adj: set[tuple[int, int]], n: int, order) -> bool:
    return (n >= 3 and sorted(int(v) for v in order) == list(range(n))
            and all((int(order[i]), int(order[(i + 1) % n])) in adj for i in range(n)))


def _all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.divmod(np.arange(n * n, dtype=np.int64), n)


def _random_graph(rng: random.Random, n: int, density: float, cycle=()):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    edges += [(cycle[i], cycle[(i + 1) % n]) for i in range(len(cycle))]
    return graph_from_edges(n, edges)


def test_has_edges_matches_edge_set():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 25)
        g = _random_graph(rng, n, rng.random())
        adj = _edge_set(g)
        us, vs = _all_pairs(n)
        got = g.has_edges(us, vs)
        assert got.dtype == bool
        assert got.tolist() == [(u, v) in adj for u, v in zip(us.tolist(), vs.tolist())]


def test_has_edges_row_boundaries():
    # Vertex 0 is isolated; the last vertex is a star centre, so its row
    # ends at len(indices) and its degree is a power of two.
    for d in (1, 2, 4, 8, 16, 32, 64):
        n = d + 2
        star = graph_from_edges(n, [(n - 1, w) for w in range(1, n - 1)])
        assert star.degree(0) == 0 and star.degree(n - 1) == d
        assert star.indptr[n] == len(star.indices)
        for g in (star, complete_graph(d + 1)):
            adj = _edge_set(g)
            us, vs = _all_pairs(g.n)
            assert g.has_edges(us, vs).tolist() == [
                (u, v) in adj for u, v in zip(us.tolist(), vs.tolist())]


def test_edgeless_graph_is_rejected_not_raised():
    for n in (0, 1, 3, 5):
        g = graph_from_edges(n, [])
        assert len(g.indices) == 0
        us, vs = _all_pairs(n)
        assert not g.has_edges(us, vs).any()
        assert not validate_ham_cycle(g, list(range(n)))
    assert g.has_edges([], []).shape == (0,)


def test_validate_matches_brute_force():
    rng = random.Random(5)
    for trial in range(400):
        n = rng.randrange(3, 10)
        cycle = list(range(n))
        rng.shuffle(cycle)
        g = _random_graph(rng, n, rng.random(), cycle if trial % 2 else ())
        adj = _edge_set(g)
        order = list(range(n))
        rng.shuffle(order)
        i, j = rng.sample(range(n), 2)
        swapped = cycle[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for o in (order, cycle, swapped):
            want = _brute_valid(adj, n, o)
            assert validate_ham_cycle(g, o) == want
            assert validate_ham_cycle(g, [np.int64(v) for v in o]) == want
            assert validate_ham_cycle(g, HamCycle(tuple(np.array(o, dtype=np.int64)))) == want


def _count_probes(monkeypatch) -> list[int]:
    """Patch ``Graph.has_edges`` to log the number of pairs of every call."""
    calls: list[int] = []
    probe = Graph.has_edges

    def counting(self, us, vs):
        calls.append(len(us))
        return probe(self, us, vs)

    monkeypatch.setattr(Graph, "has_edges", counting)
    return calls


def _malformed_orders(rng: random.Random, n: int, cycle: list[int]) -> list[list]:
    """``cycle`` and orders of every kind a validator must judge."""
    perm = list(range(n))
    rng.shuffle(perm)
    orders = [cycle, perm, [rng.randrange(n) for _ in range(n)], [np.int64(v) for v in cycle],
              cycle[:-1], cycle + cycle[:1]]
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        swapped, repeated = cycle[:], cycle[:]
        swapped[i], swapped[j] = cycle[j], cycle[i]
        repeated[i] = cycle[j]
        orders += [swapped, repeated]
    if n:
        i = rng.randrange(n)
        for bad in (n, -1, -n - 1, 2**70, np.uint64(2**64 - 1), float(cycle[i]), True):
            o = cycle[:]
            o[i] = bad
            orders.append(o)
    return orders


def test_cycle_defect_matches_probe_reference():
    # Explicit graphs (block None) and block graphs with every block size,
    # half of them holding the cycle drawn; the block graphs' explicit
    # twins must give the same answer.
    rng = random.Random(23)
    for n in range(14):
        for b in [None, *range(n + 1)]:
            for _ in range(3):
                cycle = list(range(n))
                rng.shuffle(cycle)
                density = rng.random()
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
                if n >= 3 and rng.random() < 0.5:
                    edges += [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
                g = (graph_from_edges(n, edges) if b is None
                     else graph_from_split(n, rng.sample(range(n), b), edges))
                twin = explicit_twin(g)
                for o in _malformed_orders(rng, n, cycle):
                    want = probe_cycle_defect(g, o)
                    assert _cycle_defect(g, o) == want, (n, b, o)
                    assert _cycle_defect(twin, o) == want, (n, b, o)


def test_valid_cycle_probes_no_pair(monkeypatch):
    calls = _count_probes(monkeypatch)
    assert validate_ham_cycle(complete_graph(5), [0, 2, 4, 1, 3]) and calls == []
    # K = 0..3 is the block, so the cycle's pairs 1-2 and 3-0 are not stored.
    g = graph_from_split(6, [0, 1, 2, 3], [(0, 4), (1, 4), (2, 5), (3, 5)])
    assert 2 not in g.stored_row(1).tolist()
    assert validate_ham_cycle(g, [0, 4, 1, 2, 5, 3]) and calls == []
    # A failed match names the first bad pair from its own hits, unprobed.
    assert _cycle_defect(g, [0, 4, 2, 1, 5, 3]) == "4 2 is not an edge" and calls == []


def test_validate_big_ladder_with_one_non_edge(monkeypatch):
    k = 2500
    g = big_delta2_instance(k, 1000, 700)
    n = g.n
    # The ladder keeps its clique implicit; its explicit twin stores every row.
    twin = explicit_twin(g)
    assert twin.block.size == 0 and g == twin

    def adjacent(u: int, v: int) -> bool:
        # Linear scan of the twin's CSR row: no binary search involved.
        return bool((twin.indices[twin.indptr[u]:twin.indptr[u + 1]] == v).any())

    def non_edges(o) -> int:
        return sum(not adjacent(o[i], o[(i + 1) % n]) for i in range(n))

    order = list(solve(g).cycle.order)
    calls = _count_probes(monkeypatch)
    assert validate_ham_cycle(g, order) and non_edges(order) == 0 and calls == []
    # Reversing order[i+1..j] swaps the edges (a_i, a_i+1), (a_j, a_j+1) for
    # (a_i, a_j), (a_i+1, a_j+1).  With a_i, a_j, a_j+1 in the clique 0..k-1
    # and a_i+1 independent and not adjacent to a_j+1, exactly one cycle
    # edge becomes a non-edge.
    i = next(i for i in range(n - 1) if order[i] < k <= order[i + 1])
    j = next(j for j in range(i + 2, n - 1)
             if order[j] < k and order[j + 1] < k and not adjacent(order[i + 1], order[j + 1]))
    broken = order[:i + 1] + order[i + 1:j + 1][::-1] + order[j + 1:]
    assert sorted(broken) == list(range(n)) and non_edges(broken) == 1
    assert not validate_ham_cycle(g, broken)
    assert _cycle_defect(g, broken) == _cycle_defect(twin, broken) == probe_cycle_defect(g, broken)
    # The same cycle rotated so the non-edge is the closing pair.
    wrap = broken[j + 1:] + broken[:j + 1]
    assert not adjacent(wrap[-1], wrap[0]) and non_edges(wrap) == 1
    assert not validate_ham_cycle(g, wrap)
    assert not validate_ham_cycle(g, [np.int64(v) for v in wrap])
    assert _cycle_defect(g, wrap) == _cycle_defect(twin, wrap) == probe_cycle_defect(g, wrap)


def test_find_induced_star_examples():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    hit = find_induced_star(star, 3)
    assert hit == (0, (1, 2, 3))
    assert find_induced_star(complete_graph(4), 2) is None
    book4 = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    # Derived by brute force over (center, arm-subset) pairs.
    assert brute_find_star(book4, 2) is not None
    assert find_induced_star(book4, 2) == (0, (2, 3))


def test_find_induced_star_agrees_with_brute():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(3, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = graph_from_edges(n, edges)
        for s in (2, 3, 4):
            mine = find_induced_star(g, s)
            brute = brute_find_star(g, s)
            assert (mine is None) == (brute is None)
            if mine is not None:
                center, arms = mine
                assert all(g.has_edge(center, a) for a in arms)
                assert all(not g.has_edge(a, b) for a in arms for b in arms if a < b)
