import random

import pytest

from splithc.errors import IndexOutOfRange, SelfLoop
from splithc.graph import (
    HamCycle,
    OrientedPath,
    graph_from_edges,
    induced_subgraph,
    validate_ham_cycle,
)

from conftest import brute_find_star, is_path_in, permute_graph
from reference_graph import complete_graph, cycle_graph, find_induced_star, path_graph


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


def test_validate_rejects_malformed():
    k4 = complete_graph(4)
    assert not validate_ham_cycle(k4, [0, 1, 2])          # short
    assert not validate_ham_cycle(k4, [0, 1, 2, 2])       # repeat
    assert not validate_ham_cycle(k4, [0, 1, 2, 9])       # out of range
    assert not validate_ham_cycle(k4, HamCycle((0, 1, 2, "x")))  # type: ignore[arg-type]


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


def test_oriented_path_ops():
    p = OrientedPath((2, 5, 7, 1))
    assert p.head == 2 and len(p) == 4 and list(p) == [2, 5, 7, 1]
    g = path_graph(4)
    assert is_path_in(g, (0, 1, 2, 3))
    assert not is_path_in(g, (0, 2))
    assert not is_path_in(g, (0, 1, 0))
