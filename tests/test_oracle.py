import random

import pytest

from splithc.graph import (
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    petersen_graph,
    validate_ham_cycle,
)
from splithc.oracle import CountResult, OracleBudget, oracle_count, oracle_solve
from splithc.split import recognize_split

from conftest import brute_has_ham_cycle, permute_graph


def test_k3_and_p3():
    assert oracle_solve(complete_graph(3)).kind == "cycle"
    assert oracle_solve(path_graph(3)).kind == "no_cycle"


def test_petersen_no_cycle():
    res = oracle_solve(petersen_graph())
    assert res.kind == "no_cycle"


def test_counts():
    assert oracle_count(cycle_graph(5)).count == 1
    assert oracle_count(complete_graph(4)).count == 3    # (4-1)!/2
    assert oracle_count(complete_graph(5)).count == 12   # (5-1)!/2


def test_cycle_output_validates():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randrange(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = graph_from_edges(n, edges)
        res = oracle_solve(g)
        if res.kind == "cycle":
            assert validate_ham_cycle(g, res.cycle)


def test_matches_permutation_brute_force():
    rng = random.Random(2)
    for _ in range(120):
        n = rng.randrange(3, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((0.35, 0.6))]
        g = graph_from_edges(n, edges)
        assert oracle_solve(g).has_cycle == brute_has_ham_cycle(g)


def test_relabeling_invariance():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(4, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert oracle_solve(g).has_cycle == oracle_solve(permute_graph(g, perm)).has_cycle


def test_budget_exhaustion_is_reported():
    # A graph the oracle cannot finish in one node: never claims no-cycle.
    g = complete_graph(9)
    res = oracle_solve(g, OracleBudget(nodes=1, seconds=60))
    assert res.kind == "exhausted"
    with pytest.raises(ValueError):
        OracleBudget(nodes=0)


def test_split_pigeonhole_pruning():
    # |I| > |K| refutes without search: the 5-vertex star has K = {hub,
    # one leaf} and three independent leaves.
    star5 = graph_from_edges(5, [(0, j) for j in range(1, 5)])
    p = recognize_split(star5)
    assert len(p.independent) > len(p.clique)
    res = oracle_solve(star5, partition=p)
    assert res.kind == "no_cycle" and res.nodes == 0


def test_count_budget_exhaustion():
    res = oracle_count(complete_graph(9), OracleBudget(nodes=5, seconds=60))
    assert isinstance(res, CountResult) and res.kind == "exhausted"


def test_invalid_cycle_raises_even_under_optimization(monkeypatch):
    # An explicit check, not an assert that ``python -O`` would strip.
    from splithc import oracle
    from splithc.errors import InvalidCertificate

    monkeypatch.setattr(oracle, "validate_ham_cycle", lambda g, cycle: False)
    with pytest.raises(InvalidCertificate):
        oracle_solve(complete_graph(4))
