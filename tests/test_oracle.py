import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc.graph import Graph, graph_from_edges, validate_ham_cycle
from splithc.oracle import OracleBudget, oracle_solve
from splithc.reduction import reduce_to_split
from splithc.split import NotSplit, SplitPartition, _partition_from, recognize_split

from conftest import brute_has_ham_cycle, mk_split, near_split_graphs, permute_graph
from reference_graph import (
    complete_graph,
    cycle_graph,
    enumerate_small_split,
    path_graph,
    petersen_graph,
)
from reference_oracle import CountResult, oracle_count


def test_k3_and_p3():
    assert oracle_solve(complete_graph(3)).kind == "cycle"
    assert oracle_solve(path_graph(3)).kind == "no_cycle"


def test_order_search_refutes_up_front():
    # A disconnected graph of minimum degree 3, and a pendant vertex 0,
    # are refuted before the search spends a node.
    two_k4 = graph_from_edges(8, [e for base in (0, 4)
                                  for e in combinations(range(base, base + 4), 2)])
    pendant = graph_from_edges(5, [(0, 1), *combinations(range(1, 5), 2)])
    for g in (two_k4, pendant):
        res = oracle_solve(g)
        assert res.kind == "no_cycle" and res.nodes == 0


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
    trap = _hall_trap(5)
    res = oracle_solve(trap, OracleBudget(nodes=1, seconds=60), partition=recognize_split(trap))
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
    g = mk_split(4, [(0, 1), (2, 3)])
    with pytest.raises(InvalidCertificate):
        oracle_solve(g, partition=recognize_split(g))


def _split_partitions(g: Graph):
    """Every (clique, independent set) partition of ``g``: the maximum
    ones that ``recognize_split`` returns and all the others."""
    for mask in range(1 << g.n):
        k = [v for v in range(g.n) if mask >> v & 1]
        i = [v for v in range(g.n) if not mask >> v & 1]
        if (all(g.has_edge(a, b) for a, b in combinations(k, 2))
                and not any(g.has_edge(a, b) for a, b in combinations(i, 2))):
            yield _partition_from(g, k)


def _hall_trap(s: int) -> Graph:
    """s independent vertices all on the same s clique vertices, plus three
    spare clique vertices: s pairs inside s vertices must close a cycle, so
    there is no Hamiltonian cycle, and the pair search finds that out only
    by trying every path through those s vertices."""
    return mk_split(s + 3, [range(s)] * s)


def _assert_pair_search(g: Graph, p: SplitPartition, want: bool,
                        budget: OracleBudget | None = None) -> None:
    res = oracle_solve(g, budget, partition=p)
    assert res.decided and res.has_cycle == want, (sorted(g.edges()), p.clique)
    if res.has_cycle:
        assert validate_ham_cycle(g, res.cycle)


def test_pair_search_every_small_split_partition():
    small_k = balanced = 0
    for n in range(1, 8):
        for g in enumerate_small_split(n):
            want = brute_has_ham_cycle(g)
            assert oracle_solve(g).has_cycle == want
            for p in _split_partitions(g):
                _assert_pair_search(g, p, want)
                small_k += len(p.clique) <= 2
                balanced += len(p.clique) == len(p.independent)
    assert small_k and balanced


@settings(deadline=None, max_examples=300)
@given(near_split_graphs(max_n=8))
def test_pair_search_on_near_split_graphs(g: Graph):
    p = recognize_split(g)
    if isinstance(p, NotSplit):
        return
    want = brute_has_ham_cycle(g)
    assert oracle_solve(g).has_cycle == want
    _assert_pair_search(g, p, want)


# The generator families and sizes of the benchmark's small-mix workload
# (bench/workloads.py); bipartite sources contribute both reduction images.
SMALL_MIX = [
    ("SplitDelta3InPremise", {"k": 12, "i": 10}, [0]),
    ("SplitDelta2", {"k": 12, "i": 8}, range(1, 11)),
    ("SplitDelta2", {"k": 16, "i": 12, "p3": 0.5}, range(1, 9)),
    ("ClawFreeSplit", {"k": 8, "i": 2}, range(1, 5)),
    ("ClawFreeSplit", {"k": 9, "i": 3}, range(1, 5)),
    ("ClawFreeSplit", {"k": 12, "i": 5}, range(1, 5)),
    ("SplitK14Free", {"k": 9, "i": 6}, range(1, 13)),
    ("SplitDelta3InPremise", {"k": 10, "i": 8}, range(1, 7)),
    ("SplitDelta3InPremise", {"k": 11, "i": 9}, range(1, 3)),
    ("SplitRandom", {"k": 7, "i": 5}, range(1, 25)),
    ("PlantedHC", {"n": 12}, range(1, 25)),
    ("BipartiteDeg3", {"na": 8, "nb": 8, "plant": 1}, range(1, 9)),
    ("BipartiteDeg3", {"na": 8, "nb": 8}, range(1, 5)),
]


def test_pair_search_on_small_mix_families():
    budget = OracleBudget(nodes=2_000_000, seconds=60)
    graphs = 0
    for family, params, seeds in SMALL_MIX:
        for seed in seeds:
            inst = generate(GenSpec(family, params, seed))
            if family == "BipartiteDeg3":
                red = reduce_to_split(inst)
                images = [red.h1, red.h2]
            else:
                images = [inst.graph]
            for g in images:
                old = oracle_solve(g, budget)
                assert old.decided, (family, params, seed)
                if g.n <= 9:
                    assert old.has_cycle == brute_has_ham_cycle(g)
                _assert_pair_search(g, recognize_split(g), old.has_cycle, budget)
                graphs += 1
    assert graphs == 123


def test_pair_search_deadline_is_exhaustion():
    # Past the deadline the search stops at its next clock check (every
    # 2048 nodes) and reports exhaustion, never a negative answer.
    g = _hall_trap(5)
    p = recognize_split(g)
    full = oracle_solve(g, partition=p)
    assert full.kind == "no_cycle" and full.nodes > 2048
    res = oracle_solve(g, OracleBudget(seconds=1e-9), partition=p)
    assert res.kind == "exhausted" and res.nodes == 2048


def test_pair_search_node_counts():
    # Draws the vertex-order search exhausts 2M nodes on; counted, not timed.
    specs = [GenSpec("SplitRandom", {"k": 20, "i": 15}, s) for s in range(1, 5)]
    specs += [GenSpec("PlantedHC", {"n": 28}, s) for s in range(1, 5)]
    for spec in specs:
        g = generate(spec).graph
        res = oracle_solve(g, OracleBudget(nodes=100), partition=recognize_split(g))
        assert res.decided and res.nodes <= 100, spec
        if res.has_cycle:
            assert validate_ham_cycle(g, res.cycle)


def test_pair_search_depth_is_not_bound_by_recursion():
    # 1100 independent vertices, one search level each.
    g = big_delta2_instance(1101, 1100)
    _assert_pair_search(g, recognize_split(g), True)


def test_order_search_depth_is_not_bound_by_recursion():
    # 1200 path vertices, one search level each.
    g = cycle_graph(1200)
    res = oracle_solve(g)
    assert res.kind == "cycle" and validate_ham_cycle(g, res.cycle)
