import random
from functools import cached_property
from heapq import heappop
from itertools import combinations

import numpy as np
import pytest

from splithc import paths as paths_module
from splithc.errors import InvalidCertificate, PremiseViolated
from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc.graph import graph_from_edges, validate_ham_cycle
from splithc.oracle import oracle_solve
from splithc.paths import (
    DegreeTwoSubgraph,
    ShortCycleWitness,
    assemble_paths,
    build_degree_two_subgraph,
    find_short_cycle,
    hc_delta2,
)
from splithc.split import recognize_split

from conftest import check_path_system, is_path_in, mk_split
from reference_graph import connected_components, induced_subgraph


def test_degree_two_subgraph_examples():
    g = mk_split(4, [(0, 1, 2), (1, 2, 3)])  # all I degrees >= 3
    p = recognize_split(g)
    h = build_degree_two_subgraph(g, p)
    assert h.n == 6 and h.va.tolist() == [] and h.ends.size == 0
    assert h.missed(p.clique) == [0, 1, 2, 3] and h.components == ((), ())

    g = mk_split(3, [(0, 1), (1, 2)])
    p = recognize_split(g)
    h = build_degree_two_subgraph(g, p)
    # Each independent vertex with its two clique ends, ascending; the
    # clique vertices 0, 1, 2 are all on H, 1 with H-degree 2.
    assert h.va.tolist() == [3, 4] and h.ends.tolist() == [[0, 1], [1, 2]]
    assert h.missed(p.clique) == []
    assert np.bincount(h.ends.ravel()).tolist() == [1, 2, 1]

    g = mk_split(3, [(0, 1), (0, 1)])
    p = recognize_split(g)
    h = build_degree_two_subgraph(g, p)
    assert h.va.tolist() == [3, 4] and h.ends.tolist() == [[0, 1], [0, 1]]
    assert h.missed(p.clique) == [2]
    assert h.components == ((), ((0, 3, 1, 4),))


def test_components_order_on_relabeled_ids():
    # Clique {2, 3, 4, 6, 8, 10, 11}.  Independent 0 and 5 close the cycle
    # 0-3-5-8; independent 1 sits inside the path 4-7-10-1-6 and 9 inside
    # 2-9-11.  So an independent vertex is the smallest on the cycle and
    # on a path: the cycle starts at 0, not at clique vertex 3, and the
    # path is walked from its smaller end 4 and ordered after 2-9-11.
    k = [2, 3, 4, 6, 8, 10, 11]
    rows = {0: (3, 8), 5: (3, 8), 7: (4, 10), 1: (6, 10), 9: (2, 11)}
    g = graph_from_edges(12, [*combinations(k, 2), *((u, w) for u, ws in rows.items() for w in ws)])
    p = recognize_split(g)
    assert p.clique.tolist() == k
    h = build_degree_two_subgraph(g, p)
    assert h.components == (((2, 9, 11), (4, 7, 10, 1, 6)), ((0, 3, 5, 8),))
    assert h.components is h.components
    assert find_short_cycle(g, p, h=h) == ShortCycleWitness((3, 0, 8, 5), 2)
    with pytest.raises(PremiseViolated, match="^cycle in degree-two subgraph during path assembly$"):
        assemble_paths(g, p, h=h)


def test_hc_delta2_walks_h_once(monkeypatch):
    walks = []
    walk = DegreeTwoSubgraph.components.func

    def counted(h):
        walks.append(h)
        return walk(h)

    prop = cached_property(counted)
    prop.__set_name__(DegreeTwoSubgraph, "components")
    monkeypatch.setattr(DegreeTwoSubgraph, "components", prop)
    for g in (big_delta2_instance(40, 20, 5), mk_split(3, [(0, 1), (1, 2), (0, 2)])):
        walks.clear()
        assert validate_ham_cycle(g, hc_delta2(g, recognize_split(g)))
        assert len(walks) == 1


def test_find_short_cycle_examples():
    g = mk_split(3, [(0, 1), (1, 2)])  # H acyclic
    assert find_short_cycle(g, recognize_split(g)) is None

    g = mk_split(3, [(0, 1), (0, 1)])
    w = find_short_cycle(g, recognize_split(g))
    assert w == ShortCycleWitness((0, 3, 1, 4), 2)
    assert oracle_solve(g).kind == "no_cycle"

    # Boundary: the whole clique on the cycle is not a short cycle.
    g = mk_split(3, [(0, 1), (1, 2), (0, 2)])
    assert find_short_cycle(g, recognize_split(g)) is None


def test_short_cycle_witness_toughness():
    # Removing the cycle's clique vertices leaves more components than
    # removed vertices (the structural reason the verdict is negative).
    rng = random.Random(5)
    seen = 0
    for _ in range(300):
        k = rng.randrange(3, 8)
        i = rng.randrange(2, k + 1)
        g = generate(GenSpec("SplitDelta2", {"k": k, "i": i, "p3": 0.2},
                             rng.randrange(10**6))).graph
        p = recognize_split(g)
        w = find_short_cycle(g, p)
        if w is None:
            continue
        seen += 1
        s = [v for v in w.cycle if p.in_clique[v]]
        keep = [v for v in range(g.n) if v not in s]
        sub, _ = induced_subgraph(g, keep)
        assert len(connected_components(sub)) > len(s)
        assert p.in_clique[w.excluded] and w.excluded not in w.cycle
    assert seen >= 5


def test_assemble_paths_examples():
    # Whole independent side has degree 2, H one path.
    g = mk_split(3, [(0, 1)])
    ps = assemble_paths(g, recognize_split(g))
    orders = sorted(ps.paths)
    assert (0, 3, 1) in orders and (2,) in orders
    assert all(is_path_in(g, q) for q in ps.paths)
    assert not is_path_in(g, (0, 3, 2))  # 3 and 2 are not adjacent
    assert not is_path_in(g, (0, 3, 0))  # a repeated vertex

    # Insertion rule V1: frozen by hand-simulating the stated rule.
    g = mk_split(4, [(0, 1), (0, 1, 2)])
    p = recognize_split(g)
    ps = assemble_paths(g, p)
    check_path_system(g, p, ps)
    assert list(ps.paths) == [(1, 4, 0, 5, 2), (3,)]
    assert ps.insertions == (("V1", 5, 1, 1),)

    # V0 rule: fresh 3-path on the two smallest neighbors.
    g = mk_split(4, [(0, 1, 2)])
    ps = assemble_paths(g, recognize_split(g))
    assert list(ps.paths) == [(0, 4, 1), (2,), (3,)]
    assert ps.insertions[0][0] == "V0"


def test_insertion_counters_property():
    # V2 joins reduce the path count by one, V1 keeps it, V0 adds one.
    rng = random.Random(6)
    kinds = set()
    for _ in range(250):
        k = rng.randrange(4, 9)
        i = rng.randrange(2, k + 1)
        g = generate(GenSpec("SplitDelta2", {"k": k, "i": i, "p3": 0.5},
                             rng.randrange(10**6))).graph
        p = recognize_split(g)
        if find_short_cycle(g, p) is not None or len(p.independent) == len(p.clique):
            continue
        ps = assemble_paths(g, p)
        check_path_system(g, p, ps)
        for rule, _, before, after in ps.insertions:
            kinds.add(rule)
            assert after - before == {"V2": -1, "V1": 0, "V0": 1}[rule]
    assert {"V1", "V2", "V0"} <= kinds


def test_runs_insert_placed_vertices_without_heap_pops(monkeypatch):
    # No later vertex sees the pair of any of the 700 degree-3 vertices of
    # this ladder, so the first pop starts a run that inserts them all.
    pops = []
    monkeypatch.setattr(paths_module, "heappop", lambda heap: pops.append(1) or heappop(heap))
    g = big_delta2_instance(2500, 1000, 700)
    ps = assemble_paths(g, recognize_split(g))
    assert [rule for rule, *_ in ps.insertions] == ["V0"] * 700
    assert len(pops) <= 3


def test_assemble_rejects_delta3():
    g = mk_split(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    p = recognize_split(g)
    assert p.delta_i == 3
    with pytest.raises(PremiseViolated):
        assemble_paths(g, p)


def test_hc_delta2_spanning_cycle():
    g = mk_split(3, [(0, 1), (1, 2), (0, 2)])
    out = hc_delta2(g, recognize_split(g))
    assert validate_ham_cycle(g, out)


def test_hc_delta2_short_cycle_instance():
    g = mk_split(3, [(0, 1), (0, 1)])
    out = hc_delta2(g, recognize_split(g))
    assert isinstance(out, ShortCycleWitness)


def test_hc_delta2_join_example():
    g = mk_split(4, [(0, 1), (0, 1, 2)])
    out = hc_delta2(g, recognize_split(g))
    assert validate_ham_cycle(g, out)


def test_hc_delta2_invalid_cycle_raises(monkeypatch):
    # A constructed order that fails its check is a bug in the
    # construction, not a premise the input broke.
    from splithc import paths

    monkeypatch.setattr(paths, "validate_ham_cycle", lambda g, cycle: False)
    g = big_delta2_instance(6, 4)
    with pytest.raises(InvalidCertificate):
        hc_delta2(g, recognize_split(g))
