import random
from itertools import combinations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc import split
from splithc.graph import Graph, graph_from_edges, graph_from_split
from splithc.reduction import BipartiteInstance, _image_partition, reduce_to_split
from splithc.split import (
    NotSplit,
    NotTwoConnected,
    recognize_split,
    split_is_two_connected,
    star_free_level,
)

from conftest import brute_find_star, brute_is_split, mk_split
from reference_graph import complete_graph, cycle_graph, is_two_connected, path_graph


def test_recognize_c4_witness():
    res = recognize_split(cycle_graph(4))
    assert isinstance(res, NotSplit) and res.kind == "C4"
    u, a, v, b = res.vertices
    g = cycle_graph(4)
    assert g.has_edge(u, a) and g.has_edge(a, v) and g.has_edge(v, b) and g.has_edge(b, u)
    assert not g.has_edge(u, v) and not g.has_edge(a, b)


def test_recognize_k4():
    p = recognize_split(complete_graph(4))
    assert p.clique.tolist() == [0, 1, 2, 3] and p.independent.tolist() == [] and p.delta_i == 0


def test_recognize_star():
    # Brute force over all clique/independent partitions of the 4-star
    # confirms the maximum clique has two vertices.
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    best = 0
    for size in range(1, 5):
        for sub in combinations(range(4), size):
            if all(star.has_edge(a, b) for a, b in combinations(sub, 2)):
                best = max(best, size)
    assert best == 2
    p = recognize_split(star)
    assert len(p.clique) == 2 and 0 in p.clique
    assert p.delta_i == 2 and star.degree(0) - (len(p.clique) - 1) == 2


def test_recognize_2k2_and_c5_witnesses():
    res = recognize_split(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert isinstance(res, NotSplit) and res.kind == "2K2"
    res = recognize_split(cycle_graph(5))
    assert isinstance(res, NotSplit) and res.kind == "C5"


def test_recognize_matches_brute_small():
    # Exhaustive on n <= 5, sampled beyond.
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = graph_from_edges(n, edges)
            got = recognize_split(g)
            assert (not isinstance(got, NotSplit)) == brute_is_split(g)


def test_recognize_matches_brute_sampled():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(6, 15)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice((0.25, 0.5, 0.75))]
        g = graph_from_edges(n, edges)
        got = recognize_split(g)
        assert (not isinstance(got, NotSplit)) == brute_is_split(g)
        if not isinstance(got, NotSplit):
            kset = set(got.clique)
            assert all(g.has_edge(a, b) for a, b in combinations(sorted(kset), 2))
            iset = set(got.independent)
            assert all(not g.has_edge(a, b) for a, b in combinations(sorted(iset), 2))


def test_partition_clique_is_maximum():
    rng = random.Random(5)
    for _ in range(80):
        k = rng.randrange(2, 7)
        i = rng.randrange(0, 5)
        g = generate(GenSpec("SplitRandom", {"k": k, "i": i, "p": 0.6}, rng.randrange(10**6))).graph
        p = recognize_split(g)
        assert not isinstance(p, NotSplit)
        best = 0
        for size in range(1, g.n + 1):
            for sub in combinations(range(g.n), size):
                if all(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                    best = max(best, size)
        assert len(p.clique) == best


def _assert_partition_contract(g: Graph, p) -> None:
    k, i = p.clique, p.independent
    for ids in (k, i):
        assert ids.dtype == np.intp and not ids.flags.writeable
        assert bool((np.diff(ids) > 0).all())
    assert not set(k.tolist()) & set(i.tolist())
    assert sorted(k.tolist() + i.tolist()) == list(range(g.n))
    assert type(p.in_clique) is bytes
    assert [v for v in range(g.n) if p.in_clique[v] == 1] == k.tolist()
    assert all(p.in_clique[v] == 0 for v in i.tolist())
    outside = [g.degree(v) - (len(k) - 1) for v in k.tolist()]
    assert type(p.delta_i) is int and p.delta_i == max(outside, default=0)


def test_partition_contract():
    # Ascending, disjoint, read-only intp arrays covering V; a bytes mask
    # that agrees with the clique; delta_i the most independent neighbours
    # of a clique vertex, 0 on an empty K.
    empty = graph_from_edges(0, [])
    p = recognize_split(empty)
    _assert_partition_contract(empty, p)
    assert p.clique.size == 0 and p.in_clique == b"" and p.delta_i == 0
    p = split._partition_from(empty, [])
    _assert_partition_contract(empty, p)
    edgeless = graph_from_edges(5, [])
    _assert_partition_contract(edgeless, recognize_split(edgeless))
    k4 = complete_graph(4)
    _assert_partition_contract(k4, recognize_split(k4))
    ladder = big_delta2_instance(40, 12, 4)
    assert ladder.block.tolist() == list(range(40))
    p = recognize_split(ladder)
    _assert_partition_contract(ladder, p)
    assert p.clique.tolist() == list(range(40)) and p.delta_i == 2
    # Reduction images, one with a vertex of the other side moved into K.
    g = graph_from_edges(6, list(combinations(range(5), 2)) + [(5, 0), (5, 4)])
    _assert_partition_contract(g, _image_partition(g, [4, 0, 3, 1], [5, 2]))
    src = BipartiteInstance(graph_from_edges(5, [(0, 3), (1, 3), (2, 4), (1, 4)]),
                            (0, 1, 2), (3, 4))
    out = reduce_to_split(src)
    for h, p in ((out.h1, out.partition1), (out.h2, out.partition2)):
        _assert_partition_contract(h, p)


def test_upgrade_examples():
    # The reduction's partition: the declared clique side plus the smallest
    # vertex of the other side that sees all of it.
    g = graph_from_edges(2, [(0, 1)])
    p = _image_partition(g, [0], [1])
    assert p.clique.tolist() == [0, 1] and p.independent.tolist() == []
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = _image_partition(star, [0], [1, 2, 3])
    assert p.clique.tolist() == [0, 1]
    k4 = complete_graph(4)
    p = _image_partition(k4, [0, 1, 2, 3], [])
    assert p.clique.tolist() == [0, 1, 2, 3]
    # Vertex 2 sees all of the candidate clique {0, 1, 3, 4}, whose ids lie
    # on both sides of it: it moves in, and the clique stays sorted.
    g = graph_from_edges(6, list(combinations(range(5), 2)) + [(5, 0), (5, 4)])
    p = _image_partition(g, [4, 0, 3, 1], [5, 2])
    assert p.clique.tolist() == [0, 1, 2, 3, 4] and p.independent.tolist() == [5]
    assert [g.degree(v) - 4 for v in p.clique.tolist()] == [1, 0, 0, 0, 1] and p.delta_i == 1


def test_two_connected_examples():
    assert is_two_connected(cycle_graph(4)) is True
    res = is_two_connected(path_graph(3))
    assert isinstance(res, NotTwoConnected) and res.cut_vertex == 1
    res = is_two_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert isinstance(res, NotTwoConnected) and res.reason == "disconnected"
    assert isinstance(is_two_connected(complete_graph(2)), NotTwoConnected)


def test_split_two_connected_agrees_with_generic():
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randrange(1, 7)
        i = rng.randrange(0, 6)
        g = generate(GenSpec("SplitRandom", {"k": k, "i": i, "p": rng.choice((0.3, 0.7))},
                             rng.randrange(10**6))).graph
        p = recognize_split(g)
        generic = is_two_connected(g)
        fast = split_is_two_connected(g, p)
        assert (generic is True) == (fast is True), (g.n, sorted(g.edges()))


def _assert_matches_networkx(g: Graph) -> None:
    """``split_is_two_connected`` against networkx: the same verdict (a
    Hamiltonian cycle needs 3 vertices, networkx counts K2 as biconnected),
    and a reported cut vertex is an articulation point."""
    p = recognize_split(g)
    assert not isinstance(p, NotSplit)
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    res = split_is_two_connected(g, p)
    assert (res is True) == (g.n >= 3 and nx.is_biconnected(ref)), (g.n, sorted(g.edges()))
    if res is not True and res.cut_vertex is not None:
        assert res.cut_vertex in set(nx.articulation_points(ref)), (res, sorted(g.edges()))


@st.composite
def split_graphs(draw, max_k: int = 7, max_i: int = 7) -> Graph:
    """A clique on 0..k-1 and independent vertices with any neighbours in it."""
    k = draw(st.integers(0, max_k))
    i_adj = [draw(st.sets(st.integers(0, k - 1))) if k else set()
             for _ in range(draw(st.integers(0, max_i)))]
    return mk_split(k, i_adj)


@settings(deadline=None, max_examples=300)
@given(split_graphs())
def test_split_two_connected_matches_networkx(g: Graph):
    _assert_matches_networkx(g)


def test_split_two_connected_matches_networkx_seeded():
    rng = random.Random(11)
    for _ in range(200):
        family, params = rng.choice([
            ("SplitRandom", {"k": rng.randrange(1, 8), "i": rng.randrange(0, 7),
                             "p": rng.choice((0.2, 0.5, 0.8))}),
            ("SplitDelta2", {"k": 12, "i": 8}),
            ("ClawFreeSplit", {"k": 8, "i": 2}),
        ])
        _assert_matches_networkx(generate(GenSpec(family, params, rng.randrange(10**6))).graph)


def test_star_levels_k4():
    p = recognize_split(complete_graph(4))
    st = star_free_level(complete_graph(4), p)
    assert st.claw_free and st.k14_free and st.k15_free


def test_star_levels_star_witness():
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p = recognize_split(star)
    st = star_free_level(star, p)
    assert not st.claw_free and st.k14_free
    center, arms = st.witness3
    assert center == 0 and set(arms) == {1, 2, 3}


def test_star_levels_k14_witness():
    # K={0,1,2}, I={3,4,5} all adjacent only to 0: {0;1,3,4,5} is an
    # induced 4-star (derived by brute-force star enumeration).
    g = mk_split(3, [(0,), (0,), (0,)])
    p = recognize_split(g)
    assert brute_find_star(g, 4) is not None
    st = star_free_level(g, p)
    assert not st.k14_free
    center, arms = st.witness4
    assert center == 0 and len(arms) == 4
    assert all(g.has_edge(0, a) for a in arms)
    assert all(not g.has_edge(a, b) for a in arms for b in arms if a < b)


def assert_induced_star(g, leaves, center, arms):
    assert len(arms) == leaves == len(set(arms)) and center not in arms
    assert all(g.has_edge(center, a) for a in arms)
    assert not any(g.has_edge(a, b) for a, b in combinations(arms, 2))


def test_star_levels_agree_with_brute():
    rng = random.Random(21)
    for _ in range(120):
        k = rng.randrange(2, 7)
        i = rng.randrange(0, 6)
        g = generate(GenSpec("SplitRandom", {"k": k, "i": i, "p": rng.choice((0.3, 0.5, 0.8))},
                             rng.randrange(10**6))).graph
        p = recognize_split(g)
        st = star_free_level(g, p)
        assert st.claw_free == (brute_find_star(g, 3) is None)
        assert st.k14_free == (brute_find_star(g, 4) is None)
        assert st.k15_free == (brute_find_star(g, 5) is None)
        for leaves, witness in ((3, st.witness3), (4, st.witness4), (5, st.witness5)):
            if witness is not None:
                assert_induced_star(g, leaves, *witness)


def _brute_witness(g: Graph, p, s: int):
    """The witness the star search documents, by enumeration: among every
    induced K_{1,s}, the smallest centre, then at that centre the stars
    with the most independent arms, then the smallest sorted arm tuple."""
    iset = set(p.independent)
    nbrs = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    stars = [(v, arms) for v in range(g.n)
             for arms in combinations(sorted(nbrs[v]), s)
             if not any(b in nbrs[a] for a, b in combinations(arms, 2))]
    if not stars:
        return None
    centre = min(v for v, _ in stars)
    return centre, min((arms for v, arms in stars if v == centre),
                       key=lambda arms: (-len(iset.intersection(arms)), arms))


def _split_graph_with_wide_arms(rng: random.Random, k: int) -> Graph:
    """K = 0..k-1 with independent vertices that each see most of K, so
    that the arms of a centre with d_i = s - 1 often cover K and sets of
    arms repeat across centres."""
    i_adj = []
    for _ in range(rng.randrange(0, 7)):
        miss = rng.sample(range(k), rng.randrange(0, min(k, 3) + 1))
        i_adj.append([w for w in range(k) if w not in miss and rng.random() < 0.9])
    return mk_split(k, i_adj)


def test_star_witnesses_match_brute_force_search():
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        k = rng.randrange(1, 13)
        if rng.random() < 0.5:
            g = _split_graph_with_wide_arms(rng, k)
        else:
            g = generate(GenSpec("SplitRandom", {"k": k, "i": rng.randrange(0, 7),
                                                 "p": rng.choice((0.3, 0.5, 0.8))},
                                 rng.randrange(10**6))).graph
        p = recognize_split(g)
        st = star_free_level(g, p)
        want3 = _brute_witness(g, p, 3)
        want4 = _brute_witness(g, p, 4) if want3 else None
        want5 = _brute_witness(g, p, 5) if want4 else None
        assert (st.witness3, st.witness4, st.witness5) == (want3, want4, want5)
        seen.add((want3 is None, want4 is None, want5 is None))
    assert len(seen) == 4


def test_star_search_covers_each_arm_set_once(monkeypatch):
    # Claw-free with |K| - 2 centres that all see the same two independent
    # vertices, which see K - {0} and K - {k-1}: one cover for all of them,
    # where building it per centre took O(|K|^2).
    k = 3000
    edges = [(w, k) for w in range(1, k)] + [(w, k + 1) for w in range(k - 1)]
    g = graph_from_split(k + 2, range(k), edges)
    p = recognize_split(g)
    assert p.clique.tolist() == list(range(k)) and p.delta_i == 2
    builds = []
    first_uncovered = split._first_uncovered

    def counted(g, clique, arms, rows):
        builds.append(arms)
        return first_uncovered(g, clique, arms, rows)

    monkeypatch.setattr(split, "_first_uncovered", counted)
    st = star_free_level(g, p)
    assert st.claw_free and st.witness3 is None
    assert builds == [(k, k + 1)]
    # With vertex 0 seen by neither, the first centre's star takes it.
    g = graph_from_split(k + 2, range(k), [(w, k) for w in range(1, k)]
                         + [(w, k + 1) for w in range(1, k - 1)])
    builds.clear()
    assert star_free_level(g, recognize_split(g)).witness3 == (1, (0, k, k + 1))
    assert builds == [(k, k + 1)]


def test_k14_free_implies_delta_at_most_3():
    rng = random.Random(2)
    for _ in range(120):
        k = rng.randrange(3, 9)
        i = rng.randrange(0, k + 1)
        g = generate(GenSpec("SplitK14Free", {"k": k, "i": i}, rng.randrange(10**6))).graph
        p = recognize_split(g)
        st = star_free_level(g, p)
        if st.k14_free:
            assert p.delta_i <= 3


def test_claw_free_delta2_bounds_independent_side():
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        k = rng.randrange(3, 9)
        i = rng.randrange(2, 4)
        g = generate(GenSpec("ClawFreeSplit", {"k": k, "i": i}, rng.randrange(10**6))).graph
        p = recognize_split(g)
        st = star_free_level(g, p)
        assert st.claw_free
        if p.delta_i == 2:
            assert len(p.independent) <= 3
            checked += 1
    assert checked > 0
