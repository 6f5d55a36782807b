"""The non-split witness: an induced 2K2, C4 or C5 in the order ``NotSplit``
documents, read off the failed degree-sum test's prefix with one pass over
the rows.

Every witness is checked by ``conftest.assert_induced_witness``, which reads
adjacency only; the n <= 7 atlas is also covered, unrelabelled, through
``test_equivalence.assert_same_as_reference``."""

import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from splithc import split
from splithc.errors import WitnessNotFound
from splithc.generators import big_delta2_instance
from splithc.graph import Graph, graph_from_edges, graph_from_split
from splithc.split import NotSplit, recognize_split

from conftest import assert_induced_witness, near_split_graphs
from reference_graph import complete_graph


def assert_in_order(res: NotSplit) -> None:
    """The order ``NotSplit`` fixes by the vertex set: a 2K2 (a, b, c, d)
    has a < b, c < d and a < c; a cycle starts at its smallest vertex, then
    the smaller of that vertex's neighbours."""
    v = res.vertices
    if res.kind == "2K2":
        assert v[0] < v[1] and v[2] < v[3] and v[0] < v[2], res
    else:
        assert v[0] == min(v) and v[1] < v[-1], res


def _check(g: Graph) -> bool:
    """Check the witness if ``g`` is not split; return whether it is not."""
    res = recognize_split(g)
    if isinstance(res, NotSplit):
        assert_induced_witness(g, res.kind, res.vertices)
        assert_in_order(res)
        return True
    return False


def test_every_labelled_graph_up_to_six_vertices():
    not_split = 0
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, [pairs[j] for j in range(len(pairs)) if mask >> j & 1])
            not_split += _check(g)
    # 23512 of the 33868 labelled graphs on at most 6 vertices are not split.
    assert not_split == 23512


@settings(deadline=None, max_examples=200)
@given(near_split_graphs(max_n=40))
def test_near_split_graphs_up_to_forty_vertices(g: Graph):
    _check(g)


def test_seeded_random_graphs():
    rng = random.Random(17)
    not_split = 0
    for _ in range(300):
        n = rng.randrange(4, 41)
        p = rng.choice((0.05, 0.2, 0.5, 0.8, 0.95))
        g = graph_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        not_split += _check(g)
    assert not_split >= 200


def _near_clique() -> Graph:
    return graph_from_edges(80, [e for e in combinations(range(80), 2) if e not in ((0, 1), (2, 3))])


def _ladder_with_c4() -> Graph:
    # Deleting clique edge 01 and joining 0 and 1 to the independent
    # vertices 700 and 701 plants the C4 0-700-1-701.
    g = big_delta2_instance(700, 250, 80)
    extra = [(0, 700), (0, 701), (1, 700), (1, 701)]
    return graph_from_edges(g.n, [e for e in g.edges() if e != (0, 1)] + extra)


@pytest.mark.parametrize("build", [_near_clique, _ladder_with_c4])
def test_one_degree_sum_test_and_one_pass_over_the_rows(build, monkeypatch):
    # The witness is read off the failed test's own prefix: one degree-sum
    # test per call and at most two passes over the stored rows.  Both
    # graphs have no induced 2K2 or C5, so the witness is a C4.
    g = build()
    tests, passes = [], []
    real_test, real_pass, real_edges = split._degree_sum_split, Graph.degrees_into, Graph.edges

    def counted_test(d_sorted):
        tests.append(d_sorted.shape[0])
        return real_test(d_sorted)

    def counted_pass(self, mask):
        passes.append("degrees_into")
        return real_pass(self, mask)

    def counted_edges(self):
        passes.append("edges")
        return real_edges(self)

    monkeypatch.setattr(split, "_degree_sum_split", counted_test)
    monkeypatch.setattr(Graph, "degrees_into", counted_pass)
    monkeypatch.setattr(Graph, "edges", counted_edges)
    res = recognize_split(g)
    assert len(tests) == 1
    assert len(passes) <= 2, passes
    assert isinstance(res, NotSplit) and res.kind == "C4"
    assert_induced_witness(g, res.kind, res.vertices)
    assert_in_order(res)


def test_witness_search_on_split_input_raises():
    with pytest.raises(WitnessNotFound):
        split._forbidden_subgraph(complete_graph(5), np.arange(5))


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_atlas_under_relabellings():
    # Ties in the degree order break by id, so each graph of the atlas
    # (every graph on at most 7 vertices, up to isomorphism) is tried under
    # 5 labellings; the verdict does not depend on them.
    rng = random.Random(5)
    not_split = 0
    for h in nx.graph_atlas_g():
        g = graph_from_edges(h.number_of_nodes(), list(h.edges()))
        counts = {_check(_relabelled(g, rng)) for _ in range(5)}
        assert len(counts) == 1
        not_split += counts.pop()
    # 995 of the 1253 graphs are not split, as at the group-testing search
    # and by networkx (a graph is split iff it and its complement are
    # chordal).
    assert not_split == 995


def _join(g: Graph, t: int) -> Graph:
    """``g`` joined to a t-clique on the new vertices g.n .. g.n + t - 1."""
    n = g.n + t
    clique = [(u, v) for u in range(g.n, n) for v in range(u + 1, n)]
    return graph_from_edges(n, list(g.edges()) + clique
                            + [(u, v) for u in range(g.n) for v in range(g.n, n)])


def _defects(g: Graph) -> tuple[bool, bool]:
    """Whether the degree-order prefix K of the Hammer-Simeone test has a
    non-edge, and whether the rest has an edge; by adjacency probes."""
    deg = [int(d) for d in g.degrees()]
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    k = max((r for r in range(1, g.n + 1) if deg[order[r - 1]] >= r - 1), default=0)
    clique, rest = order[:k], order[k:]
    return (any(not g.has_edge(u, v) for u, v in combinations(clique, 2)),
            any(g.has_edge(u, v) for u, v in combinations(rest, 2)))


def test_c5_and_c5_joined_to_cliques():
    rng = random.Random(2)
    c5 = graph_from_edges(5, [(j, (j + 1) % 5) for j in range(5)])
    for t in range(7):
        g = _join(c5, t)
        for h in [g] + [_relabelled(g, rng) for _ in range(5)]:
            res = recognize_split(h)
            assert isinstance(res, NotSplit) and res.kind == "C5"
            assert_induced_witness(h, res.kind, res.vertices)
            assert_in_order(res)
    # On C5 itself the prefix {0, 1, 2} has the non-edge 02 and the rest
    # {3, 4} the edge 34.
    assert _defects(c5) == (True, True)


def test_non_edge_in_the_prefix_and_edge_in_the_rest():
    # Split graphs with clique edges deleted and independent edges added,
    # kept where the degree-order prefix has a non-edge and the rest an
    # edge at once.
    rng = random.Random(3)
    kinds = set()
    mixed = 0
    for _ in range(1500):
        k, i = rng.randrange(3, 12), rng.randrange(2, 10)
        edges = {(u, v) for u, v in combinations(range(k), 2)}
        edges |= {(u, k + j) for j in range(i) for u in range(k) if rng.random() < 0.4}
        for _ in range(rng.randrange(1, 4)):
            edges.discard(rng.choice(list(combinations(range(k), 2))))
        for _ in range(rng.randrange(1, 4)):
            x, y = rng.sample(range(k, k + i), 2)
            edges.add((min(x, y), max(x, y)))
        g = _relabelled(graph_from_edges(k + i, sorted(edges)), rng)
        if _defects(g) != (True, True):
            continue
        mixed += 1
        res = recognize_split(g)
        assert isinstance(res, NotSplit)
        assert_induced_witness(g, res.kind, res.vertices)
        assert_in_order(res)
        kinds.add(res.kind)
    assert mixed >= 300
    assert kinds == {"2K2", "C4", "C5"}


@pytest.mark.parametrize("shape", [(6, 2, 0), (40, 10, 10), (300, 100, 30)])
def test_ladder_without_its_first_clique_pair(shape):
    # The first two clique vertices of the degree order both see
    # independent vertices, so deleting their edge leaves a graph that is
    # not split.  Stored explicitly, and with the block K - {a} and a's row
    # explicit, it is the same graph, with the same witness.
    base = big_delta2_instance(*shape)
    deg = base.degrees().tolist()
    a, b = sorted(sorted(range(shape[0]), key=lambda v: (-deg[v], v))[:2])
    edges = [e for e in base.edges() if e != (a, b)]
    g = graph_from_edges(base.n, edges)
    blocked = graph_from_split(g.n, [v for v in range(shape[0]) if v != a], edges)
    assert blocked.block.shape[0] == shape[0] - 1 and blocked == g
    res = recognize_split(g)
    assert isinstance(res, NotSplit)
    assert_induced_witness(g, res.kind, res.vertices)
    assert_in_order(res)
    assert recognize_split(blocked) == res


def test_edge_of_the_rest_stored_only_in_the_block():
    # A 6-clique and, apart from it, a block of two vertices: their edge is
    # stored in no row, so the pass counts it from the block.
    g = graph_from_split(8, [6, 7], list(combinations(range(6), 2)))
    res = recognize_split(g)
    assert isinstance(res, NotSplit) and res.kind == "2K2"
    assert_induced_witness(g, res.kind, res.vertices)
    assert_in_order(res)
    assert recognize_split(graph_from_edges(8, list(g.edges()))) == res
