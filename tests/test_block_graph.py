"""A graph with an implicit clique block answers exactly as its explicit
twin, the same edges stored in every row by ``graph_from_edges``: on every
accessor, on induced subgraphs, on the partition and star level, and on
the solver's outcome."""

import random
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithc.errors import IndexOutOfRange, NotSplitGraph
from splithc.generators import big_delta2_instance
from splithc.graph import Graph, graph_from_edges, graph_from_split
from splithc.io import certificate_string, render_graph
from splithc.solver import solve
from splithc.split import NotSplit, recognize_split, star_free_level

from conftest import partition_fields
from reference_graph import induced_subgraph


def _outcome(g: Graph):
    try:
        out = solve(g)
    except NotSplitGraph as exc:
        return ("not-split", exc.kind, exc.vertices)
    return (out.verdict, out.method, out.premise, certificate_string(out))


def _same_edge_stream(g: Graph, t: Graph) -> bool:
    """``g.edges()`` lists the upper entries of the explicit ``t``'s CSR
    rows, in order; streamed, so no list of Python pairs is built."""
    got = np.fromiter(chain.from_iterable(g.edges()), dtype=np.int64, count=2 * g.m)
    src = np.repeat(np.arange(t.n), np.diff(t.indptr))
    upper = src < t.indices
    return np.array_equal(got[0::2], src[upper]) and np.array_equal(got[1::2], t.indices[upper])


def assert_twins(g: Graph, t: Graph, rng: random.Random, probes: int | None = None) -> None:
    """``g`` (with a block) and ``t`` (without) are the same graph.  With
    ``probes`` set, per-vertex and per-pair checks run on a sample."""
    assert t.block.size == 0
    n = g.n
    assert g.n == t.n and g.m == t.m
    assert g.degrees().tolist() == t.degrees().tolist()
    verts = list(range(n)) if probes is None else sorted(rng.sample(range(n), min(n, probes)))
    for v in verts:
        assert g.degree(v) == t.degree(v)
        assert g.neighbors(v).tolist() == t.neighbors(v).tolist()
    deg = g.degrees()
    for d in set(deg[verts].tolist()):
        vs = [v for v in verts if deg[v] == d]
        assert g.neighbor_rows(vs, d).tolist() == t.neighbor_rows(vs, d).tolist() == [
            t.neighbors(v).tolist() for v in vs]
    assert g.neighbor_lists(verts) == t.neighbor_lists(verts) == [
        t.neighbors(v).tolist() for v in verts]
    # A tuple too: numpy reads a tuple index as one index per axis.
    assert g.neighbor_lists(tuple(verts)) == t.neighbor_lists(tuple(verts)) == [
        t.neighbors(v).tolist() for v in verts]
    pairs = [(u, v) for u in verts for v in verts]
    if probes is not None and n:
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(20 * probes)]
    for u, v in pairs if probes is None else pairs[:200]:
        assert g.has_edge(u, v) == t.has_edge(u, v)
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    assert g.has_edges(us, vs).tolist() == t.has_edges(us, vs).tolist()
    if probes is None:
        assert list(g.edges()) == list(t.edges())
        assert g == t and t == g
    else:
        assert _same_edge_stream(g, t)
        assert g == t
    keep = [v for v in range(n) if rng.random() < 0.6]
    gs, gmap = induced_subgraph(g, keep)
    ts, tmap = induced_subgraph(t, keep)
    assert gmap == tmap and gs == ts
    assert gs.degrees().tolist() == ts.degrees().tolist()
    assert gs.block.tolist() == [i for i, v in enumerate(gmap) if g.in_block[v]]
    # Field by field, witnesses included; the block need not lie inside K.
    pg, pt = recognize_split(g), recognize_split(t)
    assert partition_fields(pg) == partition_fields(pt)
    if not isinstance(pg, NotSplit):
        assert star_free_level(g, pg) == star_free_level(t, pt)
    assert _outcome(g) == _outcome(t)


@st.composite
def block_graphs(draw, max_n: int = 14):
    """(n, clique, edges): a clique on a random vertex set, independent
    vertices attached to it, sometimes an extra pair anywhere (so non-split
    graphs come up), and some clique pairs repeated in ``edges``."""
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n))
    clique = [perm[j] for j in range(k)]
    edges = []
    for j in range(k, n):
        if k:
            edges += [(w, perm[j]) for w in draw(st.sets(st.sampled_from(clique), max_size=4))]
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
        edges += draw(st.lists(st.sampled_from(list(combinations(clique, 2)) or pairs),
                               max_size=3))
    return n, clique, edges


@settings(deadline=None, max_examples=300)
@given(block_graphs(), st.randoms(use_true_random=False))
def test_block_graph_matches_explicit_twin(drawn, rng):
    n, clique, edges = drawn
    g = graph_from_split(n, clique, edges)
    t = graph_from_edges(n, edges + list(combinations(clique, 2)))
    assert g.block.tolist() == sorted(clique)
    assert_twins(g, t, rng)
    assert render_graph(g, clique) == render_graph(t, clique)


def _ladder_twin(g: Graph, k: int) -> Graph:
    """The explicit twin of a ladder from its definition: clique vertex v
    sees 0..k-1 but v, then its independent neighbors (all >= k), and an
    independent vertex keeps its row.  Built as CSR rows directly, so the
    twin of a wide ladder costs its rows and no edge list."""
    i_rows = [g.neighbors(u).tolist() for u in range(k, g.n)]
    k_extra: list[list[int]] = [[] for _ in range(k)]
    for u, row in enumerate(i_rows, start=k):
        for w in row:
            k_extra[w].append(u)
    clique = np.arange(k, dtype=np.int32)
    rows = [np.concatenate([clique[:v], clique[v + 1:], np.array(k_extra[v], dtype=np.int32)])
            for v in range(k)]
    rows += [np.array(row, dtype=np.int32) for row in i_rows]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum([row.shape[0] for row in rows], out=indptr[1:])
    return Graph(g.n, indptr, np.concatenate(rows))


@pytest.mark.parametrize("shape", [(40, 10, 10), (700, 250, 80), (2500, 1000, 700)])
def test_ladder_matches_explicit_twin(shape):
    k = shape[0]
    g = big_delta2_instance(*shape)
    assert g.block.tolist() == list(range(k))
    # The stored entries are the K-I pairs, twice: O(n + m_I), not O(k^2).
    assert g.indices.size == 2 * (g.m - k * (k - 1) // 2) < 4 * g.n
    t = _ladder_twin(g, k)
    assert_twins(g, t, random.Random(k), probes=None if k <= 40 else 60)
    if k <= 700:
        assert render_graph(g) == render_graph(t)


def test_star_arm_in_the_block_outside_k():
    # The block {0, 1} is not inside K = {1, 2, 3, 4}: vertex 0 is
    # independent, and an arm of centre 1 that 1's stored row lacks.
    k_edges = list(combinations([1, 2, 3, 4], 2))
    g = graph_from_split(7, [0, 1], k_edges + [(1, 5), (1, 6)])
    t = graph_from_edges(7, k_edges + [(0, 1), (1, 5), (1, 6)])
    p = recognize_split(g)
    assert partition_fields(p) == partition_fields(recognize_split(t))
    assert p.clique.tolist() == [1, 2, 3, 4] and p.independent.tolist() == [0, 5, 6]
    assert g.degree(1) - (len(p.clique) - 1) == 3
    assert 0 not in g.stored_row(1).tolist()
    stars = star_free_level(g, p)
    assert stars.witness3 == (1, (0, 5, 6)) and stars.witness4 == (1, (0, 2, 5, 6))
    assert stars == star_free_level(t, p)


@pytest.mark.parametrize("shape", [(2500, 1000, 700), (6000, 2000, 0)])
def test_ladder_solve_merges_no_block_row(monkeypatch, shape):
    # A ``Graph.neighbors`` call on a block vertex merges the block into its
    # row, O(|K|); solving a ladder makes none.
    g = big_delta2_instance(*shape)
    merged: list[int] = []
    plain = Graph.neighbors

    def counting(self, v):
        if self.in_block[v]:
            merged.append(int(v))
        return plain(self, v)

    monkeypatch.setattr(Graph, "neighbors", counting)
    out = solve(g)
    assert out.verdict == "cycle" and merged == []
    # The partition holds ascending intp arrays and a Python int delta_i.
    p = recognize_split(g)
    for ids in (p.clique, p.independent):
        assert ids.dtype == np.intp and bool((np.diff(ids) > 0).all())
    assert type(p.delta_i) is int


def test_graph_from_split_drops_clique_pairs_and_checks_ids():
    g = graph_from_split(5, [3, 1, 3, 0], [(0, 1), (1, 3), (4, 0), (2, 4), (0, 4)])
    assert g.block.tolist() == [0, 1, 3] and g.m == 3 + 2
    assert g.indices.size == 4  # only 0-4 and 2-4 are stored
    assert g.neighbors(0).tolist() == [1, 3, 4] and g.neighbors(4).tolist() == [0, 2]
    assert not g.has_edge(3, 3) and not g.has_edges([3], [3])[0]
    assert graph_from_split(3, [], [(0, 1)]) == graph_from_edges(3, [(0, 1)])
    assert graph_from_split(4, [2], []).m == 0
    with pytest.raises(IndexOutOfRange):
        graph_from_split(3, [0, 3], [])
    with pytest.raises(IndexOutOfRange):
        graph_from_split(3, [-1], [])
    # The block is np.unique's, as int32, from every form of clique.
    rng = random.Random(4)
    cliques = [[], [0], [3, 3], range(6), np.array([4, 2, 2], dtype=np.int32), np.arange(7)[::-1]]
    cliques += [[rng.randrange(9) for _ in range(rng.randrange(12))] for _ in range(100)]
    for clique in cliques:
        arr = clique if isinstance(clique, np.ndarray) else np.fromiter(clique, dtype=np.int64)
        block = graph_from_split(9, clique, []).block
        assert block.dtype == np.int32 and block.tolist() == np.unique(arr).tolist()


def test_equality_compares_edge_sets():
    tri = graph_from_split(4, [0, 1, 2], [])
    assert tri == graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert tri == graph_from_split(4, [0, 1], [(0, 2), (1, 2)])
    assert tri != graph_from_edges(4, [(0, 1), (0, 2), (1, 3)])
    assert tri != graph_from_split(4, [1, 2, 3], [])
    assert tri != graph_from_split(3, [0, 1, 2], [])


def test_induced_degrees_and_neighbor_rows():
    g = graph_from_split(6, [1, 2, 4], [(0, 1), (3, 4), (3, 5), (0, 5)])
    t = graph_from_edges(6, list(g.edges()))
    with pytest.raises(ValueError, match="degree 2"):
        g.neighbor_rows([0, 1], 2)
    assert g.neighbor_rows([], 2).shape == (0, 2)
    rng = random.Random(1)
    for _ in range(50):
        mask = np.array([rng.random() < 0.5 for _ in range(6)])
        sub, _ = induced_subgraph(t, np.flatnonzero(mask).tolist())
        assert g.degrees_into(mask)[mask].tolist() == t.degrees_into(mask)[mask].tolist() \
            == sub.degrees().tolist()


@settings(deadline=None, max_examples=200)
@given(block_graphs(), st.randoms(use_true_random=False))
def test_degrees_into_counts_neighbors_in_the_mask(drawn, rng):
    # Counted from the rows of the mask's vertices, blocks inside, across
    # and outside the mask; checked by adjacency probes.
    n, clique, edges = drawn
    g = graph_from_split(n, clique, edges)
    t = graph_from_edges(n, list(g.edges()))
    for _ in range(4):
        mask = np.array([rng.random() < 0.5 for _ in range(n)], dtype=bool)
        want = [sum(1 for w in range(n) if mask[w] and t.has_edge(v, w)) for v in range(n)]
        assert g.degrees_into(mask).tolist() == t.degrees_into(mask).tolist() == want
