"""The non-split witness: an induced 2K2, C4 or C5 in the order ``NotSplit``
documents, found with few degree-sum tests.

Every witness is checked by ``conftest.assert_induced_witness``, which reads
adjacency only; the n <= 7 atlas is covered through
``test_equivalence.assert_same_as_reference``."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from splithc import split
from splithc.errors import WitnessNotFound
from splithc.generators import big_delta2_instance
from splithc.graph import Graph, graph_from_edges
from splithc.split import NotSplit, recognize_split

from conftest import assert_induced_witness, near_split_graphs
from reference_graph import complete_graph


def _check(g: Graph) -> bool:
    """Check the witness if ``g`` is not split; return whether it is not."""
    res = recognize_split(g)
    if isinstance(res, NotSplit):
        assert_induced_witness(g, res.kind, res.vertices)
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
def test_degree_sum_tests_are_logarithmic(build, monkeypatch):
    g = build()
    calls = []
    real = split._degree_sum_split

    def counted(d_sorted):
        calls.append(d_sorted.shape[0])
        return real(d_sorted)

    monkeypatch.setattr(split, "_degree_sum_split", counted)
    res = recognize_split(g)
    assert isinstance(res, NotSplit) and res.kind == "C4"
    assert_induced_witness(g, res.kind, res.vertices)
    assert len(calls) <= 5 * (math.ceil(math.log2(g.n + 1)) + 1) + 1


def test_witness_search_on_split_input_raises():
    with pytest.raises(WitnessNotFound):
        split._forbidden_subgraph(complete_graph(5))
