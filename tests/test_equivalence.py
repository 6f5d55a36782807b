"""The degree-sum recognizer and the bucket-queue path assembly give the
same partitions, path systems, insertion logs and error messages as the
edge-count and rescan references in ``reference_paths``, and the same
non-split verdicts with valid witnesses.  The reduction's image
partitions equal the reference's neighbour-counting upgrade loop."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings

from splithc.errors import PremiseViolated
from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc.graph import Graph, graph_from_edges
from splithc.paths import assemble_paths
from splithc.reduction import BipartiteInstance, reduce_to_split
from splithc.split import NotSplit, recognize_split

import reference_delta3
from conftest import assert_induced_witness, near_split_graphs, partition_fields
from reference_paths import edge_count_recognize_split, loop_upgrade, rescan_assemble_paths


def _assembly(assemble, g: Graph, p):
    try:
        ps = assemble(g, p)
    except PremiseViolated as exc:
        return ("PremiseViolated", str(exc))
    return (ps.paths, ps.insertions)


def assert_same_as_reference(g: Graph) -> None:
    """Same partition, or both not split with valid witnesses; and on
    delta_i <= 2 partitions the same assembly.

    The witnesses themselves may differ: the pairwise reference prefers a
    2K2, the shrink returns whichever minimal non-split set it reaches."""
    got = recognize_split(g)
    ref = edge_count_recognize_split(g)
    if isinstance(ref, NotSplit):
        assert isinstance(got, NotSplit)
        assert_induced_witness(g, got.kind, got.vertices)
        assert_induced_witness(g, ref.kind, ref.vertices)
        return
    assert partition_fields(got) == partition_fields(ref)
    if got.delta_i <= 2:
        assert _assembly(assemble_paths, g, got) == _assembly(rescan_assemble_paths, g, got)


def test_every_graph_up_to_seven_vertices():
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253 and max(h.number_of_nodes() for h in atlas) == 7
    for h in atlas:
        assert_same_as_reference(graph_from_edges(h.number_of_nodes(), list(h.edges())))


@settings(deadline=None, max_examples=300)
@given(near_split_graphs())
def test_random_graphs_up_to_nine_vertices(g: Graph):
    assert_same_as_reference(g)


@pytest.mark.parametrize("p3", [0.0, 0.2, 0.5, 0.9])
def test_seeded_split_delta2(p3: float):
    rng = random.Random(int(p3 * 10))
    for seed in range(60):
        k = rng.randrange(4, 16)
        # Degree-3 vertices use up clique capacity: i (2 + p3) <= 2k.
        i = rng.randrange(2, int(2 * k / (2 + p3)) + 1)
        assert_same_as_reference(
            generate(GenSpec("SplitDelta2", {"k": k, "i": i, "p3": p3}, seed)).graph)


def test_delta3_reduced_systems(monkeypatch):
    # reduced_system assembles the reduced graph; run both there.
    calls = []

    def both(h, hp):
        calls.append(_assembly(rescan_assemble_paths, h, hp))
        assert _assembly(assemble_paths, h, hp) == calls[-1]
        return assemble_paths(h, hp)

    monkeypatch.setattr(reference_delta3, "assemble_paths", both)
    sizes = [(10, 8), (11, 8), (12, 9), (13, 9)]
    for seed in range(24):
        k, i = sizes[seed % len(sizes)]
        g = generate(GenSpec("SplitDelta3InPremise", {"k": k, "i": i}, seed)).graph
        assert_same_as_reference(g)
        reference_delta3.reduced_system(g, recognize_split(g))
    assert len(calls) >= 12


@pytest.mark.parametrize("shape", [(40, 10, 10), (60, 20, 15), (700, 250, 80)])
def test_ladders(shape):
    assert_same_as_reference(big_delta2_instance(*shape))


def test_reduction_upgrades():
    # On parts of at most four vertices a vertex of one part often sees the
    # whole other part, so the partition takes it into the clique.
    rng = random.Random(1)
    moves = 0
    for _ in range(300):
        na, nb = rng.randrange(1, 5), rng.randrange(1, 5)
        deg = [0] * (na + nb)
        edges = []
        for a in range(na):
            for b in range(na, na + nb):
                if rng.random() < 0.6 and deg[a] < 3 and deg[b] < 3:
                    edges.append((a, b))
                    deg[a] += 1
                    deg[b] += 1
        src = BipartiteInstance(graph_from_edges(na + nb, edges), tuple(range(na)),
                                tuple(range(na, na + nb)))
        out = reduce_to_split(src)
        for h, p, k, i in ((out.h1, out.partition1, src.part_a, src.part_b),
                           (out.h2, out.partition2, src.part_b, src.part_a)):
            assert partition_fields(p) == partition_fields(loop_upgrade(h, k, i))
            moves += len(p.clique) > len(k)
    assert moves >= 100
