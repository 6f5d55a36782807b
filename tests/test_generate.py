import hashlib
from itertools import combinations

import numpy as np
import pytest

from splithc.errors import GenerationExhausted, InvalidParameter
from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc.graph import graph_from_edges
from splithc.oracle import oracle_solve
from splithc.split import NotSplit, recognize_split, split_is_two_connected, star_free_level

from conftest import brute_is_split, canonical_small
from reference_graph import enumerate_small_split, loop_big_delta2_instance


def test_determinism_same_seed_same_edges():
    for family, params in (
        ("SplitRandom", {"k": 5, "i": 3, "p": 0.5}),
        ("SplitDelta2", {"k": 7, "i": 4}),
        ("SplitDelta3InPremise", {"k": 11, "i": 8}),
        ("BipartiteDeg3", {"na": 5, "nb": 5, "plant": 1}),
        ("PlantedHC", {"n": 12}),
    ):
        a = generate(GenSpec(family, params, 42)).graph
        b = generate(GenSpec(family, params, 42)).graph
        assert sorted(a.edges()) == sorted(b.edges())
        c = generate(GenSpec(family, params, 43)).graph
        # Different seeds are allowed to agree, but families this size
        # essentially never do; treat agreement as suspicious.
        assert sorted(a.edges()) != sorted(c.edges()) or a.n <= 4


# Seeds change only with the family version: every row below, at each
# of its seeds, must give the same instance as when the digest was taken.
# The rows are those of the benchmark's small-mix corpus, its fixed and
# non-split rows, a planted short cycle and an exhausted family; the
# delta-3 rows keep to few seeds, since they cost the most to sample.
_PINNED_ROWS = [  # family, params, seeds
    ("SplitRandom", {"k": 7, "i": 5}, range(1, 7)),
    ("SplitK14Free", {"k": 9, "i": 6}, range(1, 13)),
    ("SplitDelta2", {"k": 12, "i": 8}, range(1, 7)),
    ("SplitDelta2", {"k": 16, "i": 12, "p3": 0.5}, range(1, 7)),
    ("SplitDelta2", {"k": 18, "i": 14, "p3": 0.0}, range(1, 7)),
    ("SplitDelta3InPremise", {"k": 10, "i": 8}, range(1, 4)),
    ("SplitDelta3InPremise", {"k": 11, "i": 9}, range(1, 3)),
    ("SplitDelta3InPremise", {"k": 12, "i": 10}, range(0, 1)),
    ("SplitDelta3InPremise", {"k": 10, "i": 8, "plant_short": 1}, range(1, 7)),
    ("ClawFreeSplit", {"k": 8, "i": 2}, range(1, 7)),
    ("ClawFreeSplit", {"k": 9, "i": 3}, range(1, 7)),
    ("ClawFreeSplit", {"k": 12, "i": 5}, range(1, 7)),
    ("ClawFreeSplit", {"k": 2, "i": 2}, range(1, 2)),
    ("BipartiteDeg3", {"na": 8, "nb": 8, "plant": 1}, range(1, 7)),
    ("BipartiteDeg3", {"na": 8, "nb": 8}, range(1, 7)),
    ("PlantedHC", {"n": 12}, range(1, 7)),
]
_PINNED_SHA256 = "eb4f3f5a4cb2802d05f570f7bd4a8b9ec6886dbb76d207ae4571cd6ccfd3b670"


def test_generator_outputs_are_pinned():
    digest = hashlib.sha256()
    for family, params, seeds in _PINNED_ROWS:
        for seed in seeds:
            try:
                inst = generate(GenSpec(family, params, seed))
                record = (family, sorted(params.items()), seed, inst.attempts,
                          inst.part_a, inst.part_b, list(inst.graph.edges()))
            except GenerationExhausted as exc:
                record = (family, sorted(params.items()), seed, str(exc))
            digest.update(repr(record).encode() + b"\n")
    assert digest.hexdigest() == _PINNED_SHA256


def test_family_contracts():
    inst = generate(GenSpec("SplitRandom", {"k": 4, "i": 2, "p": 0.5}, 1))
    assert not isinstance(recognize_split(inst.graph), NotSplit)

    inst = generate(GenSpec("SplitDelta2", {"k": 8, "i": 5}, 7))
    p = recognize_split(inst.graph)
    assert p.delta_i == 2 and star_free_level(inst.graph, p).k14_free
    assert split_is_two_connected(inst.graph, p) is True

    inst = generate(GenSpec("SplitDelta3InPremise", {"k": 10, "i": 8}, 7))
    p = recognize_split(inst.graph)
    assert p.delta_i == 3 and star_free_level(inst.graph, p).k14_free
    assert split_is_two_connected(inst.graph, p) is True
    assert len(p.clique) >= len(p.independent) >= 8

    inst = generate(GenSpec("ClawFreeSplit", {"k": 6, "i": 3}, 7))
    p = recognize_split(inst.graph)
    assert star_free_level(inst.graph, p).claw_free

    inst = generate(GenSpec("BipartiteDeg3", {"na": 6, "nb": 6}, 7))
    g = inst.graph
    assert max(g.degree(v) for v in range(g.n)) <= 3
    a = set(inst.part_a)
    assert all((u in a) != (v in a) for u, v in g.edges())


def test_planted_hc_has_cycle():
    for seed in range(8):
        inst = generate(GenSpec("PlantedHC", {"n": 12, "extra": 0.2}, seed))
        assert oracle_solve(inst.graph).has_cycle


def test_generation_exhausted_on_infeasible():
    with pytest.raises(GenerationExhausted):
        generate(GenSpec("SplitDelta2", {"k": 3, "i": 5}, 1))  # i > k
    # A wrong family name is a bad parameter, not exhausted sampling.
    with pytest.raises(InvalidParameter, match=r"^unknown family NoSuchFamily \(known: "):
        generate(GenSpec("NoSuchFamily", {}, 1))
    # Keys that no builder reads are refused, not silently ignored.
    for family, params in (("SplitDelta3InPremise", {"k": 10, "i": 8, "cap3_extra": 2}),
                           ("SplitDelta3InPremise", {"k": 10, "i": 8, "pdeg3": 0.5}),
                           ("ClawFreeSplit", {"k": 8, "i": 2, "delta1": 1}),
                           ("BipartiteDeg3", {"na": 8, "nb": 8, "m": 12})):
        with pytest.raises(InvalidParameter, match="takes no parameter"):
            generate(GenSpec(family, params, 1))


def test_enumerate_counts_small():
    assert len(list(enumerate_small_split(1))) == 1
    assert len(list(enumerate_small_split(3))) == 4


def test_enumerate_n4_matches_independent_enumeration():
    # Independent oracle: all 64 labeled graphs on 4 vertices, deduped by
    # trying all 24 relabelings, filtered by the forbidden-subgraph test.
    pairs = list(combinations(range(4), 2))
    classes = {}
    for mask in range(1 << 6):
        edges = [pairs[i] for i in range(6) if mask >> i & 1]
        g = graph_from_edges(4, edges)
        classes[canonical_small(g)] = g
    assert len(classes) == 11
    split_classes = {key for key, g in classes.items() if brute_is_split(g)}
    got = {canonical_small(g) for g in enumerate_small_split(4)}
    assert got == split_classes
    assert len(got) == len(split_classes)


def test_enumerate_graphs_are_split_and_distinct():
    for n in (5, 6):
        gs = list(enumerate_small_split(n))
        keys = {canonical_small(g) for g in gs}
        assert len(keys) == len(gs)
        assert all(brute_is_split(g) for g in gs)


def test_big_delta2_instance_shape():
    g = big_delta2_instance(60, 40, extra_deg3=4)
    p = recognize_split(g)
    assert len(p.clique) == 60 and p.delta_i == 2
    assert split_is_two_connected(g, p) is True


def _same_arrays(g, want) -> bool:
    return all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in ((g.indptr, want.indptr), (g.indices, want.indices),
                            (g.block, want.block)))


def test_big_delta2_instance_matches_loop_reference():
    # Every valid shape with k < 40, extra_deg3 > n_ind included (there the
    # loop's offset starts above 0, as at (3, 0, 1) and (6, 1, 2)), and the
    # ladder-mem shapes of the benchmark.
    shapes = [(k, i, e) for k in range(1, 40) for e in range(k) for i in range(k)
              if i + 1 + 2 * e <= k]
    assert (3, 0, 1) in shapes and (6, 1, 2) in shapes
    shapes += [(6000, 2000, 0), (4000, 1500, 500), (2500, 1000, 700)]
    for shape in shapes:
        assert _same_arrays(big_delta2_instance(*shape), loop_big_delta2_instance(*shape)), shape
    for shape in [(3, 1, 1), (5, 5, 0), (1, 0, 1)]:
        with pytest.raises(ValueError):
            big_delta2_instance(*shape)
