"""The delta_i <= 2 solve on H as arrays gives what the dict-based H of
``reference_paths`` gives: the same components, short-cycle witness, path
system (paths and insertions) and cycle, and the same ``PremiseViolated``
message where either refuses."""

import random
from bisect import bisect_left
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splithc.errors import SplitHCError
from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc.graph import Graph, graph_from_edges, graph_from_split
from splithc.paths import assemble_paths, build_degree_two_subgraph, find_short_cycle, hc_delta2
from splithc.split import recognize_split

from conftest import mk_split
from reference_paths import (
    dict_assemble_paths,
    dict_build_degree_two_subgraph,
    dict_find_short_cycle,
    dict_hc_delta2,
)


def _result(fn):
    try:
        return "ok", fn()
    except SplitHCError as exc:
        return type(exc).__name__, str(exc)


def assert_same_as_dict(g: Graph) -> tuple:
    """Compare every stage on ``g``; returns the array form's components
    result so that callers can see which shapes of H came up."""
    p = recognize_split(g)
    h, r = build_degree_two_subgraph(g, p), dict_build_degree_two_subgraph(g, p)
    assert h.va.tolist() == list(r.va)
    comps = _result(lambda: h.components)
    assert comps == _result(lambda: r.components)
    assert _result(lambda: find_short_cycle(g, p, h=h)) == _result(
        lambda: dict_find_short_cycle(g, p, h=r))
    assert _result(lambda: assemble_paths(g, p, h=h)) == _result(
        lambda: dict_assemble_paths(g, p, h=r))
    assert _result(lambda: hc_delta2(g, p)) == _result(lambda: dict_hc_delta2(g, p))
    return comps


def test_seeded_families_match_dict_reference():
    rng = random.Random(20)
    kinds = set()
    for _ in range(600):
        k = rng.randrange(3, 14)
        if rng.random() < 0.5:
            # |I| = |K| leaves no room for degree-3 independent vertices.
            p3 = rng.choice([0.0, 0.2, 0.5])
            i = rng.randrange(max(2, k // 2), k + (p3 == 0))
            spec = GenSpec("SplitDelta2", {"k": k, "i": i, "p3": p3}, rng.randrange(10**6))
        else:
            # Four or more independent vertices need k >= 2i.
            i = rng.randrange(0, 4) if k < 8 or rng.random() < 0.5 else rng.randrange(4, k // 2 + 1)
            spec = GenSpec("ClawFreeSplit", {"k": k, "i": i}, rng.randrange(10**6))
        kind, comps = assert_same_as_dict(generate(spec).graph)
        if kind == "ok":
            kinds.add((bool(comps[0]), bool(comps[1])))
    # Paths alone, cycles alone and both together all came up.
    assert {(True, False), (False, True), (True, True)} <= kinds


@st.composite
def split_graphs_low_delta(draw, max_k: int = 9):
    """A split graph under a random labelling whose clique vertices each
    see at most ``cap`` independent vertices, cap 2 mostly and 3 sometimes
    (so that H can have a vertex of degree 3); or, with |I| = |K|, H one
    cycle through the whole clique."""
    k = draw(st.integers(0, max_k))
    if k >= 3 and draw(st.integers(0, 3)) == 0:
        cyc = draw(st.permutations(range(k)))
        rows = [(cyc[j], cyc[(j + 1) % k]) for j in range(k)]
    else:
        cap = draw(st.sampled_from([2, 2, 3]))
        load = [0] * k
        rows = []
        for _ in range(draw(st.integers(0, k + 1))):
            # Mostly two clique neighbours, so that H gets paths and cycles.
            size = draw(st.sampled_from([2, 2, 2, 0, 1, 3, 4]))
            want = draw(st.sets(st.integers(0, k - 1), min_size=min(size, k), max_size=size)) if k else set()
            row = tuple(w for w in sorted(want) if load[w] < cap)
            for w in row:
                load[w] += 1
            rows.append(row)
    n = k + len(rows)
    perm = draw(st.permutations(range(n)))
    edges = [(perm[a], perm[b]) for a in range(k) for b in range(a + 1, k)]
    edges += [(perm[w], perm[k + j]) for j, row in enumerate(rows) for w in row]
    return graph_from_edges(n, edges)


@settings(deadline=None, max_examples=400)
@given(split_graphs_low_delta())
def test_hypothesis_split_graphs_match_dict_reference(g):
    assert_same_as_dict(g)


def test_degree_three_message_matches_dict_reference():
    # Clique vertex 0 sees the three degree-2 vertices 4, 5 and 6.
    g = mk_split(4, [(0, 1), (0, 2), (0, 3)])
    kind, msg = assert_same_as_dict(g)
    assert (kind, msg) == ("PremiseViolated", "clique vertex 0 has H-degree 3 > 2")


def test_spanning_cycle_matches_dict_reference():
    # |I| = |K| and H is the spanning cycle, on relabelled ids.
    g = mk_split(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    perm = [7, 3, 9, 0, 5, 1, 8, 2, 6, 4]
    g = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    paths, cycles = assert_same_as_dict(g)[1]
    assert paths == () and len(cycles) == 1 and len(cycles[0]) == g.n


def test_relabelled_ladder_matches_dict_reference():
    # A ladder near n = 2 * 10^5 under a random labelling, so that H is
    # neither walked nor listed in id order.
    base = big_delta2_instance(101_001, 98_999, 500)
    rng = np.random.default_rng(7)
    perm = rng.permutation(base.n)
    k = base.block.shape[0]
    rows = np.array([(u, w) for u in range(k, base.n) for w in base.neighbors(u).tolist()])
    g = graph_from_split(base.n, perm[:k], perm[rows])
    assert g.n == 200_000
    kind, (paths, cycles) = assert_same_as_dict(g)
    assert kind == "ok" and cycles == () and paths


# The ladder shapes of the benchmark's in-memory (first three) and file
# (last three) workloads.
LADDER_SHAPES = [(6000, 2000, 0), (4000, 1500, 500), (2500, 1000, 700),
                 (700, 250, 80), (650, 300, 120), (750, 200, 40)]


@pytest.mark.parametrize("shape", LADDER_SHAPES)
def test_ladder_shapes_match_dict_reference(shape):
    kind, _ = assert_same_as_dict(big_delta2_instance(*shape))
    assert kind == "ok"


def _random_delta2_graph(rng: random.Random) -> Graph:
    """A split graph whose clique of 3-29 vertices each see at most two
    independent vertices, mostly of degree 3-5, some of degree 2 and a
    few of degree 1.  A row is a random sample of the clique vertices
    still free, a random window of them, or a chain of windows that
    overlap by at most one vertex (a ladder, where runs of V0 form).
    Half the graphs are relabelled at random, half keep the clique first;
    half store the clique as a block, half explicitly."""
    k = rng.randrange(3, 30)
    load = [0] * k
    two = rng.choice([0.0, 0.2, 0.5])
    mode = rng.choice(["sample", "window", "chain"])
    rows, at = [], 0
    for _ in range(rng.randrange(1, k + 1) if rng.random() < 0.5 else k):
        free = [w for w in range(k) if load[w] < 2]
        d = min(1 if rng.random() < 0.01 else 2 if rng.random() < two else rng.randrange(3, 6),
                len(free))
        if not d:
            break
        if mode == "sample":
            row = rng.sample(free, d)
        else:
            s = (rng.randrange(len(free) - d + 1) if mode == "window"
                 else min(bisect_left(free, at), len(free) - d))
            row = free[s:s + d]
            at = row[-1] + rng.randrange(2)
        for w in row:
            load[w] += 1
        rows.append(row)
    n = k + len(rows)
    perm = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(perm)
    pairs = [(perm[w], perm[k + j]) for j, row in enumerate(rows) for w in row]
    if rng.random() < 0.5:
        return graph_from_split(n, perm[:k], pairs)
    return graph_from_edges(n, pairs + [(perm[a], perm[b]) for a, b in combinations(range(k), 2)])


def test_random_delta2_family_matches_dict_reference():
    rng = random.Random(26)
    seen = Counter()
    for _ in range(2000):
        g = _random_delta2_graph(rng)
        p = recognize_split(g)
        kind, out = _result(lambda: assemble_paths(g, p))
        assert (kind, out) == _result(lambda: dict_assemble_paths(g, p))
        if kind == "ok":
            seen.update(rule for rule, *_ in out.insertions)
        else:
            seen[out.split(" for")[0].split(" neighbor")[0]] += 1
    assert seen["V0"] and seen["V1"] and seen["V2"]
    assert seen["no off-path clique"] and seen["fewer than two off-path"]


def test_run_stops_at_a_shared_clique_vertex():
    # 11 and 12 go in one run: no later vertex sees their pairs.  13 and
    # 14 share clique vertex 7, so the run ends at 13 and its pair's
    # watchers are reclassified.  Its V0 makes 7 an endpoint, and 14 then
    # goes in by V1.
    g = mk_split(11, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (7, 9, 10)])
    ps = assemble_paths(g, recognize_split(g))
    assert ps.insertions == (("V0", 11, 0, 1), ("V0", 12, 1, 2), ("V0", 13, 2, 3),
                             ("V1", 14, 3, 3))
    assert ps.paths[:3] == ((6, 13, 7, 14, 9), (0, 11, 1), (3, 12, 4))
    assert_same_as_dict(g)


def test_placement_gone_stale_is_not_used():
    # 8 sees no path end at set-up, and its first two off-path neighbours
    # are then (2, 3); 7 also sees 2, but comes earlier.  The V1 of 7
    # extends H's path 0-6-1 to 2, so 2 is on a path, and 8 goes in by V1
    # at 2, not by V0 on the pair (2, 3) it had at set-up.
    g = mk_split(6, [(0, 1), (1, 2, 5), (2, 3, 4)])
    ps = assemble_paths(g, recognize_split(g))
    assert ps.insertions == (("V1", 7, 1, 1), ("V1", 8, 1, 1))
    assert ps.paths == ((0, 6, 1, 7, 2, 8, 3), (4,), (5,))
    assert_same_as_dict(g)


def test_run_stops_where_a_later_watcher_is_inserted():
    # 12 sees H's path end 1 and goes first, by V1 to 2.  11 is then the
    # only class-0 vertex left before 13, and its pair (5, 6) is watched
    # by 12, later than 11 but already inserted: the run stops after 11,
    # no class changes, and the heap gives 13.
    g = mk_split(10, [(0, 1), (5, 6, 8), (1, 2, 5), (3, 4, 7)])
    ps = assemble_paths(g, recognize_split(g))
    assert ps.insertions == (("V1", 12, 1, 1), ("V0", 11, 1, 2), ("V0", 13, 2, 3))
    assert ps.paths == ((0, 10, 1, 12, 2), (3, 13, 4), (5, 11, 6), (7,), (8,), (9,))
    assert_same_as_dict(g)
