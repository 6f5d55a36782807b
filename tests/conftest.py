"""Shared brute-force oracles for the test suite.

These helpers are deliberately independent of the library's algorithms:
permutation search for Hamiltonicity, subset enumeration for stars and
forbidden subgraphs, adjacency lookups for forbidden-subgraph witnesses,
relabeling by explicit permutation.  They exist so
expected values in tests are computed by a second route.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
from hypothesis import strategies as st

from splithc.graph import Graph, graph_from_edges
from splithc.paths import PathSystem
from splithc.split import SplitPartition


def mk_split(k: int, i_adj) -> Graph:
    """Clique on 0..k-1 plus independent vertices with given neighbors."""
    edges = list(combinations(range(k), 2))
    for j, nbrs in enumerate(i_adj):
        for w in nbrs:
            edges.append((k + j, w))
    return graph_from_edges(k + len(i_adj), edges)


def explicit_twin(g: Graph) -> Graph:
    """``g`` with every row stored, the clique block included: one CSR row
    per ``neighbors(v)``, so the twin of a wide ladder costs its rows and
    nothing more (no edge list of Python tuples)."""
    rows = [g.neighbors(v) for v in range(g.n)]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum([row.shape[0] for row in rows], out=indptr[1:])
    indices = np.concatenate(rows).astype(np.int32) if rows else np.empty(0, dtype=np.int32)
    return Graph(g.n, indptr, indices)


def partition_fields(p):
    """The fields of a ``SplitPartition`` as plain values, so that two
    partitions compare by value (the class compares by identity); anything
    else, a ``NotSplit`` say, is returned as it is."""
    if isinstance(p, SplitPartition):
        return p.clique.tolist(), p.independent.tolist(), p.in_clique, p.delta_i
    return p


def is_path_in(g: Graph, order) -> bool:
    """``order`` lists distinct vertices, consecutive ones adjacent in ``g``."""
    if len(set(order)) != len(order) or not order:
        return False
    return all(g.has_edge(order[i], order[i + 1]) for i in range(len(order) - 1))


def check_path_system(g: Graph, p: SplitPartition, ps: PathSystem,
                      expected_i: set[int] | None = None) -> None:
    """Assert all structural invariants of a path system."""
    kset = set(p.clique.tolist())
    seen: set[int] = set()
    covered_i: set[int] = set()
    for o in ps.paths:
        assert len(o) % 2 == 1, f"even path {o}"
        assert o[0] in kset and o[-1] in kset, f"endpoint off-clique {o}"
        for i, v in enumerate(o):
            assert v not in seen, f"vertex {v} on two paths"
            seen.add(v)
            if i % 2 == 1:
                assert v not in kset, f"alternation broken at {v} in {o}"
                covered_i.add(v)
            else:
                assert v in kset, f"alternation broken at {v} in {o}"
        assert is_path_in(g, o) or len(o) == 1, f"not a path {o}"
    want_i = set(p.independent.tolist()) if expected_i is None else expected_i
    assert covered_i == want_i, "independent cover mismatch"
    assert kset <= seen, "clique vertex missing from system"


def brute_has_ham_cycle(g: Graph) -> bool:
    """Permutation search; fine for n <= 9."""
    n = g.n
    if n < 3:
        return False
    verts = list(range(1, n))
    for perm in permutations(verts):
        order = (0,) + perm
        if all(g.has_edge(order[i], order[(i + 1) % n]) for i in range(n)):
            return True
    return False


def brute_find_star(g: Graph, s: int):
    """Exhaustive (center, arm-subset) search for an induced K_{1,s}."""
    for center in range(g.n):
        nbrs = [int(w) for w in g.neighbors(center)]
        for arms in combinations(nbrs, s):
            if all(not g.has_edge(a, b) for a, b in combinations(arms, 2)):
                return center, arms
    return None


def brute_is_split(g: Graph) -> bool:
    """No induced C4, C5 or 2K2, by subset enumeration."""
    n = g.n
    # 2K2
    edges = list(g.edges())
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4 and not any(
            g.has_edge(x, y) for x in (a, b) for y in (c, d)
        ):
            return False
    # induced C4 / C5
    for size in (4, 5):
        for sub in combinations(range(n), size):
            internal = [(u, v) for u, v in combinations(sub, 2) if g.has_edge(u, v)]
            if len(internal) != size:
                continue
            deg = {v: 0 for v in sub}
            for u, v in internal:
                deg[u] += 1
                deg[v] += 1
            if all(d == 2 for d in deg.values()) and _connected_subset(g, sub):
                return False
    return True


_WITNESS_SIZES = {"2K2": 4, "C4": 4, "C5": 5}


def assert_induced_witness(g: Graph, kind: str, vertices) -> None:
    """Assert ``vertices`` induce ``kind`` in the documented order.

    A 2K2 (a, b, c, d) must induce exactly the edges ab and cd; a C4 or C5
    exactly the edges between cyclically consecutive vertices.
    """
    vs = tuple(int(v) for v in vertices)
    size = _WITNESS_SIZES[kind]
    assert len(vs) == size and len(set(vs)) == size, f"{kind} on {vs}"
    assert all(0 <= v < g.n for v in vs), f"{kind} on {vs} outside [0, {g.n})"
    if kind == "2K2":
        want = {frozenset(vs[:2]), frozenset(vs[2:])}
    else:
        want = {frozenset((vs[j], vs[(j + 1) % size])) for j in range(size)}
    got = {frozenset(pair) for pair in combinations(vs, 2) if g.has_edge(*pair)}
    assert got == want, f"{vs} induce {sorted(map(sorted, got))}, not {kind} in order"


@st.composite
def near_split_graphs(draw, max_n: int = 9) -> Graph:
    """A split graph with up to two pairs flipped, under a random labeling,
    so that both split graphs with small delta_i and non-split graphs
    one flip away from them come up."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, n))
    edges = {(u, v) for u in range(k) for v in range(u + 1, k)}
    for u in range(k, n):
        if k:
            edges.update((w, u) for w in draw(st.sets(st.integers(0, k - 1), max_size=3)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    perm = draw(st.permutations(range(n)))
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _connected_subset(g: Graph, sub) -> bool:
    sub = set(sub)
    start = next(iter(sub))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if int(w) in sub and int(w) not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return seen == sub


def permute_graph(g: Graph, perm: list[int]) -> Graph:
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def canonical_small(g: Graph) -> tuple:
    """Exact canonical form by trying all labelings; n <= 5 only."""
    best = None
    for perm in permutations(range(g.n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()))
        if best is None or key < best:
            best = key
    return (g.n, best)
