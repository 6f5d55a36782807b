"""Split-graph recognition, partition maintenance and 2-connectivity.

A split graph partitions into a clique K and an independent set I; we
keep K a *maximum* clique throughout (the stronger of the two conditions
the structure theory alternates between).  Recognition takes the largest
degree-ordered prefix that forms a clique, verifies the remainder is
independent, and upgrades K to maximum; on failure it exhibits an induced
C4, C5 or 2K2, the three forbidden subgraphs characterizing split graphs.

For vertices ``v`` in K, ``d_i[v]`` counts independent-set neighbors;
``delta_i`` is the maximum of those counts and is the quantity the solver
dispatches on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidPartition
from .graph import Graph

__all__ = [
    "SplitPartition",
    "NotSplit",
    "NoCycleCertificate",
    "NotTwoConnected",
    "StarLevels",
    "recognize_split",
    "upgrade_to_maximum_clique",
    "is_two_connected",
    "split_is_two_connected",
    "star_free_level",
]


@dataclass(frozen=True)
class SplitPartition:
    """Partition (K, I) with K a maximum clique and I independent."""

    clique: tuple[int, ...]
    independent: tuple[int, ...]
    d_i: Mapping[int, int]
    delta_i: int

    @property
    def clique_set(self) -> frozenset:
        return frozenset(self.clique)

    @property
    def independent_set(self) -> frozenset:
        return frozenset(self.independent)


@dataclass(frozen=True)
class NotSplit:
    """Negative recognition certificate: an induced C4, C5 or 2K2."""

    kind: str
    vertices: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class NotTwoConnected:
    """Certificate that a graph is not 2-connected.

    ``cut_vertex`` is an articulation vertex when one exists; for
    disconnected or sub-3-vertex graphs there is none and ``reason``
    says why ("disconnected" / "too-small").
    """

    cut_vertex: int | None = None
    reason: str = "cut-vertex"

    def __bool__(self) -> bool:
        return False

    def render(self) -> str:
        if self.cut_vertex is not None:
            return f"cut-vertex {self.cut_vertex}"
        return self.reason


@dataclass(frozen=True)
class NoCycleCertificate:
    """Negative certificate for Hamiltonicity.

    kind is one of "not_two_connected" (payload: NotTwoConnected),
    "short_cycle" (payload: paths.ShortCycleWitness) or
    "oracle_exhaustive" (exhaustive search completed with no cycle).
    """

    kind: str
    payload: object = None

    def render(self) -> str:
        if self.kind == "not_two_connected":
            return self.payload.render()
        if self.kind == "short_cycle":
            w = self.payload
            return "short-cycle " + ",".join(map(str, w.cycle)) + f" excluded={w.excluded}"
        return "exhaustive-search"


def _partition_from(g: Graph, clique: Iterable[int]) -> SplitPartition:
    # K is a verified clique, so each member sees the other |K|-1 inside.
    kset = frozenset(int(v) for v in clique)
    independent = tuple(v for v in range(g.n) if v not in kset)
    k_inner = len(kset) - 1
    d_i = {}
    delta = 0
    for v in sorted(kset):
        c = g.degree(v) - k_inner
        d_i[v] = c
        delta = max(delta, c)
    return SplitPartition(tuple(sorted(kset)), independent, d_i, delta)


def _verify_candidate(g: Graph, clique: Iterable[int], independent: Iterable[int]) -> None:
    kset = set(int(v) for v in clique)
    iset = set(int(v) for v in independent)
    if kset & iset or (kset | iset) != set(range(g.n)):
        raise InvalidPartition("clique and independent set must partition V")
    for v in kset:
        if len(g.neighbor_set(v) & kset) != len(kset) - 1:
            raise InvalidPartition(f"clique candidate is not complete at vertex {v}")
    for u in iset:
        if g.neighbor_set(u) & iset:
            raise InvalidPartition(f"independent candidate has an edge at vertex {u}")


def upgrade_to_maximum_clique(g: Graph, clique: Iterable[int], independent: Iterable[int]) -> SplitPartition:
    """Upgrade a valid (clique, independent) candidate so K is maximum.

    Any I vertex adjacent to all of K moves into K; after one such move no
    second I vertex can qualify (two I vertices are never adjacent), and a
    clique exceeding |K| by more than the single move cannot exist.
    Raises ``InvalidPartition`` if the candidate is not a split partition.
    """
    _verify_candidate(g, clique, independent)
    return _upgrade_unchecked(g, clique, independent)


def _upgrade_unchecked(g: Graph, clique: Iterable[int], independent: Iterable[int]) -> SplitPartition:
    kset = set(int(v) for v in clique)
    iset = sorted(set(int(v) for v in independent))
    while True:
        k_len = len(kset)
        mover = None
        for u in iset:
            if g.degree(u) >= k_len and sum(1 for w in g.neighbors(u) if int(w) in kset) == k_len:
                mover = u
                break
        if mover is None:
            break
        kset.add(mover)
        iset.remove(mover)
    return _partition_from(g, kset)


def recognize_split(g: Graph) -> SplitPartition | NotSplit:
    """Recognize a split graph, or certify failure.

    Sort vertices by (degree desc, index asc) and take the prefix of
    length k = max{i : d_i >= i-1}; the graph is split exactly when that
    prefix is a clique with independent remainder.  This reads degrees
    only (Hammer-Simeone): the prefix passes iff

        sum(d[:k]) - sum(d[k:]) == k(k-1).

    Proof: the prefix degree sum is 2 e(K) + e(K, I) and the rest's is
    2 e(I) + e(K, I), so the difference is 2 (e(K) - e(I)), which is at
    most k(k-1) with equality iff e(K) = k(k-1)/2 and e(I) = 0.  The
    prefix is then upgraded to a maximum clique.  On failure, search for
    an induced C4, C5 or 2K2.
    """
    n = g.n
    if n == 0:
        return SplitPartition((), (), {}, 0)
    deg = g.degrees()
    order = np.lexsort((np.arange(n), -deg))
    d_sorted = deg[order]
    ranks = np.arange(1, n + 1)
    feasible = d_sorted >= ranks - 1
    k_size = int(np.max(np.where(feasible)[0])) + 1 if feasible.any() else 0
    if int(d_sorted[:k_size].sum()) - int(d_sorted[k_size:].sum()) == k_size * (k_size - 1):
        return _upgrade_unchecked(g, order[:k_size].tolist(), np.sort(order[k_size:]).tolist())
    return _forbidden_subgraph(g)


def _forbidden_subgraph(g: Graph) -> NotSplit:
    """Find an induced 2K2, C4 or C5; only invoked on non-split inputs."""
    edges = list(g.edges())
    # 2K2: two edges with no edge between their endpoints.
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) < 4:
                continue
            if not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d)):
                return NotSplit("2K2", (a, b, c, d))
    # C4: nonadjacent u,v with two nonadjacent common neighbors.
    for u in range(g.n):
        nu = g.neighbor_set(u)
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            common = sorted(nu & g.neighbor_set(v))
            for a, b in combinations(common, 2):
                if not g.has_edge(a, b):
                    return NotSplit("C4", (u, a, v, b))
    # C5: induced five-cycle.
    for a in range(g.n):
        for b in (x for x in g.neighbor_set(a) if x > a):
            for c in (x for x in g.neighbor_set(b) if x > a and x != a and not g.has_edge(x, a)):
                for d in (x for x in g.neighbor_set(c)
                          if x > a and x not in (b,) and not g.has_edge(x, a) and not g.has_edge(x, b)):
                    for e in (x for x in g.neighbor_set(d)
                              if x > a and x not in (b, c) and g.has_edge(x, a)
                              and not g.has_edge(x, b) and not g.has_edge(x, c)):
                        return NotSplit("C5", (a, b, c, d, e))
    raise AssertionError("graph failed split verification but no witness found")


def is_two_connected(g: Graph) -> bool | NotTwoConnected:
    """True iff connected, >= 3 vertices and no articulation vertex.

    Generic iterative lowpoint computation; the certificate carries the
    smallest articulation vertex.  Split-structured callers should use
    ``split_is_two_connected`` which is linear in the sparse side.
    """
    n = g.n
    if n < 3:
        return NotTwoConnected(None, "too-small")
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    artic = [False] * n
    timer = 0
    stack: list[tuple[int, int]] = [(0, 0)]
    children_of_root = 0
    # Iterative DFS from vertex 0; (vertex, neighbor cursor) frames.
    order_cache = [g.neighbors(v) for v in range(n)]
    while stack:
        v, ptr = stack[-1]
        if ptr == 0:
            disc[v] = low[v] = timer
            timer += 1
        row = order_cache[v]
        advanced = False
        while ptr < row.shape[0]:
            w = int(row[ptr])
            ptr += 1
            if disc[w] == -1:
                parent[w] = v
                if v == 0:
                    children_of_root += 1
                stack[-1] = (v, ptr)
                stack.append((w, 0))
                advanced = True
                break
            if w != parent[v]:
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack[-1] = (v, ptr)
        if ptr >= row.shape[0]:
            stack.pop()
            if parent[v] >= 0:
                p = parent[v]
                low[p] = min(low[p], low[v])
                if parent[p] >= 0 and low[v] >= disc[p]:
                    artic[p] = True
    if timer < n:
        return NotTwoConnected(None, "disconnected")
    if children_of_root > 1:
        artic[0] = True
    for v in range(n):
        if artic[v]:
            return NotTwoConnected(v)
    return True


def split_is_two_connected(g: Graph, p: SplitPartition) -> bool | NotTwoConnected:
    """2-connectivity specialized to a split partition.

    With K a clique of size >= 3 the only obstructions are isolated or
    pendant independent-set vertices, so the test is linear in |I|.
    Agrees with ``is_two_connected`` on split inputs (property-tested).
    """
    n = g.n
    if n < 3:
        return NotTwoConnected(None, "too-small")
    for u in p.independent:
        d = g.degree(u)
        if d == 0:
            return NotTwoConnected(None, "disconnected")
        if d == 1:
            return NotTwoConnected(int(g.neighbors(u)[0]))
    k = len(p.clique)
    if k == 0:
        return NotTwoConnected(None, "disconnected")  # edgeless on >= 3 vertices
    if k == 1:
        # Independent vertices all have degree >= 2 <= |K| = 1: impossible,
        # so reaching here means I is empty and the graph is a single vertex.
        return NotTwoConnected(None, "too-small")
    if k == 2 and not p.independent:
        return NotTwoConnected(None, "too-small")
    return True


@dataclass(frozen=True)
class StarLevels:
    """Forbidden-star classification used by the dispatcher.

    Star existence is monotone (an induced K_{1,s} contains an induced
    K_{1,s-1}), so the three flags are decreasing in strictness; each
    witness is (center, arms) for the corresponding star when present.
    The search is capped at K_{1,5}.
    """

    claw_free: bool
    k14_free: bool
    k15_free: bool
    witness3: tuple[int, tuple[int, ...]] | None = None
    witness4: tuple[int, tuple[int, ...]] | None = None
    witness5: tuple[int, tuple[int, ...]] | None = None


def _coverage_witness(center: int, arm_candidates: list[int],
                      masks: dict[int, int], full: int) -> int | None:
    """Smallest clique vertex nonadjacent to every listed I vertex.

    The center itself is adjacent to all of them, so it is never returned.
    """
    covered = 0
    for u in arm_candidates:
        covered |= masks[u]
    uncovered = full & ~covered
    if uncovered == 0:
        return None
    return (uncovered & -uncovered).bit_length() - 1


def _find_split_star(g: Graph, p: SplitPartition, s: int,
                     masks: dict[int, int], full: int) -> tuple[int, tuple[int, ...]] | None:
    """Witness of an induced K_{1,s} in a split graph, or None.

    Only clique centers can host one (the neighborhood of an I vertex is
    a clique) and at most one arm lies in K; so a witness at v exists iff
    d_i[v] >= s, or d_i[v] = s-1 and some clique vertex avoids all of
    N(v) & I.
    """
    kset = p.clique_set
    for v in p.clique:
        di = p.d_i[v]
        if di >= s:
            arms = tuple(u for u in map(int, g.neighbors(v)) if u not in kset)[:s]
            return v, arms
        if di == s - 1:
            arms = [u for u in map(int, g.neighbors(v)) if u not in kset]
            w = _coverage_witness(v, arms, masks, full)
            if w is not None:
                return v, tuple(sorted(arms + [w]))
    return None


def star_free_level(g: Graph, p: SplitPartition) -> StarLevels:
    """Classify K_{1,3}/K_{1,4}/K_{1,5}-freeness with witness stars."""
    masks: dict[int, int] = {}
    full = 0
    for v in p.clique:
        full |= 1 << v
    for u in p.independent:
        m = 0
        for w in g.neighbors(u):
            m |= 1 << int(w)
        masks[u] = m
    w3 = _find_split_star(g, p, 3, masks, full)
    w4 = _find_split_star(g, p, 4, masks, full) if w3 is not None else None
    w5 = _find_split_star(g, p, 5, masks, full) if w4 is not None else None
    return StarLevels(
        claw_free=w3 is None,
        k14_free=w4 is None,
        k15_free=w5 is None,
        witness3=w3,
        witness4=w4,
        witness5=w5,
    )
