"""Split-graph recognition, partition maintenance and 2-connectivity.

A split graph partitions into a clique K and an independent set I; we
keep K a *maximum* clique throughout (the stronger of the two conditions
the structure theory alternates between).  Recognition takes the largest
degree-ordered prefix that forms a clique, verifies the remainder is
independent, and upgrades K to maximum; on failure it exhibits an induced
C4, C5 or 2K2, the three forbidden subgraphs characterizing split graphs.

Both answers rest on one test, the Hammer-Simeone degree-sum identity
(``_degree_sum_split``).  Recognition applies it once, to the whole
graph, in O(n log n) after the degrees.  The witness search applies it to
induced subgraphs, O(n + m) each: it shrinks V to a minimal non-split
vertex set with at most 5 (ceil(log2(n+1)) + 1) such tests, so a
non-split answer costs O((n + m) log n) in all.

For vertices ``v`` in K, ``d_i[v]`` counts independent-set neighbors;
``delta_i`` is the maximum of those counts and is the quantity the solver
dispatches on.

Cost on the delta_i <= 2 route: Python steps scale with |I|, and the
clique side is handled by whole-array numpy calls and C-level builtins.
Recognition sorts the degrees once and reads K and I off one mask; the
partition's ``clique`` tuple and ``d_i`` dict are built by ``tuple`` and
``dict(zip(...))``.  The 2-connectivity test gathers only the vertices of
degree below 2.  The star search visits only the centres, the clique
vertices with d_i >= 2 (at most |E(K, I)| / 2 of them), and reads each
one's arms from its stored row, never from the O(|K|) merged
neighbourhood of a block vertex (``Graph.neighbors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidPartition, WitnessNotFound
from .graph import Graph

__all__ = [
    "SplitPartition",
    "NotSplit",
    "NoCycleCertificate",
    "NotTwoConnected",
    "StarLevels",
    "recognize_split",
    "upgrade_to_maximum_clique",
    "split_is_two_connected",
    "star_free_level",
]


@dataclass(frozen=True)
class SplitPartition:
    """Partition (K, I) with K a maximum clique and I independent, each in
    id order."""

    clique: tuple[int, ...]
    independent: tuple[int, ...]
    d_i: Mapping[int, int]
    delta_i: int

    @cached_property
    def clique_set(self) -> frozenset:
        return frozenset(self.clique)


@dataclass(frozen=True)
class NotSplit:
    """Negative recognition certificate: an induced C4, C5 or 2K2.

    ``kind`` is "2K2", "C4" or "C5" and ``vertices`` induce exactly that
    graph, in this order: a 2K2 is (a, b, c, d) with edges ab and cd; a C4
    or C5 lists its vertices around the cycle, so consecutive vertices,
    the last and the first included, are the adjacent pairs.
    """

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


def _partition_from(g: Graph, clique: Iterable[int] | np.ndarray) -> SplitPartition:
    """The partition with K = ``clique``, a verified maximum clique, and
    I = V - K, both read off one mask in id order.  Each member of K sees
    the other |K| - 1 inside, so its d_i is its degree minus |K| - 1."""
    in_k = np.zeros(g.n, dtype=bool)
    in_k[clique if isinstance(clique, np.ndarray) else np.fromiter(clique, dtype=np.intp)] = True
    ks = in_k.nonzero()[0]
    outside = g.degrees()[ks] - (ks.shape[0] - 1)
    klist = ks.tolist()
    return SplitPartition(tuple(klist), tuple((~in_k).nonzero()[0].tolist()),
                          dict(zip(klist, outside.tolist())), int(outside.max(initial=0)))


def _verify_candidate(g: Graph, clique: Iterable[int], independent: Iterable[int]) -> None:
    kset = set(int(v) for v in clique)
    iset = set(int(v) for v in independent)
    if kset & iset or (kset | iset) != set(range(g.n)):
        raise InvalidPartition("clique and independent set must partition V")
    for v in kset:
        if len(kset.intersection(g.neighbors(v).tolist())) != len(kset) - 1:
            raise InvalidPartition(f"clique candidate is not complete at vertex {v}")
    for u in iset:
        if not iset.isdisjoint(g.neighbors(u).tolist()):
            raise InvalidPartition(f"independent candidate has an edge at vertex {u}")


def upgrade_to_maximum_clique(g: Graph, clique: Iterable[int], independent: Iterable[int]) -> SplitPartition:
    """Upgrade a valid (clique, independent) candidate so K is maximum.

    Any I vertex adjacent to all of K moves into K; after one such move no
    second I vertex can qualify (two I vertices are never adjacent), and a
    clique exceeding |K| by more than the single move cannot exist.
    Raises ``InvalidPartition`` if the candidate is not a split partition.
    """
    _verify_candidate(g, clique, independent)
    # An independent vertex sees only K, so it sees all of K exactly when
    # its degree is |K|; the smallest such vertex moves.
    ks = np.fromiter(clique, dtype=np.intp)
    ind = np.fromiter(independent, dtype=np.intp)
    movers = ind[g.degrees()[ind] == ks.shape[0]]
    if movers.size:
        ks = np.append(ks, movers.min())
    return _partition_from(g, ks)


def _degree_sum_split(d_sorted: np.ndarray) -> int | None:
    """Hammer-Simeone test on a nonincreasing degree sequence.

    With k = max{i : d_i >= i-1} (1-based), the graph is split exactly when

        sum(d[:k]) - sum(d[k:]) == k(k-1),

    and then its k highest-degree vertices form a clique and the rest an
    independent set.  Returns k in that case and None otherwise.

    Proof: for the prefix K of the first k vertices the prefix degree sum
    is 2 e(K) + e(K, I) and the rest's is 2 e(I) + e(K, I), so the
    difference is 2 (e(K) - e(I)), which is at most k(k-1) with equality
    iff e(K) = k(k-1)/2 and e(I) = 0.  Conversely a split graph's degree
    sequence satisfies the identity (Hammer & Simeone, Combinatorica 1981).
    """
    # d_i - (i-1) strictly decreases, so the feasible i form a prefix.
    k = int(np.count_nonzero(d_sorted >= np.arange(d_sorted.shape[0])))
    head = int(d_sorted[:k].sum())
    return k if 2 * head - int(d_sorted.sum()) == k * (k - 1) else None


def recognize_split(g: Graph) -> SplitPartition | NotSplit:
    """Recognize a split graph, or certify failure.

    Sort vertices by (degree desc, index asc) and check the degree-sum
    identity of ``_degree_sum_split``; it reads degrees only.  When it
    holds, the length-k prefix of that order is a clique and the rest
    independent, and the prefix is already a maximum clique.  On failure,
    ``_forbidden_subgraph`` finds an induced C4, C5 or 2K2.
    """
    n = g.n
    if n == 0:
        return SplitPartition((), (), {}, 0)
    deg = g.degrees()
    order = np.argsort(-deg, kind="stable")
    k_size = _degree_sum_split(deg[order])
    if k_size is None:
        return _forbidden_subgraph(g)
    # No independent vertex sees all of K, so no upgrade can move one: the
    # largest degree outside the prefix, if any, is below k (k is maximal).
    return _partition_from(g, order[:k_size])


def _forbidden_subgraph(g: Graph) -> NotSplit:
    """Shrink V to a minimal non-split set; only invoked on non-split inputs.

    Being split is hereditary, and the minimal non-split graphs are
    exactly 2K2, C4 and C5 (Foldes & Hammer).  Keep a set W (``must``)
    and a prefix [0, rest) of the vertex ids with G[W + [0, rest)]
    non-split.  While G[W] is split, binary-search the smallest j with
    G[W + [0, j)] non-split; vertex j-1 lies in every non-split subset of
    that set, so it joins W and rest becomes j-1.  Every member of the
    final W was needed when it joined, so W is minimal: at most 5 rounds,
    each of at most ceil(log2(n)) tests plus one test of W once |W| >= 4
    (smaller graphs are split).
    """
    n = g.n

    def is_split(members: list[int], prefix: int) -> bool:
        mask = np.zeros(n, dtype=bool)
        mask[:prefix] = True
        mask[members] = True
        deg = g.induced_degrees(mask)
        # Counting sort: the degrees of the induced subgraph are below n.
        hist = np.bincount(deg)
        return _degree_sum_split(np.repeat(np.arange(hist.shape[0])[::-1], hist[::-1])) is not None

    must: list[int] = []
    rest = n
    while len(must) < 4 or is_split(must, 0):
        if rest == 0 or len(must) == 5:
            raise WitnessNotFound(f"witness search stalled at {must}")
        lo, hi = 0, rest  # G[W + [0, lo)] split, G[W + [0, hi)] not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if is_split(must, mid):
                lo = mid
            else:
                hi = mid
        must.append(hi - 1)
        rest = hi - 1
    return _read_witness(g, must)


def _read_witness(g: Graph, members: list[int]) -> NotSplit:
    """Name the minimal non-split set ``members`` and order it per ``NotSplit``."""
    vs = sorted(members)
    adj = {v: [w for w in vs if g.has_edge(v, w)] for v in vs}
    degrees = sorted(len(a) for a in adj.values())
    if len(vs) == 4 and degrees == [1, 1, 1, 1]:
        a = vs[0]
        b = adj[a][0]
        c, d = (v for v in vs if v not in (a, b))
        return NotSplit("2K2", (a, b, c, d))
    if len(vs) in (4, 5) and degrees == [2] * len(vs):
        cycle = [vs[0], adj[vs[0]][0]]
        while len(cycle) < len(vs):
            prev, cur = cycle[-2], cycle[-1]
            cycle.append(next(w for w in adj[cur] if w != prev))
        return NotSplit(f"C{len(vs)}", tuple(cycle))
    raise WitnessNotFound(f"vertices {vs} induce no 2K2, C4 or C5")


def split_is_two_connected(g: Graph, p: SplitPartition) -> bool | NotTwoConnected:
    """2-connectivity specialized to a split partition.

    With K a clique of size >= 3 the only obstructions are isolated or
    pendant independent-set vertices, so the test is linear in |I|.
    Agrees with networkx ``is_biconnected`` on split inputs, and a cut
    vertex it reports is an articulation point (property-tested).
    """
    n = g.n
    if n < 3:
        return NotTwoConnected(None, "too-small")
    # The first independent vertex of degree 0 or 1, in ``p.independent``
    # (id) order, decides.  Vertices of degree below 2 are few (a
    # 2-connected graph has none), and the keys of ``d_i`` are K.
    low = np.less(g.degrees(), 2)
    if np.count_nonzero(low):
        for u in low.nonzero()[0].tolist():
            if u not in p.d_i:
                if g.degree(u) == 0:
                    return NotTwoConnected(None, "disconnected")
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


def _find_split_star(g: Graph, p: SplitPartition, s: int,
                     centres: list[int]) -> tuple[int, tuple[int, ...]] | None:
    """Witness of an induced K_{1,s} in a split graph, or None.

    Only clique centers can host one (the neighborhood of an I vertex is
    a clique) and at most one arm lies in K; so a witness at v exists iff
    d_i[v] >= s, or d_i[v] = s-1 and the rows of N(v) & I, which lie in
    K, cover fewer than |K| vertices.  The extra arm is then the smallest
    clique vertex outside them (never v, which they all contain).

    ``centres`` lists the clique vertices with d_i >= 2 in id order, and
    only those with d_i >= s - 1 are visited.  A centre's arms N(v) & I
    come from its stored row (``Graph.stored_row``): the block of ``g`` is
    a clique and I independent, so at most one block vertex lies in I, and
    the row misses at most that one arm; only then is N(v) read whole.
    The keys of ``d_i`` are K.
    """
    if p.delta_i < s - 1:
        return None
    d_i = p.d_i
    rows: dict[int, list[int]] = {}  # N(u) of each arm read so far
    # The extra arm of each set of arms tried, None when they cover K:
    # centres often share their arms, and a set's cover costs the sum of
    # its arms' degrees.
    extra: dict[tuple[int, ...], int | None] = {}
    for v in centres:
        di = d_i[v]
        if di < s - 1:
            continue
        arms = [u for u in g.stored_row(v).tolist() if u not in d_i]
        if len(arms) < di:
            arms = [u for u in g.neighbors(v).tolist() if u not in d_i]
        if di >= s:
            return v, tuple(arms[:s])
        key = tuple(arms)
        if key not in extra:
            extra[key] = _first_uncovered(g, p.clique, key, rows)
        w = extra[key]
        if w is not None:
            return v, tuple(sorted(arms + [w]))
    return None


def _first_uncovered(g: Graph, clique: tuple[int, ...], arms: tuple[int, ...],
                     rows: dict[int, list[int]]) -> int | None:
    """The smallest vertex of ``clique`` that no arm sees, or None; ``rows``
    caches the arms' neighbourhoods between calls."""
    covered: set[int] = set()
    for u in arms:
        row = rows.get(u)
        if row is None:
            row = rows[u] = g.neighbors(u).tolist()
        covered.update(row)
    if len(covered) == len(clique):
        return None
    return next(x for x in clique if x not in covered)


def star_free_level(g: Graph, p: SplitPartition) -> StarLevels:
    """Classify K_{1,3}/K_{1,4}/K_{1,5}-freeness with witness stars."""
    # A clique vertex has degree |K| - 1 + d_i and an independent one at
    # most |K| (it sees only K), so the clique vertices with d_i >= 2, the
    # only centres a claw can have, are the vertices of degree above |K|.
    centres = (g.degrees() > len(p.clique)).nonzero()[0].tolist()
    w3 = _find_split_star(g, p, 3, centres)
    w4 = _find_split_star(g, p, 4, centres) if w3 is not None else None
    w5 = _find_split_star(g, p, 5, centres) if w4 is not None else None
    return StarLevels(
        claw_free=w3 is None,
        k14_free=w4 is None,
        k15_free=w5 is None,
        witness3=w3,
        witness4=w4,
        witness5=w5,
    )
