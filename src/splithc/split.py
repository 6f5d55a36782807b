"""Split-graph recognition, 2-connectivity and star levels.

A split graph partitions into a clique K and an independent set I; we
keep K a *maximum* clique throughout (the stronger of the two conditions
the structure theory alternates between).  Recognition takes the largest
degree-ordered prefix that can be a clique; when the degree-sum test
holds, that prefix is a clique, the remainder is independent and no
vertex of the remainder sees all of the prefix, so K is maximum as read.
On failure it exhibits an induced C4, C5 or 2K2, the three forbidden
subgraphs characterizing split graphs.

Both answers start from one test, the Hammer-Simeone degree-sum identity
(``_degree_sum_split``), applied once to the whole graph in O(n log n)
after the degrees.  When it fails, its prefix K still bounds the degrees:
every vertex of K has degree at least |K| - 1 and every other vertex at
most |K| - 1.  The witness search (``_forbidden_subgraph``) reads the
forbidden subgraph off that order: one pass over the stored rows of the
vertices outside K finds a non-edge inside K or an edge outside it, and a
few neighbourhood scans extend it to the witness, so a non-split answer
costs O(n + m) as well.

A vertex v of K sees the other |K| - 1 inside K, so it has
degree(v) - (|K| - 1) independent neighbours; ``delta_i`` is the maximum
of those counts and is the quantity the solver dispatches on.

Cost on the delta_i <= 2 route: Python steps scale with |I|, and the
clique side is handled by whole-array numpy calls and C-level builtins.
Recognition sorts the degrees once and reads K and I off one mask; the
partition keeps both as the arrays that mask gives, and the mask itself as
``bytes``, so that a membership test from Python is one index with no
numpy call.  The 2-connectivity test gathers only the vertices of degree
below 2.  The star search visits only the centres, the clique vertices
with at least two independent neighbours (at most |E(K, I)| / 2 of them),
and reads each one's arms from its stored row, never from the O(|K|)
merged neighbourhood of a block vertex (``Graph.neighbors``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import WitnessNotFound
from .graph import Graph

__all__ = [
    "SplitPartition",
    "NotSplit",
    "NotTwoConnected",
    "StarLevels",
    "recognize_split",
    "split_is_two_connected",
    "star_free_level",
]


@dataclass(frozen=True, eq=False)
class SplitPartition:
    """Partition (K, I) with K a clique and I independent; recognition and
    the reduction make K a maximum clique.

    ``clique`` and ``independent`` are ascending, read-only intp arrays
    that together cover V; ``in_clique`` is the membership mask as
    ``bytes``, 1 on K and 0 on I, so ``p.in_clique[v]`` is a Python int
    (``np.frombuffer(p.in_clique, bool)`` reads it as an array, no copy).
    ``delta_i`` is the largest number of independent neighbours of a clique
    vertex, 0 when K is empty.  Partitions compare by identity; compare
    their fields to compare their values.
    """

    clique: np.ndarray
    independent: np.ndarray
    in_clique: bytes
    delta_i: int


@dataclass(frozen=True)
class NotSplit:
    """Negative recognition certificate: an induced C4, C5 or 2K2.

    ``kind`` is "2K2", "C4" or "C5" and ``vertices`` induce exactly that
    graph, in this order: a 2K2 is (a, b, c, d) with edges ab and cd; a C4
    or C5 lists its vertices around the cycle, so consecutive vertices,
    the last and the first included, are the adjacent pairs.
    ``recognize_split`` also fixes the order by the vertex set alone: a
    2K2 has a < b, c < d and a < c, and a cycle starts at its smallest
    vertex and goes on to the smaller of that vertex's two neighbours.
    """

    kind: str
    vertices: tuple[int, ...]

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class NotTwoConnected:
    """Certificate that a graph is not 2-connected, and so has no
    Hamiltonian cycle; ``solve`` returns it as its certificate.

    ``cut_vertex`` is an articulation vertex when one exists; for
    disconnected or sub-3-vertex graphs there is none and ``reason``
    says why ("disconnected" / "too-small").  It is falsy, like every
    negative answer of ``split_is_two_connected``.
    """

    cut_vertex: int | None = None
    reason: str = "cut-vertex"

    def __bool__(self) -> bool:
        return False

    def render(self) -> str:
        if self.cut_vertex is not None:
            return f"cut-vertex {self.cut_vertex}"
        return self.reason


def _partition_from(g: Graph, clique: Sequence[int] | np.ndarray) -> SplitPartition:
    """The partition with K = ``clique`` and I = V - K, both read off one
    mask in id order.  ``clique`` is any clique of ``g`` whose complement
    is independent, in any order; recognition and the reduction pass a
    maximum one.  Each member of K sees the other |K| - 1 inside, so its
    independent neighbours number its degree minus |K| - 1."""
    in_k = np.zeros(g.n, dtype=bool)
    in_k[np.asarray(clique, dtype=np.intp)] = True
    ks, rest = in_k.nonzero()[0], (~in_k).nonzero()[0]
    ks.flags.writeable = rest.flags.writeable = False
    outside = g.degrees()[ks] - (ks.shape[0] - 1)
    return SplitPartition(ks, rest, in_k.tobytes(), int(outside.max(initial=0)))


def _degree_sum_split(d_sorted: np.ndarray) -> tuple[int, bool]:
    """Hammer-Simeone test on a nonincreasing degree sequence.

    With k = max{i : d_i >= i-1} (1-based), the graph is split exactly when

        sum(d[:k]) - sum(d[k:]) == k(k-1),

    and then its k highest-degree vertices form a clique and the rest an
    independent set.  Returns k and whether the identity holds.

    Proof: for the prefix K of the first k vertices the prefix degree sum
    is 2 e(K) + e(K, I) and the rest's is 2 e(I) + e(K, I), so the
    difference is 2 (e(K) - e(I)), which is at most k(k-1) with equality
    iff e(K) = k(k-1)/2 and e(I) = 0.  Conversely a split graph's degree
    sequence satisfies the identity (Hammer & Simeone, Combinatorica 1981).
    """
    # d_i - (i-1) strictly decreases, so the feasible i form a prefix.
    k = int(np.count_nonzero(d_sorted >= np.arange(d_sorted.shape[0])))
    head = int(d_sorted[:k].sum())
    return k, 2 * head - int(d_sorted.sum()) == k * (k - 1)


def recognize_split(g: Graph) -> SplitPartition | NotSplit:
    """Recognize a split graph, or certify failure, in O(n log n + m):
    the log factor is the one sort of the degrees.

    Sort vertices by (degree desc, index asc) and check the degree-sum
    identity of ``_degree_sum_split``; it reads degrees only.  When it
    holds, the length-k prefix of that order is a clique and the rest
    independent, and the prefix is already a maximum clique.  On failure,
    ``_forbidden_subgraph`` reads an induced C4, C5 or 2K2 off the same
    prefix.
    """
    deg = g.degrees()
    order = np.argsort(-deg, kind="stable")
    k_size, split = _degree_sum_split(deg[order])
    if not split:
        return _in_order(_forbidden_subgraph(g, order[:k_size]))
    # No independent vertex sees all of K, so K is a maximum clique: the
    # largest degree outside the prefix, if any, is below k (k is maximal).
    return _partition_from(g, order[:k_size])


def _forbidden_subgraph(g: Graph, prefix: np.ndarray) -> NotSplit:
    """An induced 2K2, C4 or C5, read off the prefix K = ``prefix`` of a
    failed degree-sum test; I = V - K.  Raises ``WitnessNotFound`` when K
    is a clique and I independent, so that the test could not have failed.

    K is the first k vertices by (degree desc, id asc), so d(a) >= d(x) for
    a in K and x in I, d(a) >= k - 1 (k is feasible) and d(x) <= k - 1
    (k + 1 is not).  One pass over the stored rows of I
    (``Graph.degrees_into``) counts each vertex's neighbours in I: a vertex
    a of K with more than d(a) - (k - 1) lies on a non-edge of K, and a
    vertex of I with any on an edge of I.  With N[v] = N(v) + v, the
    smallest such vertex extends to a witness (Foldes and Hammer's three;
    Heggernes and Kratsch also read one off this order in linear time):

    * K has a non-edge ab.  a sees at most k - 2 vertices of K, so it has
      a neighbour in I, and so has b.
      - If some x in I sees both, take c in N(a) - N[x]: one exists, since
        d(a) >= d(x) and b lies in N(x) - N[a] (the count in
        ``_close_p4``), and c is not b.  If c sees b, a-x-b-c is a C4;
        otherwise b-x-a-c is an induced P4.
      - Otherwise take x in N(a) & I and y in N(b) & I; x misses b and y
        misses a.  If x and y are not adjacent, ax and by form a 2K2;
        otherwise a-x-y-b is an induced P4.
    * K is a clique and I has an edge xy.  x has degree at most k - 1 and
      sees y, so it misses at least two vertices of K, and so does y: let
      A = K - N(x) and B = K - N(y).  With a in A - B and b in B - A,
      x-y-a-b is a C4.  Otherwise one of A and B contains the other, and
      two vertices of the smaller one form a 2K2 with xy.

    Both P4s start at a vertex of K followed by one of I, so
    ``_close_p4`` applies.  The pass reads only the rows of I, and each
    scan one neighbourhood or one mask over V, so the search is O(n + m).
    """
    k = prefix.shape[0]
    in_k = np.zeros(g.n, dtype=bool)
    in_k[prefix] = True
    deg = g.degrees()
    into_i = g.degrees_into(~in_k)
    gaps = (in_k & (deg - into_i < k - 1)).nonzero()[0]
    if gaps.size:
        a = int(gaps[0])
        outside = in_k.copy()  # K - N[a]
        outside[g.neighbors(a)] = False
        outside[a] = False
        b = int(outside.argmax())
        in_k_list = in_k.tolist()
        nb = g.neighbors(b).tolist()
        xs = [u for u in g.neighbors(a).tolist() if not in_k_list[u]]
        ys = [u for u in nb if not in_k_list[u]]
        seen_b = set(ys)
        x = next((u for u in xs if u in seen_b), None)
        if x is not None:
            c = _first_outside(g, a, x)
            if c in nb:
                return NotSplit("C4", (a, x, b, c))
            return _close_p4(g, b, x, a, c)
        x, y = xs[0], ys[0]
        if g.has_edge(x, y):
            return _close_p4(g, a, x, y, b)
        return NotSplit("2K2", (a, x, b, y))
    edged = (~in_k & (into_i > 0)).nonzero()[0]
    if not edged.size:
        raise WitnessNotFound("K is a clique and V - K independent: the graph is split")
    x = int(edged[0])
    nx = g.neighbors(x)
    y = int(nx[~in_k[nx]][0])
    miss_x = in_k.copy()  # A
    miss_x[nx] = False
    miss_y = in_k.copy()  # B
    miss_y[g.neighbors(y)] = False
    only_x = (miss_x & ~miss_y).nonzero()[0]
    only_y = (miss_y & ~miss_x).nonzero()[0]
    if only_x.size and only_y.size:
        return NotSplit("C4", (x, y, int(only_x[0]), int(only_y[0])))
    a1, a2 = (miss_y if only_x.size else miss_x).nonzero()[0][:2].tolist()
    return NotSplit("2K2", (x, y, a1, a2))


def _in_order(w: NotSplit) -> NotSplit:
    """``w`` in the order that ``NotSplit`` fixes by the vertex set."""
    vs = w.vertices
    if w.kind == "2K2":
        first, second = sorted((tuple(sorted(vs[:2])), tuple(sorted(vs[2:]))))
        return NotSplit(w.kind, first + second)
    return NotSplit(w.kind, _rotated(vs, vs.index(min(vs))))


def _rotated(cycle: Sequence[int], i: int) -> tuple[int, ...]:
    """``cycle`` read from entry ``i`` toward the smaller of that entry's
    two neighbours: the normal form of every cyclic certificate, each
    anchored at the entry its caller picks."""
    rot = (*cycle[i:], *cycle[:i])
    return rot[:1] + rot[:0:-1] if rot[1] > rot[-1] else rot


def _close_p4(g: Graph, p: int, q: int, r: int, s: int) -> NotSplit:
    """The witness that closes the induced path p-q-r-s, where d(p) >= d(q).

    With C the common neighbours of p and q, |N(p) - N[q]| = d(p) - 1 - |C|
    >= d(q) - 1 - |C| = |N(q) - N[p]| >= 1, as r lies in N(q) - N[p]; so
    some c in N(p) - N[q] exists, and it is not r or s, which p does not
    see.  If c sees r, c-p-q-r is a C4; otherwise, if c sees s, p-q-r-s-c
    is a C5; otherwise cp and rs form a 2K2.
    """
    c = _first_outside(g, p, q)
    seen_c = set(g.neighbors(c).tolist())
    if r in seen_c:
        return NotSplit("C4", (c, p, q, r))
    if s in seen_c:
        return NotSplit("C5", (p, q, r, s, c))
    return NotSplit("2K2", (c, p, r, s))


def _first_outside(g: Graph, p: int, q: int) -> int:
    """The smallest vertex of N(p) - N[q]; the caller proves one exists."""
    closed = set(g.neighbors(q).tolist())
    closed.add(q)
    return next(u for u in g.neighbors(p).tolist() if u not in closed)


def split_is_two_connected(g: Graph, p: SplitPartition) -> bool | NotTwoConnected:
    """2-connectivity specialized to a split partition.

    With K a clique of size >= 3 the only obstructions are isolated or
    pendant independent-set vertices, so the test is linear in |I|.
    Agrees with networkx ``is_biconnected`` on split inputs, and a cut
    vertex it reports is an articulation point (property-tested).

    Past the two checks below (n >= 3, no independent vertex of degree
    below 2), |K| >= 3, or K = {a, b} with I non-empty and every vertex of
    I seeing both; either graph is 2-connected.  |K| = 0 makes every vertex
    an isolated independent one; |K| = 1 gives each independent vertex
    degree at most 1, and n >= 3 puts one in I; |K| = 2 with I empty is
    n = 2.
    """
    n = g.n
    if n < 3:
        return NotTwoConnected(None, "too-small")
    # The first independent vertex of degree 0 or 1, in ``p.independent``
    # (id) order, decides.  Vertices of degree below 2 are few (a
    # 2-connected graph has none).
    low = np.less(g.degrees(), 2)
    if np.count_nonzero(low):
        for u in low.nonzero()[0].tolist():
            if not p.in_clique[u]:
                if g.degree(u) == 0:
                    return NotTwoConnected(None, "disconnected")
                return NotTwoConnected(int(g.neighbors(u)[0]))
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
    a clique) and at most one arm lies in K.  A clique vertex v has
    t = degree(v) - (|K| - 1) independent neighbours, so a witness at v
    exists iff t >= s, or t = s-1 and the rows of N(v) & I, which lie in
    K, cover fewer than |K| vertices.  The extra arm is then the smallest
    clique vertex outside them (never v, which they all contain).

    ``centres`` lists the clique vertices with t >= 2 in id order, and
    only those with t >= s - 1 are visited.  A centre's arms N(v) & I
    come from its stored row (``Graph.stored_row``): the block of ``g`` is
    a clique and I independent, so at most one block vertex lies in I, and
    the row misses at most that one arm; only then is N(v) read whole.
    """
    if p.delta_i < s - 1:
        return None
    in_clique, inside = p.in_clique, p.clique.shape[0] - 1
    rows: dict[int, list[int]] = {}  # N(u) of each arm read so far
    # The extra arm of each set of arms tried, None when they cover K:
    # centres often share their arms, and a set's cover costs the sum of
    # its arms' degrees.
    extra: dict[tuple[int, ...], int | None] = {}
    for v in centres:
        t = g.degree(v) - inside
        if t < s - 1:
            continue
        arms = [u for u in g.stored_row(v).tolist() if not in_clique[u]]
        if len(arms) < t:
            arms = [u for u in g.neighbors(v).tolist() if not in_clique[u]]
        if t >= s:
            return v, tuple(arms[:s])
        key = tuple(arms)
        if key not in extra:
            extra[key] = _first_uncovered(g, p.clique, key, rows)
        w = extra[key]
        if w is not None:
            return v, tuple(sorted(arms + [w]))
    return None


def _first_uncovered(g: Graph, clique: np.ndarray, arms: tuple[int, ...],
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
    return next(x for x in clique.tolist() if x not in covered)


def star_free_level(g: Graph, p: SplitPartition) -> StarLevels:
    """Classify K_{1,3}/K_{1,4}/K_{1,5}-freeness with witness stars."""
    # A clique vertex with t independent neighbours has degree |K| - 1 + t
    # and an independent one at most |K| (it sees only K), so the clique
    # vertices with t >= 2, the only centres a claw can have, are the
    # vertices of degree above |K|.
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
