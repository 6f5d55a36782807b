"""Graph helpers only the tests use.

Small named graphs, the loop-built ladder that
``generators.big_delta2_instance`` is checked against, the cycle validator
by one adjacency probe per cycle pair that ``graph._cycle_defect`` is
checked against, induced subgraphs,
connected components by
depth-first search, the generic 2-connectivity test by lowpoints, the
naive induced-star search that ``split.star_free_level`` is checked
against, and the exhaustive enumeration of small split graphs up to
isomorphism.  None of it is on a path the package runs.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterable, Iterator

import numpy as np

from splithc.graph import Graph, _from_edge_array, graph_from_edges, graph_from_split
from splithc.split import NotTwoConnected


def find_induced_star(g: Graph, arms: int) -> tuple[int, tuple[int, ...]] | None:
    """Smallest witness (center, arm tuple) of an induced K_{1,s}, or None.

    Naive enumeration over centers with independence pruning; intended for
    small arm counts (s <= 5) and test-scale graphs.  Split-aware callers
    should prefer ``split.star_free_level``.
    """
    if arms < 1:
        raise ValueError("arm count must be >= 1")
    for center in range(g.n):
        nbrs = [int(u) for u in g.neighbors(center)]
        if len(nbrs) < arms:
            continue
        witness = _independent_subset(g, nbrs, arms)
        if witness is not None:
            return center, witness
    return None


def _independent_subset(g: Graph, candidates: list[int], k: int) -> tuple[int, ...] | None:
    """Lexicographically smallest k-subset of ``candidates`` that is independent."""
    chosen: list[int] = []

    def extend(start: int) -> bool:
        if len(chosen) == k:
            return True
        # Not enough candidates left to finish.
        if len(candidates) - start < k - len(chosen):
            return False
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all(not g.has_edge(c, x) for x in chosen):
                chosen.append(c)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if extend(0):
        return tuple(chosen)
    return None


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep``; returns (subgraph, new->old index map).

    The kept vertices of ``g``'s clique block stay the block.  Every other
    edge has an end outside the block, so it is read from the
    neighbourhood of that end, once."""
    old = np.array(sorted(set(int(v) for v in keep)), dtype=np.int64)
    kept = np.zeros(g.n, dtype=bool)
    kept[old] = True
    relabel = np.zeros(g.n, dtype=np.int64)
    relabel[old] = np.arange(old.shape[0])
    outside = [int(v) for v in old if not g.in_block[v]]
    rows = [g.neighbors(v) for v in outside]
    src = np.repeat(np.array(outside, dtype=np.int64), [row.shape[0] for row in rows])
    dst = np.concatenate(rows).astype(np.int64) if rows else np.empty(0, dtype=np.int64)
    # An edge between two vertices outside the block is read from both ends.
    once = kept[dst] & (g.in_block[dst] | (src < dst))
    edges = np.column_stack([relabel[src[once]], relabel[dst[once]]])
    block = relabel[g.block[kept[g.block]]]
    return graph_from_split(old.shape[0], block, edges), tuple(old.tolist())


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of connected components, each sorted, smallest-first."""
    seen = np.zeros(g.n, dtype=bool)
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(sorted(comp))
    return comps


def is_two_connected(g: Graph) -> bool | NotTwoConnected:
    """True iff connected, >= 3 vertices and no articulation vertex.

    Generic iterative lowpoint computation; the certificate carries the
    smallest articulation vertex.  The package runs only
    ``split.split_is_two_connected``, which is linear in the sparse side.
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


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, edges)


def loop_big_delta2_instance(n_clique: int, n_ind: int, extra_deg3: int = 0) -> Graph:
    """``generators.big_delta2_instance`` as the package built it before
    its edges became whole-array numpy calls: the K-I edges from a Python
    loop of tuples, and the block made sorted and distinct by ``np.unique``,
    as ``graph_from_split`` did."""
    k, i = n_clique, n_ind
    if i + 1 + 2 * extra_deg3 > k:
        raise ValueError("ladder needs a clique wider than the independent side")
    edges = []
    for j in range(i):
        if j < i - extra_deg3:
            nbrs = (j, j + 1)
        else:
            t = j - (i - extra_deg3)
            base = i + 1 + 2 * t
            nbrs = (base, base + 1, base + 2) if base + 2 < k else (base, base + 1)
        edges.extend((w, k + j) for w in nbrs)
    block = np.unique(np.fromiter(range(k), dtype=np.int64))
    return _from_edge_array(k + i, np.array(edges, dtype=np.int64).reshape(-1, 2),
                            block.astype(np.int32))


def probe_cycle_defect(g: Graph, order) -> str | None:
    """``graph._cycle_defect`` as the package ran it before the successor
    match: Python ``min``/``max`` for the range, a ``bincount`` for repeats,
    and one ``Graph.has_edges`` probe over every consecutive pair, the
    closing pair included."""
    n = g.n
    if n < 3:
        return "a cycle needs at least 3 vertices"
    if (len(order) != n
            or not all(issubclass(t, (int, np.integer)) and t is not bool
                       for t in set(map(type, order)))
            or min(order) < 0 or max(order) >= n):
        return "not a permutation of the vertex set"
    ring = np.asarray(order, dtype=np.int64)
    if np.bincount(ring, minlength=n).max() > 1:
        return "not a permutation of the vertex set"
    ring = np.append(ring, ring[0])
    bad = np.flatnonzero(~g.has_edges(ring[:-1], ring[1:]))
    if bad.size:
        u, v = ring[bad[0]:bad[0] + 2].tolist()
        return f"{u} {v} is not an edge"
    return None


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small split graphs up to isomorphism


def _refine_colors(n: int, adj: list[set[int]]) -> list[int]:
    colors = [len(adj[v]) for v in range(n)]
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in range(n)]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _canonical_key(n: int, edges: frozenset[frozenset[int]]) -> tuple:
    """Minimum edge bitmask over all color-class-respecting relabelings."""
    adj = [set() for _ in range(n)]
    for e in edges:
        a, b = sorted(e)
        adj[a].add(b)
        adj[b].add(a)
    colors = _refine_colors(n, adj)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]

    best: int | None = None
    slots: list[int] = [0] * n

    def label_and_score(perm_groups: list[list[int]]) -> int:
        pos = 0
        for grp in perm_groups:
            for v in grp:
                slots[v] = pos
                pos += 1
        bits = 0
        for e in edges:
            a, b = e
            x, y = slots[a], slots[b]
            if x > y:
                x, y = y, x
            bits |= 1 << (x * n + y)
        return bits

    def rec(idx: int, acc: list[list[int]]) -> None:
        nonlocal best
        if idx == len(ordered_classes):
            score = label_and_score(acc)
            if best is None or score < best:
                best = score
            return
        from itertools import permutations as _perms
        for perm in _perms(ordered_classes[idx]):
            rec(idx + 1, acc + [list(perm)])

    rec(0, [])
    return (n, len(edges), best)


def enumerate_small_split(n: int) -> Iterator[Graph]:
    """All split graphs on n vertices, one per isomorphism class.

    Every split graph arises as a clique prefix of some size k with a
    multiset of independent-vertex neighborhoods, so it suffices to scan
    row multisets per k and deduplicate by canonical form (color
    refinement plus exact search within color classes; adequate at the
    supported sizes).
    """
    if n > 8:
        raise ValueError("enumeration supported for n <= 8")
    if n == 0:
        return
    seen: set[tuple] = set()
    out: list[tuple[tuple, Graph]] = []
    for k in range(n, -1, -1):
        i = n - k
        for rows in combinations_with_replacement(range(1 << k), i):
            edges: set[frozenset[int]] = set()
            for a, b in combinations(range(k), 2):
                edges.add(frozenset((a, b)))
            for j, row in enumerate(rows):
                for w in range(k):
                    if row >> w & 1:
                        edges.add(frozenset((k + j, w)))
            key = _canonical_key(n, frozenset(edges))
            if key in seen:
                continue
            seen.add(key)
            out.append((key, graph_from_edges(n, [tuple(sorted(e)) for e in edges])))
    out.sort(key=lambda t: t[0])
    for _, g in out:
        yield g
