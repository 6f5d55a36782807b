"""Path machinery for split graphs whose clique vertices see at most two
independent vertices each.

The bipartite subgraph H collects the degree-2 independent vertices and
their clique neighbors.  Any cycle of H is chordless (its independent
vertices have no edges off the cycle), and a cycle that misses at least
one clique vertex certifies non-Hamiltonicity: deleting S = cycle & K
isolates the cycle's independent vertices, leaving more than |S|
components.  When no such cycle exists, H is a forest of odd paths with
clique endpoints, and the remaining independent vertices are inserted by
a priority rule - join two paths where possible, extend one otherwise,
start a fresh 3-path as a last resort.  The vertices wait in one
min-heap per rule.  An insertion changes the endpoint status or path of
at most four clique vertices, each seen by at most two independent
vertices, and only those independent vertices are reclassified: at most
eight per insertion instead of every vertex left.  The assembled paths
join into a Hamiltonian cycle along clique edges.

All arbitrary choices resolve to the smallest vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain

import numpy as np

from .errors import InvalidCertificate, PremiseViolated
from .graph import Graph, HamCycle, OrientedPath, validate_ham_cycle
from .split import SplitPartition

__all__ = [
    "DegreeTwoSubgraph",
    "ShortCycleWitness",
    "PathSystem",
    "build_degree_two_subgraph",
    "find_short_cycle",
    "assemble_paths",
    "hc_delta2",
]


@dataclass(frozen=True)
class DegreeTwoSubgraph:
    """H: degree-2 independent vertices (va) against their clique
    neighbors (vb), with all va-vb edges of the host graph.  ``adjacency``
    is built once per H and shared by its readers, which must not mutate it."""

    va: tuple[int, ...]
    vb: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.va + self.vb}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj


@dataclass(frozen=True)
class ShortCycleWitness:
    """An induced cycle of H missing at least one clique vertex.

    ``cycle`` alternates clique/independent starting at the smallest
    clique vertex on it; ``excluded`` is a clique vertex not on the cycle.
    """

    cycle: tuple[int, ...]
    excluded: int


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint alternating paths with clique endpoints.

    Uncovered clique vertices are materialized as single-vertex paths so
    later stages see a uniform collection.  ``insertions`` records, per
    inserted independent vertex, (rule, vertex, paths_before, paths_after)
    for the bookkeeping properties of the construction.
    """

    paths: tuple[OrientedPath, ...]
    insertions: tuple[tuple[str, int, int, int], ...] = ()


def build_degree_two_subgraph(g: Graph, p: SplitPartition) -> DegreeTwoSubgraph:
    """Collect degree-2 independent vertices and their neighborhoods."""
    ind = np.asarray(p.independent, dtype=np.int64)
    va = ind[g.degrees()[ind] == 2]
    rows = g.neighbor_rows(va, 2)
    us, lo, hi = va.tolist(), rows[:, 0].tolist(), rows[:, 1].tolist()
    return DegreeTwoSubgraph(tuple(us), tuple(sorted({*lo, *hi})),
                             tuple(sorted([*zip(us, lo), *zip(us, hi)])))


def _find_cycle(adj: dict[int, list[int]], banned: int | None = None) -> list[int] | None:
    """Some cycle of the (simple) graph ``adj`` avoiding ``banned``, or None.

    Union-find over edges in sorted order; the first edge closing a
    component yields the cycle as the forest path plus that edge.
    """
    verts = [v for v in sorted(adj) if v != banned]
    root = {v: v for v in verts}

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    forest: dict[int, list[int]] = {v: [] for v in verts}
    for v in verts:
        for w in adj[v]:
            if w == banned or w <= v:
                continue
            rv, rw = find(v), find(w)
            if rv == rw:
                return _forest_path(forest, v, w)
            root[rv] = rw
            forest[v].append(w)
            forest[w].append(v)
    return None


def _forest_path(forest: dict[int, list[int]], a: int, b: int) -> list[int]:
    """The unique a..b path in a forest (BFS parents)."""
    from collections import deque

    prev = {a: a}
    dq = deque([a])
    while dq:
        x = dq.popleft()
        if x == b:
            break
        for y in forest[x]:
            if y not in prev:
                prev[y] = x
                dq.append(y)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def _canonical_cycle(cycle: list[int], kset: frozenset) -> tuple[int, ...]:
    """Rotate/reflect so the cycle starts at its smallest clique vertex and
    moves toward the smaller of that vertex's two cycle neighbors."""
    anchor = min(v for v in cycle if v in kset)
    i = cycle.index(anchor)
    rot = cycle[i:] + cycle[:i]
    if rot[1] > rot[-1]:
        rot = [rot[0]] + rot[1:][::-1]
    return tuple(rot)


def find_short_cycle(g: Graph, p: SplitPartition, *,
                     h: DegreeTwoSubgraph | None = None) -> ShortCycleWitness | None:
    """A cycle of H missing a clique vertex, or None.

    When every vb vertex has H-degree <= 2 the components of H are paths
    and cycles and the scan is linear; otherwise (clique vertices seeing
    up to three degree-2 vertices) each clique vertex is tried as the
    excluded one.  ``h`` is H when the caller has built it already.
    """
    if h is None:
        h = build_degree_two_subgraph(g, p)
    if not h.va:
        return None
    adj = h.adjacency
    kset = p.clique_set
    k_all = set(p.clique)
    off_h = sorted(k_all - set(h.vb))
    if all(len(adj[v]) <= 2 for v in h.vb):
        cycles = _degree_two_cycles(adj)
        if not cycles:
            return None
        if off_h:
            return ShortCycleWitness(_canonical_cycle(cycles[0], kset), off_h[0])
        if len(cycles) >= 2:
            other_k = min(v for v in cycles[1] if v in kset)
            return ShortCycleWitness(_canonical_cycle(cycles[0], kset), other_k)
        on_cycle = set(cycles[0])
        missing = sorted(k_all - on_cycle)
        if missing:
            return ShortCycleWitness(_canonical_cycle(cycles[0], kset), missing[0])
        return None
    # General case: a short cycle exists iff H - w has a cycle for some
    # clique vertex w (w excluded), or H has a cycle while some clique
    # vertex is not even in H.
    if off_h:
        cyc = _find_cycle(adj)
        if cyc is not None:
            return ShortCycleWitness(_canonical_cycle(cyc, kset), off_h[0])
        return None
    for w in sorted(h.vb):
        cyc = _find_cycle(adj, banned=w)
        if cyc is not None:
            return ShortCycleWitness(_canonical_cycle(cyc, kset), w)
    return None


def _degree_two_cycles(adj: dict[int, list[int]]) -> list[list[int]]:
    """Cycle components of a max-degree-2 graph, smallest start first.

    Path components are flooded from their endpoints first, so every
    vertex is visited once and the scan stays linear.
    """
    seen: set[int] = set()
    for s in sorted(adj):
        if s in seen or len(adj[s]) > 1:
            continue
        seen.add(s)
        prev, cur = s, (adj[s][0] if adj[s] else None)
        while cur is not None and cur not in seen:
            seen.add(cur)
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, (nxt[0] if nxt else None)
    cycles: list[list[int]] = []
    for s in sorted(adj):
        if s in seen:
            continue
        walk = [s]
        seen.add(s)
        prev, cur = s, adj[s][0]
        while cur != s:
            walk.append(cur)
            seen.add(cur)
            nxt = [w for w in adj[cur] if w != prev]
            prev, cur = cur, nxt[0]
        cycles.append(walk)
    return cycles


def _initial_paths(h: DegreeTwoSubgraph) -> list[list[int]]:
    """Path components of H (H must be acyclic here)."""
    adj = h.adjacency
    seen: set[int] = set()
    paths: list[list[int]] = []
    endpoints = sorted(v for v in adj if len(adj[v]) == 1)
    for s in endpoints:
        if s in seen:
            continue
        walk = [s]
        seen.add(s)
        prev, cur = s, adj[s][0]
        while True:
            walk.append(cur)
            seen.add(cur)
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        paths.append(walk)
    if len(seen) != len(adj):
        raise PremiseViolated("cycle in degree-two subgraph during path assembly")
    return paths


def assemble_paths(g: Graph, p: SplitPartition, *,
                   h: DegreeTwoSubgraph | None = None) -> PathSystem:
    """Run the insertion procedure; requires delta_i <= 2 and no cycle in H.

    Every independent vertex ends up on exactly one alternating path with
    clique endpoints; clique vertices left over become singleton paths.
    Raises ``PremiseViolated`` if an insertion step has no legal position
    (not anticipated by the structure theory - callers route such
    instances to the exact solver and log them).

    The vertices still to insert sit in one min-heap per class (the number
    of distinct paths whose endpoints they see, capped at 2), so the next
    one is the smallest vertex of the highest class.  A vertex's class
    depends only on the endpoint status and path of its clique neighbors,
    and an insertion changes those at no more than four clique vertices;
    only the vertices that see one of them are reclassified.  ``h`` is H
    when the caller has built it already.
    """
    if p.delta_i > 2:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 2 in path assembly")
    if h is None:
        h = build_degree_two_subgraph(g, p)
    paths: dict[int, list[int]] = {}
    endpoint_of: dict[int, int] = {}
    on_path: set[int] = set()
    for pid, walk in enumerate(_initial_paths(h)):
        paths[pid] = walk
        endpoint_of[walk[0]] = pid
        endpoint_of[walk[-1]] = pid
        on_path.update(walk)
    next_pid = len(paths)
    nbrs = {u: g.neighbors(u).tolist() for u in sorted(set(p.independent) - set(h.va))}
    watchers: dict[int, list[int]] = {}
    for u, row in nbrs.items():
        for w in row:
            watchers.setdefault(w, []).append(u)
    events: list[tuple[str, int, int, int]] = []

    def classify(u: int) -> int:
        seen = None
        for w in nbrs[u]:
            pid = endpoint_of.get(w)
            if pid is not None and pid != seen:
                if seen is not None:
                    return 2
                seen = pid
        return 0 if seen is None else 1

    cls = {u: classify(u) for u in nbrs}
    # Lazy deletion: a heap entry is live while its vertex is still to be
    # inserted and still in that class.  Ascending lists are valid heaps.
    heaps: tuple[list[int], ...] = ([], [], [])
    for u, c in cls.items():
        heaps[c].append(u)

    while cls:
        for c in (2, 1, 0):
            heap = heaps[c]
            while heap and cls.get(heap[0]) != c:
                heappop(heap)
            if heap:
                break
        u = heappop(heap)
        del cls[u]
        eps = [w for w in nbrs[u] if w in endpoint_of]
        before = len(paths)
        if c == 2:
            e1 = min(eps)
            pid1 = endpoint_of[e1]
            e2 = min(e for e in eps if endpoint_of[e] != pid1)
            pid2 = endpoint_of[e2]
            p1, p2 = paths[pid1], paths.pop(pid2)
            if p1[-1] != e1:
                p1.reverse()
            if p2[0] != e2:
                p2.reverse()
            del endpoint_of[e1]
            del endpoint_of[e2]
            p1.append(u)
            p1.extend(p2)
            endpoint_of[p1[-1]] = pid1
            changed = (e1, e2, p1[-1])
            rule = "V2"
        elif c == 1:
            e = min(eps)
            pid = endpoint_of[e]
            off = [w for w in nbrs[u] if w not in on_path]
            if not off:
                raise PremiseViolated(f"no off-path clique neighbor for vertex {u}")
            w = off[0]
            pp = paths[pid]
            if pp[-1] != e:
                pp.reverse()
            del endpoint_of[e]
            pp.extend([u, w])
            endpoint_of[w] = pid
            on_path.add(w)
            changed = (e, w)
            rule = "V1"
        else:
            off = [w for w in nbrs[u] if w not in on_path]
            if len(off) < 2:
                raise PremiseViolated(f"fewer than two off-path neighbors for vertex {u}")
            w1, w2 = off[0], off[1]
            paths[next_pid] = [w1, u, w2]
            endpoint_of[w1] = next_pid
            endpoint_of[w2] = next_pid
            on_path.update((w1, w2))
            next_pid += 1
            changed = (w1, w2)
            rule = "V0"
        on_path.add(u)
        events.append((rule, u, before, len(paths)))
        for w in changed:
            for x in watchers.get(w, ()):
                if x in cls:
                    new = classify(x)
                    if new != cls[x]:
                        cls[x] = new
                        heappush(heaps[new], x)

    out = [list(w) for w in paths.values()]
    for w in sorted(set(p.clique) - on_path):
        out.append([w])
    oriented = []
    for w in out:
        if w[0] > w[-1]:
            w.reverse()
        oriented.append(OrientedPath(tuple(w)))
    oriented.sort(key=lambda q: (-len(q), q.head))
    return PathSystem(tuple(oriented), tuple(events))


def hc_delta2(g: Graph, p: SplitPartition) -> HamCycle | ShortCycleWitness:
    """Solve the delta_i <= 2 case: a short cycle, or a constructed cycle.

    Premise (enforced by the dispatcher): split, 2-connected, delta_i <= 2,
    hence K_{1,4}-free (an induced K_{1,4} needs three independent arms).
    With delta_i <= 2 and minimum degree 2, |I| <= |K| always holds; when
    |I| = |K| the degree-two subgraph is itself the spanning cycle.
    """
    if p.delta_i > 2:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 2")
    h = build_degree_two_subgraph(g, p)
    witness = find_short_cycle(g, p, h=h)
    if witness is not None:
        return witness
    if len(p.independent) > len(p.clique):
        raise PremiseViolated("independent side larger than clique side")
    if len(p.independent) == len(p.clique):
        cycles = _degree_two_cycles(h.adjacency)
        if len(cycles) != 1 or len(cycles[0]) != g.n:
            raise PremiseViolated("expected a single spanning cycle in H")
        order = _canonical_cycle(cycles[0], p.clique_set)
    else:
        # Concatenate the path system along clique edges.
        order = tuple(chain.from_iterable(q.order for q in assemble_paths(g, p, h=h).paths))
    cycle = HamCycle(order)
    if not validate_ham_cycle(g, cycle):
        raise InvalidCertificate("constructed order is not a Hamiltonian cycle")
    return cycle
