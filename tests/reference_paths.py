"""Super-linear references for split recognition and path assembly.

``edge_count_recognize_split`` verifies the degree-ordered prefix by
counting edges inside it and inside the rest through the CSR arrays,
which is O(k^2) on a k-clique; on failure it runs
``pairwise_forbidden_subgraph``, a scan over edge pairs for an induced
2K2, then over vertex pairs for a C4, then for a C5, which is O(m^2) on a
near-clique.  ``rescan_assemble_paths`` reclassifies every remaining
independent vertex after each insertion, which is quadratic in the
independent side.  They are what the package ran before the degree-sum
test, the degree-sum witness shrink and the bucket queue replaced them;
only the tests use them, as oracles for identical partitions and path
systems and for the non-split verdict (the two witness searches may pick
different forbidden subgraphs).  ``loop_upgrade`` moves independent
vertices into K by counting each one's neighbours in K until none sees
all of K, and ``walk_initial_paths`` walks the paths of H from their
endpoints; the package picks the mover by degree and walks H once for
its paths and cycles together.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from splithc.errors import PremiseViolated
from splithc.graph import Graph, graph_from_edges
from splithc.paths import DegreeTwoSubgraph, PathSystem, build_degree_two_subgraph
from splithc.split import NotSplit, SplitPartition, _partition_from


def edge_count_recognize_split(g: Graph) -> SplitPartition | NotSplit:
    # Count through the CSR arrays of the explicit twin: a graph with an
    # implicit clique block stores no pair inside it.
    g = graph_from_edges(g.n, list(g.edges()))
    n = g.n
    if n == 0:
        return SplitPartition((), (), {}, 0)
    deg = g.degrees()
    order = np.lexsort((np.arange(n), -deg))
    d_sorted = deg[order]
    ranks = np.arange(1, n + 1)
    feasible = d_sorted >= ranks - 1
    k_size = int(np.max(np.where(feasible)[0])) + 1 if feasible.any() else 0
    prefix = [int(v) for v in order[:k_size]]
    mask = np.zeros(n, dtype=bool)
    mask[prefix] = True
    internal = int(mask[g.indices].astype(np.int64)[_row_select(g, mask)].sum())
    if internal == k_size * (k_size - 1):
        rest_mask = ~mask
        cross = int(rest_mask[g.indices].astype(np.int64)[_row_select(g, rest_mask)].sum())
        if cross == 0:
            rest = [v for v in range(n) if not mask[v]]
            return loop_upgrade(g, prefix, rest)
    return pairwise_forbidden_subgraph(g)


def loop_upgrade(g: Graph, clique, independent) -> SplitPartition:
    kset = set(int(v) for v in clique)
    iset = sorted(set(int(v) for v in independent))
    deg = g.degrees().tolist()
    while True:
        k_len = len(kset)
        mover = None
        for u in iset:
            if deg[u] >= k_len and sum(1 for w in g.neighbors(u) if int(w) in kset) == k_len:
                mover = u
                break
        if mover is None:
            break
        kset.add(mover)
        iset.remove(mover)
    return _partition_from(g, kset)


def pairwise_forbidden_subgraph(g: Graph) -> NotSplit:
    """Find an induced 2K2, C4 or C5; only invoked on non-split inputs."""
    edges = list(g.edges())
    # 2K2: two edges with no edge between their endpoints.
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) < 4:
                continue
            if not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d)):
                return NotSplit("2K2", (a, b, c, d))
    nbr = [frozenset(g.neighbors(v).tolist()) for v in range(g.n)]
    # C4: nonadjacent u,v with two nonadjacent common neighbors.
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            common = sorted(nbr[u] & nbr[v])
            for a, b in combinations(common, 2):
                if not g.has_edge(a, b):
                    return NotSplit("C4", (u, a, v, b))
    # C5: induced five-cycle.
    for a in range(g.n):
        for b in (x for x in nbr[a] if x > a):
            for c in (x for x in nbr[b] if x > a and x != a and not g.has_edge(x, a)):
                for d in (x for x in nbr[c]
                          if x > a and x not in (b,) and not g.has_edge(x, a) and not g.has_edge(x, b)):
                    for e in (x for x in nbr[d]
                              if x > a and x not in (b, c) and g.has_edge(x, a)
                              and not g.has_edge(x, b) and not g.has_edge(x, c)):
                        return NotSplit("C5", (a, b, c, d, e))
    raise ValueError("graph failed split verification but no witness found")


def _row_select(g: Graph, vertex_mask: np.ndarray) -> np.ndarray:
    sel = np.zeros(g.indices.shape[0], dtype=bool)
    for v in np.flatnonzero(vertex_mask):
        sel[g.indptr[v]:g.indptr[v + 1]] = True
    return sel


def walk_initial_paths(h: DegreeTwoSubgraph) -> list[list[int]]:
    """Path components of H, each walked from its smaller endpoint, in
    the order of those endpoints (H must be acyclic here)."""
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


def rescan_assemble_paths(g: Graph, p: SplitPartition) -> PathSystem:
    if p.delta_i > 2:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 2 in path assembly")
    h = build_degree_two_subgraph(g, p)
    paths: dict[int, list[int]] = {}
    endpoint_of: dict[int, int] = {}
    on_path: set[int] = set()
    for pid, walk in enumerate(walk_initial_paths(h)):
        paths[pid] = walk
        endpoint_of[walk[0]] = pid
        endpoint_of[walk[-1]] = pid
        on_path.update(walk)
    next_pid = len(paths)
    remaining = sorted(set(p.independent) - set(h.va))
    events: list[tuple[str, int, int, int]] = []

    def classify(u: int) -> tuple[int, list[int]]:
        eps = [int(w) for w in g.neighbors(u) if int(w) in endpoint_of]
        return len({endpoint_of[e] for e in eps}), eps

    while remaining:
        cls, u, eps = -1, -1, []
        for cand in remaining:
            npaths, cand_eps = classify(cand)
            c = 2 if npaths >= 2 else npaths
            if c > cls:
                cls, u, eps = c, cand, cand_eps
                if cls == 2:
                    break
        before = len(paths)
        if cls == 2:
            e1 = min(eps)
            pid1 = endpoint_of[e1]
            e2 = min(e for e in eps if endpoint_of[e] != pid1)
            pid2 = endpoint_of[e2]
            p1, p2 = paths[pid1], paths[pid2]
            if p1[-1] != e1:
                p1.reverse()
            if p2[0] != e2:
                p2.reverse()
            del endpoint_of[e1]
            del endpoint_of[e2]
            merged = p1 + [u] + p2
            paths[pid1] = merged
            del paths[pid2]
            endpoint_of[merged[0]] = pid1
            endpoint_of[merged[-1]] = pid1
            rule = "V2"
        elif cls == 1:
            e = min(eps)
            pid = endpoint_of[e]
            off = [int(w) for w in g.neighbors(u) if int(w) not in on_path]
            if not off:
                raise PremiseViolated(f"no off-path clique neighbor for vertex {u}")
            w = off[0]
            pp = paths[pid]
            if pp[-1] != e:
                pp.reverse()
            del endpoint_of[e]
            pp.extend([u, w])
            endpoint_of[pp[0]] = pid
            endpoint_of[w] = pid
            on_path.add(w)
            rule = "V1"
        else:
            off = [int(w) for w in g.neighbors(u) if int(w) not in on_path]
            if len(off) < 2:
                raise PremiseViolated(f"fewer than two off-path neighbors for vertex {u}")
            w1, w2 = off[0], off[1]
            paths[next_pid] = [w1, u, w2]
            endpoint_of[w1] = next_pid
            endpoint_of[w2] = next_pid
            on_path.update((w1, w2))
            next_pid += 1
            rule = "V0"
        on_path.add(u)
        remaining.remove(u)
        events.append((rule, u, before, len(paths)))

    out = [w[::-1] if w[0] > w[-1] else w for w in map(tuple, paths.values())]
    out += [(w,) for w in sorted(set(p.clique) - on_path)]
    out.sort(key=lambda q: (-len(q), q[0]))
    return PathSystem(tuple(out), tuple(events))
