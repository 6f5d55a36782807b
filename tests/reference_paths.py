"""Super-linear and dict-based references for split recognition and
path assembly.

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

``DictDegreeTwoSubgraph`` is H as the package kept it before it stored H
as arrays: a dict of neighbour lists per vertex, walked with a set of
seen vertices.  ``dict_build_degree_two_subgraph``,
``dict_find_short_cycle``, ``dict_assemble_paths`` and ``dict_hc_delta2``
are the package's solve of the delta_i <= 2 case on that H, kept
unchanged as the reference the array form must match output for output,
errors included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, combinations

import numpy as np

from splithc.errors import InvalidCertificate, PremiseViolated
from splithc.graph import Graph, HamCycle, graph_from_edges, validate_ham_cycle
from splithc.paths import PathSystem, ShortCycleWitness, _canonical_cycle
from splithc.split import NotSplit, SplitPartition, _partition_from


def edge_count_recognize_split(g: Graph) -> SplitPartition | NotSplit:
    # Count through the CSR arrays of the explicit twin: a graph with an
    # implicit clique block stores no pair inside it.
    g = graph_from_edges(g.n, list(g.edges()))
    n = g.n
    if n == 0:
        return _partition_from(g, [])
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
    return _partition_from(g, sorted(kset))


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


def walk_initial_paths(h: DictDegreeTwoSubgraph) -> list[list[int]]:
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
    h = dict_build_degree_two_subgraph(g, p)
    paths: dict[int, list[int]] = {}
    endpoint_of: dict[int, int] = {}
    on_path: set[int] = set()
    for pid, walk in enumerate(walk_initial_paths(h)):
        paths[pid] = walk
        endpoint_of[walk[0]] = pid
        endpoint_of[walk[-1]] = pid
        on_path.update(walk)
    next_pid = len(paths)
    remaining = sorted(set(p.independent.tolist()) - set(h.va))
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
    out += [(w,) for w in sorted(set(p.clique.tolist()) - on_path)]
    out.sort(key=lambda q: (-len(q), q[0]))
    return PathSystem(tuple(out), tuple(events))


@dataclass(frozen=True)
class DictDegreeTwoSubgraph:
    """H: degree-2 independent vertices (va) against their clique
    neighbors (vb).  ``adjacency`` holds all va-vb edges of the host graph,
    each vertex's list ascending, and is shared by its readers, which must
    not mutate it; ``components`` walks it once per H."""

    va: tuple[int, ...]
    vb: tuple[int, ...]
    adjacency: dict[int, list[int]]

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(paths, cycles) of H; raises ``PremiseViolated`` unless H has
        maximum degree 2.

        Paths are walked from their smaller end and ordered by it; cycles
        are walked from their smallest vertex toward its smaller neighbour,
        and ordered by that vertex.  The paths are flooded from their ends
        first, so every vertex is visited once.
        """
        adj = self.adjacency
        if max(map(len, adj.values()), default=0) > 2:
            w = min(v for v in adj if len(adj[v]) > 2)
            raise PremiseViolated(f"clique vertex {w} has H-degree {len(adj[w])} > 2")
        order = sorted(adj)
        seen: set[int] = set()
        paths: list[tuple[int, ...]] = []
        cycles: list[tuple[int, ...]] = []
        for s in chain((v for v in order if len(adj[v]) == 1), order):
            if s in seen:
                continue
            walk = [s]
            seen.add(s)
            prev, cur = s, adj[s][0]
            while cur not in seen:
                walk.append(cur)
                seen.add(cur)
                nxt = adj[cur]
                if len(nxt) == 1:
                    break
                prev, cur = cur, (nxt[1] if nxt[0] == prev else nxt[0])
            (paths if len(adj[s]) == 1 else cycles).append(tuple(walk))
        return tuple(paths), tuple(cycles)


def dict_build_degree_two_subgraph(g: Graph, p: SplitPartition) -> DictDegreeTwoSubgraph:
    """Collect degree-2 independent vertices and their neighborhoods.

    ``va`` ascends, so appending each one to its two clique neighbors'
    lists leaves every list sorted."""
    ind = np.asarray(p.independent, dtype=np.int64)
    va = ind[g.degrees()[ind] == 2]
    rows = g.neighbor_rows(va, 2)
    us, lo, hi = va.tolist(), rows[:, 0].tolist(), rows[:, 1].tolist()
    vb = sorted({*lo, *hi})
    adj = {u: [a, b] for u, a, b in zip(us, lo, hi)} | {w: [] for w in vb}
    for u, a, b in zip(us, lo, hi):
        adj[a].append(u)
        adj[b].append(u)
    return DictDegreeTwoSubgraph(tuple(us), tuple(vb), adj)


def dict_find_short_cycle(g: Graph, p: SplitPartition, *,
                     h: DictDegreeTwoSubgraph | None = None) -> ShortCycleWitness | None:
    """A cycle of H missing a clique vertex, or None.

    The cycles are the cycle components of H's one walk, so H must have
    maximum degree 2 (``components`` raises ``PremiseViolated``
    otherwise).  ``h`` is H when the caller has built it already.
    """
    if h is None:
        h = dict_build_degree_two_subgraph(g, p)
    _, cycles = h.components
    if not cycles:
        return None
    clique = p.clique.tolist()
    kset = set(clique)
    # Excluded: a clique vertex off H, else one on a second cycle, else
    # one off the only cycle.
    excluded = next((w for w in clique if w not in h.adjacency), None)
    if excluded is None and len(cycles) > 1:
        excluded = min(v for v in cycles[1] if v in kset)
    if excluded is None:
        on_cycle = set(cycles[0])
        excluded = next((w for w in clique if w not in on_cycle), None)
        if excluded is None:
            return None
    return ShortCycleWitness(_canonical_cycle(cycles[0], p.in_clique), excluded)


def dict_assemble_paths(g: Graph, p: SplitPartition, *,
                   h: DictDegreeTwoSubgraph | None = None) -> PathSystem:
    """Run the insertion procedure; requires delta_i <= 2 and no cycle in H.

    Every independent vertex ends up on exactly one alternating path with
    clique endpoints; clique vertices left over become singleton paths.
    Raises ``PremiseViolated`` if an insertion step has no legal position
    (not anticipated by the structure theory - callers route such
    instances to the exact solver and log them).

    The vertices still to insert sit in one min-heap of (-class, vertex),
    a class being the number of distinct paths whose endpoints the vertex
    sees, capped at 2, so the next one is the smallest vertex of the
    highest class.  A vertex's class depends only on the endpoint status
    and path of its clique neighbors, and an insertion changes those at no
    more than four clique vertices; only the vertices that see one of them
    are reclassified.  ``h`` is H when the caller has built it already.
    """
    if p.delta_i > 2:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 2 in path assembly")
    if h is None:
        h = dict_build_degree_two_subgraph(g, p)
    walks, cycles = h.components
    if cycles:
        raise PremiseViolated("cycle in degree-two subgraph during path assembly")
    # Per vertex id: the path a vertex ends, -1 for none, and 1 while it
    # lies on no path.
    paths: dict[int, list[int]] = {}
    endpoint_of = [-1] * g.n
    off_path = bytearray(b"\1") * g.n
    for pid, walk in enumerate(walks):
        paths[pid] = list(walk)
        endpoint_of[walk[0]] = endpoint_of[walk[-1]] = pid
        for v in walk:
            off_path[v] = 0
    next_pid = len(paths)
    rest = sorted(set(p.independent.tolist()).difference(h.va))
    nbrs = dict(zip(rest, g.neighbor_lists(rest)))
    watchers: dict[int, list[int]] = {}
    for u, row in nbrs.items():
        for w in row:
            watchers.setdefault(w, []).append(u)
    events: list[tuple[str, int, int, int]] = []

    def classify(u: int) -> int:
        seen = -1
        for w in nbrs[u]:
            pid = endpoint_of[w]
            if pid >= 0 and pid != seen:
                if seen >= 0:
                    return 2
                seen = pid
        return 0 if seen < 0 else 1

    cls = {u: classify(u) for u in nbrs}
    # Lazy deletion: a heap entry is live while its vertex is still to be
    # inserted and still in that class.
    heap = [(-c, u) for u, c in cls.items()]
    heapify(heap)

    while cls:
        neg_c, u = heappop(heap)
        c = -neg_c
        if cls.get(u) != c:
            continue
        del cls[u]
        before = len(paths)
        if c == 2:
            eps = [w for w in nbrs[u] if endpoint_of[w] >= 0]
            e1 = min(eps)
            pid1 = endpoint_of[e1]
            e2 = min(e for e in eps if endpoint_of[e] != pid1)
            pid2 = endpoint_of[e2]
            p1, p2 = paths[pid1], paths.pop(pid2)
            if p1[-1] != e1:
                p1.reverse()
            if p2[0] != e2:
                p2.reverse()
            endpoint_of[e1] = endpoint_of[e2] = -1
            p1.append(u)
            p1.extend(p2)
            endpoint_of[p1[-1]] = pid1
            changed = (e1, e2, p1[-1])
            rule = "V2"
        elif c == 1:
            e = min(w for w in nbrs[u] if endpoint_of[w] >= 0)
            pid = endpoint_of[e]
            off = [w for w in nbrs[u] if off_path[w]]
            if not off:
                raise PremiseViolated(f"no off-path clique neighbor for vertex {u}")
            w = off[0]
            pp = paths[pid]
            if pp[-1] != e:
                pp.reverse()
            endpoint_of[e] = -1
            pp.extend([u, w])
            endpoint_of[w] = pid
            off_path[w] = 0
            changed = (e, w)
            rule = "V1"
        else:
            off = [w for w in nbrs[u] if off_path[w]]
            if len(off) < 2:
                raise PremiseViolated(f"fewer than two off-path neighbors for vertex {u}")
            w1, w2 = off[0], off[1]
            paths[next_pid] = [w1, u, w2]
            endpoint_of[w1] = endpoint_of[w2] = next_pid
            off_path[w1] = off_path[w2] = 0
            next_pid += 1
            changed = (w1, w2)
            rule = "V0"
        off_path[u] = 0
        events.append((rule, u, before, len(paths)))
        for w in changed:
            for x in watchers.get(w, ()):
                if x in cls:
                    new = classify(x)
                    if new != cls[x]:
                        cls[x] = new
                        heappush(heap, (-new, x))

    out = [w[::-1] if w[0] > w[-1] else w for w in map(tuple, paths.values())]
    out.sort(key=lambda q: (-len(q), q[0]))
    # Every path has at least 3 vertices and holds every independent
    # vertex, so the vertices off the paths are the clique vertices left
    # over, which go last as singletons in id order.
    out += zip(np.frombuffer(off_path, dtype=np.bool_).nonzero()[0].tolist())
    return PathSystem(tuple(out), tuple(events))


def dict_hc_delta2(g: Graph, p: SplitPartition) -> HamCycle | ShortCycleWitness:
    """Solve the delta_i <= 2 case: a short cycle, or a constructed cycle.

    Premise (enforced by the dispatcher): split, 2-connected, delta_i <= 2,
    hence K_{1,4}-free (an induced K_{1,4} needs three independent arms).
    With delta_i <= 2 and minimum degree 2, |I| <= |K| always holds; when
    |I| = |K| the degree-two subgraph is itself the spanning cycle.
    """
    if p.delta_i > 2:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 2")
    h = dict_build_degree_two_subgraph(g, p)
    witness = dict_find_short_cycle(g, p, h=h)
    if witness is not None:
        return witness
    if len(p.independent) > len(p.clique):
        raise PremiseViolated("independent side larger than clique side")
    if len(p.independent) == len(p.clique):
        _, cycles = h.components
        if len(cycles) != 1 or len(cycles[0]) != g.n:
            raise PremiseViolated("expected a single spanning cycle in H")
        order = _canonical_cycle(cycles[0], p.in_clique)
    else:
        # Concatenate the path system along clique edges.
        order = tuple(chain.from_iterable(dict_assemble_paths(g, p, h=h).paths))
    cycle = HamCycle(order)
    if not validate_ham_cycle(g, cycle):
        raise InvalidCertificate("constructed order is not a Hamiltonian cycle")
    return cycle
