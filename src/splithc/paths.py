"""Path machinery for split graphs whose clique vertices see at most two
independent vertices each.

The bipartite subgraph H collects the degree-2 independent vertices and
their clique neighbors.  Any cycle of H is chordless (its independent
vertices have no edges off the cycle), and a cycle that misses at least
one clique vertex certifies non-Hamiltonicity: deleting S = cycle & K
isolates the cycle's independent vertices, leaving more than |S|
components.  With delta_i <= 2 every vertex of H has H-degree at most 2,
and on the delta_i = 3 route the premise |K| >= 8 implies it (see
``delta3``), so H is a disjoint union of paths and cycles, and one walk
(``DegreeTwoSubgraph.components``) lists both: the cycles feed the
short-cycle test, the paths seed the path system.  The walk refuses an H
of higher degree with ``PremiseViolated``.  When no short cycle exists,
H is a forest of odd paths with clique endpoints, and the remaining
independent vertices are inserted by a priority rule - join two paths
where possible, extend one otherwise, start a fresh 3-path as a last
resort.  The vertices wait in one heap keyed by (-rule class,
vertex).  An insertion changes the endpoint status or path of at most
four clique vertices, each seen by at most two independent vertices, and
only those independent vertices are reclassified: at most eight per
insertion instead of every vertex left.  Fresh 3-paths go in by runs:
once only vertices of class 0 wait, the smallest is popped, and it and
the following waiting vertices go in one after another in id order,
each on its first two off-path clique neighbours, with no heap pop or
reclassification between them, until a pair is watched by a vertex
after the one inserted on it (see ``assemble_paths`` for why this is
what the heap would do).  The assembled paths join into a Hamiltonian
cycle along clique edges.

Cost: Python steps scale with |I| + |H|, and the clique side is handled
by array operations.  H is stored as arrays, not as a dict of neighbour
lists: the degree-2 independent vertices with their two clique ends come
from one gather (``Graph.neighbor_rows``), and the walk reads one flat
list indexed by vertex id, each H vertex's XOR of its two H-neighbours,
built by a ``bincount`` and one unbuffered XOR scatter.  A step of the
walk is one list read and one XOR, with no dict or set.  The rows of the
other independent vertices are sliced through memoryviews
(``Graph.neighbor_lists``); the insertion loop keeps its per-vertex state
in flat arrays indexed by vertex id (``endpoint_of``, a list with -1 for
no path, and ``off_path``, a bytearray read off H's degrees).  Set-up
classifies only the vertices that see an end of H's walks, the others
start at class 0, and the runs read the ascending ``rest`` through one
forward cursor, so a run costs O(1) per vertex it inserts, not a heap
pop and a reclassification.  Every assembled path has at least 3
vertices, so the clique vertices left over, read off ``off_path`` with
one ``nonzero``, go last as singletons in id order, unsorted; the paths
themselves are ordered by two C-level sorts.

All arbitrary choices resolve to the smallest vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain

import numpy as np

from .errors import InvalidCertificate, PremiseViolated
from .graph import Graph, HamCycle, validate_ham_cycle
from .split import SplitPartition, _rotated

__all__ = [
    "DegreeTwoSubgraph",
    "ShortCycleWitness",
    "PathSystem",
    "build_degree_two_subgraph",
    "find_short_cycle",
    "assemble_paths",
    "hc_delta2",
]


@dataclass(frozen=True, eq=False)
class DegreeTwoSubgraph:
    """H on the vertex ids 0..n-1: the degree-2 independent vertices
    ``va``, ascending, and in row i of ``ends`` the two clique neighbours
    of ``va[i]``; ``rest`` holds the other independent vertices, ascending,
    which H leaves out and the path assembly inserts.  ``clique_degree``
    is the H-degree of every vertex, by vertex id: 0 off H, and 0 at the
    independent vertices too, counted once per instance.  Its readers must
    not mutate the arrays; ``components`` walks H once per instance."""

    n: int
    va: np.ndarray
    ends: np.ndarray
    rest: np.ndarray
    clique_degree: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clique_degree", np.bincount(self.ends.ravel(), minlength=self.n))

    def missed(self, clique: np.ndarray) -> list[int]:
        """The vertices of the id array ``clique`` off H, in its order."""
        return clique[self.clique_degree[clique] == 0].tolist()

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(paths, cycles) of H; raises ``PremiseViolated`` unless H has
        maximum degree 2.

        Paths are walked from their smaller end and ordered by it; cycles
        are walked from their smallest vertex toward its smaller neighbour,
        and ordered by that vertex.  Every vertex of H keeps the XOR of its
        two H-neighbours, a missing one read as -1, so a step of the walk
        is one lookup and one XOR with the vertex it came from, and -1
        marks the end of a path.  A cycle is walked from its first
        independent vertex in ``va`` order, then put in the normal form
        (``split._rotated``).
        """
        va, flat = self.va, self.ends.ravel()
        # An empty H, common on small claw-free graphs, has no components;
        # returning here skips about nine numpy calls of fixed cost.
        if not va.shape[0]:
            return (), ()
        deg = self.clique_degree
        # Path ends are the clique vertices of H-degree 1.  The degrees sum
        # to 2 |va|, which is twice the clique vertices on H less the ends
        # exactly when no degree is above 2.
        starts = (deg == 1).nonzero()[0].tolist()
        if 2 * np.count_nonzero(deg) - len(starts) != 2 * va.shape[0]:
            w = int(np.argmax(deg > 2))
            raise PremiseViolated(f"clique vertex {w} has H-degree {deg[w]} > 2")
        # Degree minus 2 is -1 at a path end and 0 at an inner clique
        # vertex, so XOR-ing in the neighbours leaves the sentinel at ends.
        x = deg - 2
        np.bitwise_xor.at(x, flat, va.repeat(2))
        x[va] = flat[0::2] ^ flat[1::2]
        nxt = x.tolist()
        # Each path is walked from its smaller end, and its far end is
        # marked done; then the independent vertices walked are.
        done = bytearray(self.n)
        paths: list[tuple[int, ...]] = []
        for s in starts:
            if done[s]:
                continue
            walk = [s]
            prev, cur = s, ~nxt[s]
            while cur >= 0:
                walk.append(cur)
                prev, cur = cur, nxt[cur] ^ prev
            done[prev] = 1
            paths.append(tuple(walk))
        # A path of L vertices holds (L - 1) / 2 independent ones; H has
        # cycles exactly when the paths miss some of ``va``.
        if (sum(map(len, paths)) - len(paths)) // 2 == va.shape[0]:
            return tuple(paths), ()
        for walk in paths:
            for u in walk[1::2]:
                done[u] = 1
        cycles: list[tuple[int, ...]] = []
        for u, a in zip(va.tolist(), flat[0::2].tolist()):
            if done[u]:
                continue
            walk = [u]
            prev, cur = u, a
            while cur != u:
                walk.append(cur)
                prev, cur = cur, nxt[cur] ^ prev
            for v in walk[::2]:
                done[v] = 1
            cycles.append(_rotated(walk, walk.index(min(walk))))
        # Each cycle starts at its smallest vertex, and no two share one.
        cycles.sort()
        return tuple(paths), tuple(cycles)


@dataclass(frozen=True)
class ShortCycleWitness:
    """An induced cycle of H missing at least one clique vertex.

    ``cycle`` alternates clique/independent starting at the smallest
    clique vertex on it; ``excluded`` is a clique vertex not on the cycle.
    """

    cycle: tuple[int, ...]
    excluded: int

    def render(self) -> str:
        return "short-cycle " + ",".join(map(str, self.cycle)) + f" excluded={self.excluded}"


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint alternating paths with clique endpoints.

    Each path is a vertex tuple read from its smaller end; the paths go
    longest first, then by first vertex.  Uncovered clique vertices are
    materialized as single-vertex paths so later stages see a uniform
    collection.  ``insertions`` records, per inserted independent vertex,
    (rule, vertex, paths_before, paths_after) for the bookkeeping
    properties of the construction.
    """

    paths: tuple[tuple[int, ...], ...]
    insertions: tuple[tuple[str, int, int, int], ...] = ()


def build_degree_two_subgraph(g: Graph, p: SplitPartition) -> DegreeTwoSubgraph:
    """Collect the degree-2 independent vertices and their two clique
    neighbours, one gather for all of them, and keep the other
    independent vertices as ``rest``."""
    ind = p.independent
    two = g.degrees()[ind] == 2
    va = ind[two]
    return DegreeTwoSubgraph(g.n, va, g.neighbor_rows(va, 2), ind[~two])


def _canonical_cycle(cycle: tuple[int, ...], in_clique: bytes) -> tuple[int, ...]:
    """The normal form of ``cycle`` (``split._rotated``) anchored at its
    smallest clique vertex (by ``in_clique``)."""
    return _rotated(cycle, cycle.index(min(v for v in cycle if in_clique[v])))


def find_short_cycle(g: Graph, p: SplitPartition, *,
                     h: DegreeTwoSubgraph | None = None) -> ShortCycleWitness | None:
    """A cycle of H missing a clique vertex, or None.

    The cycles are the cycle components of H's one walk, so H must have
    maximum degree 2 (``components`` raises ``PremiseViolated``
    otherwise).  ``h`` is H when the caller has built it already.
    """
    if h is None:
        h = build_degree_two_subgraph(g, p)
    _, cycles = h.components
    if not cycles:
        return None
    in_clique = p.in_clique
    # Excluded: a clique vertex off H, else one on a second cycle, else
    # one off the only cycle.
    excluded = next(iter(h.missed(p.clique)), None)
    if excluded is None and len(cycles) > 1:
        excluded = min(v for v in cycles[1] if in_clique[v])
    if excluded is None:
        on_cycle = set(cycles[0])
        excluded = next((w for w in p.clique.tolist() if w not in on_cycle), None)
        if excluded is None:
            return None
    return ShortCycleWitness(_canonical_cycle(cycles[0], in_clique), excluded)


def assemble_paths(g: Graph, p: SplitPartition, *,
                   h: DegreeTwoSubgraph | None = None) -> PathSystem:
    """Run the insertion procedure; requires delta_i <= 2 and no cycle in H.

    Every independent vertex ends up on exactly one alternating path with
    clique endpoints; clique vertices left over become singleton paths.
    Raises ``PremiseViolated`` if an insertion step has no legal position
    (not anticipated by the structure theory - callers route such
    instances to the exact solver and log them).

    The vertices still to insert (waiting) sit in one min-heap of
    (-class, vertex), a class being the number of distinct paths whose
    endpoints the vertex sees, capped at 2, so the next one is the
    smallest vertex of the highest class.  A vertex's class depends only
    on the endpoint status and path of its clique neighbors, and an
    insertion changes those at no more than four clique vertices; only the
    vertices that watch (see) one of them are reclassified.

    At set-up the only paths are H's walks, so only a watcher of a walk
    end can have a class above 0; the others start at 0 unread.

    A pop of class 0 starts a run.  It inserts the popped vertex u by rule
    V0 on its pair, its first two off-path neighbours as they are then,
    and goes on to the next waiting vertex in id order, with no heap pop,
    class lookup or reclassification in between, for as long as no later
    vertex watches the pair just used (``watchers[w][-1] == u`` for both
    ends); at the first pair that fails the test, the pair's watchers are
    reclassified, as after V1 and V2, and the heap takes over again.  The
    output is what the heap gives:

    - every waiting vertex has a live heap entry at its class, so a live
      class-0 pop means that all of them have class 0, and the popped
      one is the smallest;
    - a V0 insertion changes endpoint and off-path state only at u and
      its pair; watcher lists ascend and every vertex below u is already
      inserted, so when no later vertex watches the pair, no waiting
      vertex changes class or off-path neighbours, and the heap's next
      live pop would be the next waiting vertex in id order;
    - the pair is read when its vertex goes in, so it is never stale, and
      a vertex with fewer than two off-path neighbours raises
      ``PremiseViolated`` where the heap order would.

    Cost stays O(|I| + |E(K, I)|): set-up reads only the rows of a walk
    end's watchers, each V0 reads its row once, when it is inserted, and
    the runs read the ascending ``rest`` through one cursor at or below
    the smallest waiting vertex, which only grows, so the cursor never
    moves back and each vertex is scanned O(1) times over the whole
    assembly.  ``h`` is H as ``build_degree_two_subgraph`` made it, when
    the caller has built it already.
    """
    if p.delta_i > 2:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 2 in path assembly")
    if h is None:
        h = build_degree_two_subgraph(g, p)
    walks, cycles = h.components
    if cycles:
        raise PremiseViolated("cycle in degree-two subgraph during path assembly")
    # Per vertex id: the path a vertex ends, -1 for none, and 1 while it
    # lies on no path.  A path stays the walk's tuple until an insertion
    # grows it (``grow``), so a long walk that no insertion touches is
    # never copied.
    paths: dict[int, tuple[int, ...] | list[int]] = dict(enumerate(walks))
    endpoint_of = [-1] * g.n
    for pid, walk in enumerate(walks):
        endpoint_of[walk[0]] = endpoint_of[walk[-1]] = pid
    # H has no cycle, so the walks hold every vertex of H.
    off = h.clique_degree == 0
    off[h.va] = False
    off_path = bytearray(off)
    next_pid = len(paths)
    rest = h.rest.tolist()
    nbrs = dict(zip(rest, g.neighbor_lists(rest)))
    # ``rest`` ascends, so every watcher list does, and its last entry is
    # the latest vertex that watches.
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

    def grow(pid: int, end: int) -> list[int]:
        """Path ``pid`` as a list that ends at its endpoint ``end``."""
        q = paths[pid]
        if type(q) is tuple:
            q = paths[pid] = list(q)
        if q[-1] != end:
            q.reverse()
        return q

    # At set-up the only paths are H's walks, so only a watcher of a walk
    # end can have a class above 0.
    cls = dict.fromkeys(rest, 0)
    for walk in walks:
        for w in (walk[0], walk[-1]):
            for x in watchers.get(w, ()):
                cls[x] = classify(x)
    # Lazy deletion: a heap entry is live while its vertex is still to be
    # inserted and still in that class.
    heap = [(-c, u) for u, c in cls.items()]
    heapify(heap)
    # rest[at] is never above the smallest waiting vertex.
    at = 0

    while cls:
        neg_c, u = heappop(heap)
        c = -neg_c
        if cls.get(u) != c:
            continue
        del cls[u]
        before = len(paths)
        # Rows ascend, so the first hit of a plain loop is the smallest; a
        # comprehension or a generator is a function call on Python 3.11.
        row = nbrs[u]
        if c == 2:
            # The smallest end that u sees, and the smallest end of another
            # path.
            for e1 in row:
                pid1 = endpoint_of[e1]
                if pid1 >= 0:
                    break
            for e2 in row:
                pid2 = endpoint_of[e2]
                if pid2 >= 0 and pid2 != pid1:
                    break
            p1, p2 = grow(pid1, e1), paths.pop(pid2)
            endpoint_of[e1] = endpoint_of[e2] = -1
            p1.append(u)
            p1.extend(p2 if p2[0] == e2 else reversed(p2))
            endpoint_of[p1[-1]] = pid1
            changed = (e1, e2, p1[-1])
            rule = "V2"
        elif c == 1:
            for e in row:
                pid = endpoint_of[e]
                if pid >= 0:
                    break
            for w in row:
                if off_path[w]:
                    break
            else:
                raise PremiseViolated(f"no off-path clique neighbor for vertex {u}")
            pp = grow(pid, e)
            endpoint_of[e] = -1
            pp.extend([u, w])
            endpoint_of[w] = pid
            off_path[w] = 0
            changed = (e, w)
            rule = "V1"
        else:
            while rest[at] != u:
                at += 1
            # The run: u is the smallest waiting vertex, and all have class
            # 0.  While no waiting vertex watches the pair just used, no class
            # changes and the next one in id order goes in; otherwise the
            # pair's watchers are reclassified below, as after V1 and V2.
            while True:
                # u's pair, its first two off-path neighbours.
                w1 = w2 = -1
                for w in nbrs[u]:
                    if off_path[w]:
                        if w1 >= 0:
                            w2 = w
                            break
                        w1 = w
                if w2 < 0:
                    raise PremiseViolated(f"fewer than two off-path neighbors for vertex {u}")
                paths[next_pid] = [w1, u, w2]
                endpoint_of[w1] = endpoint_of[w2] = next_pid
                off_path[w1] = off_path[w2] = 0
                next_pid += 1
                changed = () if watchers[w1][-1] == u == watchers[w2][-1] else (w1, w2)
                if changed or not cls:
                    break
                at += 1
                while rest[at] not in cls:
                    at += 1
                off_path[u] = 0
                events.append(("V0", u, before, before + 1))
                before += 1
                u = rest[at]
                del cls[u]
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
    # Disjoint paths compare by first vertex; the second sort is stable.
    out.sort()
    out.sort(key=len, reverse=True)
    # Every path has at least 3 vertices and holds every independent
    # vertex, so the vertices off the paths are the clique vertices left
    # over, which go last as singletons in id order.
    out += zip(np.frombuffer(off_path, dtype=np.bool_).nonzero()[0].tolist())
    return PathSystem(tuple(out), tuple(events))


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
        _, cycles = h.components
        if len(cycles) != 1 or len(cycles[0]) != g.n:
            raise PremiseViolated("expected a single spanning cycle in H")
        order = _canonical_cycle(cycles[0], p.in_clique)
    else:
        # Concatenate the path system along clique edges.
        order = tuple(chain.from_iterable(assemble_paths(g, p, h=h).paths))
    cycle = HamCycle(order)
    if not validate_ham_cycle(g, cycle):
        raise InvalidCertificate("constructed order is not a Hamiltonian cycle")
    return cycle
