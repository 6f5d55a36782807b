"""Exact Hamiltonian-cycle decision and construction by two searches.

Both are pruned backtracking, independent of the structural solvers.
"No cycle" is reported only after the search space is exhausted, with an
``ExhaustiveSearch`` certificate; running out of budget (``OracleBudget``:
a node cap and a deadline) is a distinct result, never conflated with a
negative answer.  A found cycle is checked by ``validate_ham_cycle``
before it is returned.

Pair search, run when ``oracle_solve`` gets a split partition (K, I).
``solve`` passes one for every instance outside the polynomial premises,
and the delta_i = 3 route (``delta3.construct_cycle``) passes one to
build its cycle.
In a Hamiltonian cycle each independent vertex u sits between two clique
vertices a, b (Burkard and Hammer, "A note on Hamiltonian split graphs",
JCTB 1980).  Read each pair as an edge ab of a multigraph on K: G has a
Hamiltonian cycle iff every u can be given a pair of its clique
neighbours so that these |I| edges form a linear forest, or, when
|I| = |K|, one cycle through all of K.  With each u placed between its
pair as a-u-b, the pairs form a graph of the shape of H in ``paths``, so
they are stored as H is, a ``DegreeTwoSubgraph`` whose ``ends`` are the
pairs, and the cycle is read off by H's walk (its ``components``): the
one cycle when |I| = |K|, otherwise the paths chained with the unused
clique vertices (``DegreeTwoSubgraph.missed``) along clique edges.
``validate_ham_cycle`` checks the read-off like every other oracle
cycle.  The search branches only on I.  One node is one partial
assignment examined.
  * |I| > |K| refutes by pigeonhole, with no node spent;
  * no clique vertex takes a third edge, and an endpoint map rejects an
    edge that would close a cycle (only the last edge may, when
    |I| = |K|);
  * the next vertex assigned is the unassigned one with the fewest free
    clique neighbours (degree < 2), smallest index first; fewer than two
    kills the branch, exactly two forces the choice;
  * when |I| = |K|, every clique vertex must still be able to reach
    degree 2 from the unassigned independent vertices it sees, and a
    pair must contain the vertices that only it can still serve.

Vertex-order search, run without a partition: the reference for any
graph, used by ``split-hc oracle``, by the cross-checks of ``run_batch``
and the benchmark, and by the tests, so it stays an independent check of
the pair search.  It grows a path from vertex 0, depth-first on an
explicit stack, extending to the smallest admissible neighbour first,
and enumerates every Hamiltonian cycle as a vertex order, once per
direction: ``oracle_solve`` decides with the first, and the tests count
them all.  One node is one path examined.
  * an unvisited vertex whose possible cycle-neighbours (unvisited
    neighbours, plus the path ends where adjacent) number < 2 kills the
    branch;
  * the unvisited region must stay reachable from the path's moving end;
  * both tests run once up front, with vertex 0's degree, so that a
    disconnected graph or one with a vertex of degree < 2 is refuted
    before any node is spent;
  * degree-2 vertices force both incident edges, checked once up front
    (three forced edges at a vertex, or a premature forced cycle, refute
    immediately).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .errors import InvalidCertificate
from .graph import Graph, HamCycle, validate_ham_cycle
from .paths import DegreeTwoSubgraph, _canonical_cycle
from .split import SplitPartition

__all__ = ["ExhaustiveSearch", "OracleBudget", "OracleResult", "oracle_solve"]

DEFAULT_NODE_LIMIT = 100_000_000
DEFAULT_TIME_LIMIT = 60.0


@dataclass(frozen=True)
class OracleBudget:
    """Search limits; exhaustion is reported, never silently truncated."""

    nodes: int = DEFAULT_NODE_LIMIT
    seconds: float = DEFAULT_TIME_LIMIT

    def __post_init__(self) -> None:
        # Written so that NaN, which compares False both ways, is refused.
        if not (self.nodes > 0 and self.seconds > 0):
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class ExhaustiveSearch:
    """Certificate that a search ran to completion without finding a cycle."""

    def render(self) -> str:
        return "exhaustive-search"


@dataclass(frozen=True)
class OracleResult:
    """kind is 'cycle', 'no_cycle' or 'exhausted'."""

    kind: str
    cycle: HamCycle | None = None
    nodes: int = 0

    @property
    def has_cycle(self) -> bool:
        return self.kind == "cycle"

    @property
    def decided(self) -> bool:
        return self.kind != "exhausted"

    @property
    def certificate(self) -> ExhaustiveSearch | None:
        """The certificate of a completed search without a cycle, None
        otherwise."""
        return ExhaustiveSearch() if self.kind == "no_cycle" else None


class _Budget:
    __slots__ = ("limit", "deadline", "nodes")

    def __init__(self, budget: OracleBudget):
        self.limit = budget.nodes
        self.deadline = time.monotonic() + budget.seconds
        self.nodes = 0

    def tick(self) -> bool:
        """Count a node; True while within budget."""
        self.nodes += 1
        if self.nodes > self.limit:
            return False
        if self.nodes % 2048 == 0 and time.monotonic() > self.deadline:
            return False
        return True


class _Exhausted(Exception):
    pass


def _forced_edge_refutation(adj: list[list[int]], n: int) -> bool:
    """True when the edges that degree-2 vertices force already rule out a
    Hamiltonian cycle: three at a vertex, or a forced cycle shorter than n."""
    forced: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        if len(adj[v]) == 2:
            for w in adj[v]:
                forced[v].add(w)
                forced[w].add(v)
    for v in range(n):
        if len(forced[v]) > 2:
            return True
    # Walk forced chains: a closed forced walk shorter than n refutes.
    seen = set()
    for v in range(n):
        if v in seen or len(forced[v]) != 2:
            continue
        prev, cur, count = -1, v, 0
        start = v
        while True:
            seen.add(cur)
            count += 1
            nxts = [w for w in forced[cur] if w != prev]
            if len(forced[cur]) < 2 or not nxts:
                break
            prev, cur = cur, nxts[0]
            if cur == start:
                return count < n
            if count > n:
                break
    return False


def _viable(adj: list[list[int]], end: int, visited: int, n: int) -> bool:
    """Every unvisited vertex keeps two possible cycle-neighbours (unvisited
    ones, the moving end, vertex 0) and is reachable from the moving end
    through unvisited vertices."""
    rest = ((1 << n) - 1) & ~visited
    r = rest
    while r:
        b = r & -r
        u = b.bit_length() - 1
        r ^= b
        slots = 0
        for w in adj[u]:
            if not visited >> w & 1 or w == end or w == 0:
                slots += 1
                if slots == 2:
                    break
        if slots < 2:
            return False
    reach = 0
    stack = [end]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            wb = 1 << w
            if rest & wb and not reach & wb:
                reach |= wb
                stack.append(w)
    return reach == rest


def oracle_solve(g: Graph, budget: OracleBudget | None = None,
                 partition: SplitPartition | None = None) -> OracleResult:
    """Decide Hamiltonicity exactly, constructing a cycle when one exists.

    With a split ``partition`` (K a clique, I independent, any such
    partition of ``g``) the pair search runs; without one, the first cycle
    that the vertex-order search enumerates, which needs no structure.
    """
    b = _Budget(budget or OracleBudget())
    try:
        if partition is None:
            order = next(_order_cycles(g, b), None)
        else:
            order = _pair_search(g, partition, b)
    except _Exhausted:
        return OracleResult("exhausted", None, b.nodes)
    if order is None:
        return OracleResult("no_cycle", None, b.nodes)
    cycle = HamCycle(tuple(order))
    if not validate_ham_cycle(g, cycle):
        raise InvalidCertificate(f"oracle cycle {cycle.order} fails validation")
    return OracleResult("cycle", cycle, b.nodes)


def _order_cycles(g: Graph, b: _Budget) -> Iterator[tuple[int, ...]]:
    """Every Hamiltonian cycle as a vertex order from vertex 0, once per
    direction; raises ``_Exhausted`` when the budget runs out."""
    n = g.n
    if n < 3:
        return
    adj = [g.neighbors(v).tolist() for v in range(n)]
    # _viable never looks at vertex 0, so its degree is checked here.  At
    # the root _viable refutes a low degree elsewhere or a disconnected
    # graph before any node is spent.
    if (len(adj[0]) < 2 or not _viable(adj, 0, 1, n)
            or _forced_edge_refutation(adj, n)):
        return
    # Depth-first on an explicit stack, so that depth is not bounded by
    # recursion: frames[d] iterates the neighbours of path[d], and
    # path[d + 1], when present, is the one being explored.
    path = [0]
    visited = 1
    frames: list[Iterator[int]] = []
    while True:
        if not b.tick():
            raise _Exhausted
        end = path[-1]
        if len(path) == n:
            if 0 in adj[end]:
                yield tuple(path)
        elif _viable(adj, end, visited, n):
            frames.append(iter(adj[end]))
        # Step to the next unvisited neighbour of the deepest frame,
        # popping the frames that have none left.
        while frames:
            if len(path) > len(frames):
                visited ^= 1 << path.pop()
            for w in frames[-1]:
                if not visited >> w & 1:
                    path.append(w)
                    visited |= 1 << w
                    break
            else:
                frames.pop()
                continue
            break
        else:
            return


def _pair_search(g: Graph, p: SplitPartition, b: _Budget) -> list[int] | None:
    """Give each independent vertex a pair of clique neighbours so that the
    pairs, read as edges on K, form a linear forest (one cycle through all
    of K when |I| = |K|); return the cycle, or None when none exists."""
    clique, indep = p.clique.tolist(), p.independent.tolist()
    n, n_k, n_i = g.n, len(clique), len(indep)
    if n_i > n_k or n < 3:
        return None
    closing = n_i == n_k
    # Independent vertices go by their index j in p.independent; each one's
    # neighbours all lie in K.
    opts = g.neighbor_lists(indep)
    seers: list[list[int]] = [[] for _ in range(n)]
    for j, o in enumerate(opts):
        for a in o:
            seers[a].append(j)
    # Degree of each clique vertex in the multigraph of chosen pairs.
    vdeg = [0] * n
    # end[a] is the other end of the path ending at a (a itself when bare);
    # stale once a is interior, where the degree cap stops any lookup.
    end = list(range(n))
    # Clique neighbours with vdeg < 2, per independent vertex.
    free = [len(o) for o in opts]
    # Unassigned independent neighbours.  With |I| = |K| every clique
    # vertex needs degree 2, so vdeg[a] + supply[a] >= 2 at every node.
    supply = [len(s) for s in seers]
    pair: list[tuple[int, int] | None] = [None] * n_i
    if closing and any(supply[a] < 2 for a in clique):
        return None

    def pairs(u: int, last: bool) -> Iterator[tuple[int, int]]:
        # Clique vertices that only u's pair can still bring to degree 2
        # (u is already out of supply).
        short = [a for a in opts[u] if closing and vdeg[a] + supply[a] < 2]
        if len(short) > 2:
            return
        cand = [a for a in opts[u] if vdeg[a] < 2]
        for x, a in enumerate(cand):
            for c in cand[x + 1:]:
                # A pair closing a cycle (end[a] == c) is only the last
                # pair's job when |I| = |K|: |K| - 1 acyclic edges then
                # form one path through K, whose ends are the only free
                # clique vertices.
                if (all(s == a or s == c for s in short)
                        and (end[a] != c or (closing and last))):
                    yield a, c

    def place(u: int, a: int, c: int) -> tuple[int, int, bool]:
        """Assign (a, c) to u.  Returns the old ends of a and c, for
        ``unplace``, and False when an unassigned vertex is left with
        fewer than two free clique neighbours."""
        pair[u] = (a, c)
        ea, ec = end[a], end[c]
        end[ea], end[ec] = ec, ea
        alive = True
        for v in (a, c):
            vdeg[v] += 1
            if vdeg[v] == 2:
                for j in seers[v]:
                    free[j] -= 1
                    if free[j] < 2 and pair[j] is None:
                        alive = False
        return ea, ec, alive

    def unplace(u: int, ea: int, ec: int) -> None:
        a, c = pair[u]
        for v in (a, c):
            if vdeg[v] == 2:
                for j in seers[v]:
                    free[j] += 1
            vdeg[v] -= 1
        # place wrote only these two entries.
        end[ea], end[ec] = a, c
        pair[u] = None

    # Depth-first on an explicit stack, so that depth is not bounded by
    # recursion.  A frame is [u, u's remaining pairs, old ends or None].
    frames: list[list] = []
    while True:
        if not b.tick():
            raise _Exhausted
        if len(frames) == n_i:
            return _pair_cycle(p, pair)
        u, fewest = -1, n_k + 1
        for j in range(n_i):
            if pair[j] is None and free[j] < fewest:
                u, fewest = j, free[j]
        if fewest >= 2:
            if closing:
                for a in opts[u]:
                    supply[a] -= 1
            frames.append([u, pairs(u, len(frames) == n_i - 1), None])
        # Advance the deepest frame to its next live pair, popping the
        # frames that have none left.
        while frames:
            top = frames[-1]
            u = top[0]
            if top[2] is not None:
                unplace(u, *top[2])
                top[2] = None
            for a, c in top[1]:
                ea, ec, alive = place(u, a, c)
                if alive:
                    top[2] = (ea, ec)
                    break
                unplace(u, ea, ec)
            if top[2] is not None:
                break
            frames.pop()
            if closing:
                for a in opts[u]:
                    supply[a] += 1
        else:
            return None


def _pair_cycle(p: SplitPartition, pair: list[tuple[int, int]]) -> tuple[int, ...]:
    """The cycle the pairs describe.  With each u between its two clique
    ends the pairs form a degree-two subgraph, so its walk gives the one
    cycle through all of K when |I| = |K|, and otherwise the paths, which
    chain with the bare clique vertices along clique edges."""
    # Every independent vertex is on this H, so none is left over.
    ind = p.independent
    h = DegreeTwoSubgraph(len(p.clique) + len(ind), ind, np.array(pair, dtype=np.int64), ind[:0])
    paths, cycles = h.components
    if cycles:
        return _canonical_cycle(cycles[0], p.in_clique)
    return (*chain.from_iterable(paths), *h.missed(p.clique))
