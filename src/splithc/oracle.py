"""Exact Hamiltonian-cycle decision, construction and counting.

Pruned backtracking, independent of the structural solvers: this module
is the ground truth the property tests compare against, and the fallback
for instances outside every theorem's premises.  "No cycle" is reported
only after the search space is exhausted; running out of budget is a
distinct result, never conflated with a negative answer.

Pruning rules, checked at every expansion:
  * an unvisited vertex whose possible cycle-neighbors (unvisited
    neighbors, plus the path endpoints where adjacent) number < 2 kills
    the branch;
  * the unvisited region must stay reachable from the path's moving end;
  * degree-2 vertices force both incident edges, checked once up front
    (three forced edges at a vertex, or a premature forced cycle, refute
    immediately);
  * with a split partition supplied, |I| > |K| refutes by pigeonhole.

Search order is deterministic: start at vertex 0, extend to the smallest
admissible neighbor first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InvalidCertificate
from .graph import Graph, HamCycle, validate_ham_cycle
from .split import SplitPartition

__all__ = ["OracleBudget", "OracleResult", "CountResult", "oracle_solve", "oracle_count"]

DEFAULT_NODE_LIMIT = 100_000_000
DEFAULT_TIME_LIMIT = 60.0


@dataclass(frozen=True)
class OracleBudget:
    """Search limits; exhaustion is reported, never silently truncated."""

    nodes: int = DEFAULT_NODE_LIMIT
    seconds: float = DEFAULT_TIME_LIMIT

    def __post_init__(self) -> None:
        if self.nodes <= 0 or self.seconds <= 0:
            raise ValueError("budget limits must be positive")


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


@dataclass(frozen=True)
class CountResult:
    """kind is 'count' or 'exhausted'; counts are up to rotation/reflection."""

    kind: str
    count: int = 0
    nodes: int = 0


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


def _forced_edge_refutation(adj: list[list[int]], n: int) -> str | None:
    """Check degree-2 forced edges; 'no' to refute, 'cycle-ok' if they
    already form a spanning cycle, None when inconclusive."""
    forced: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        if len(adj[v]) == 2:
            for w in adj[v]:
                forced[v].add(w)
                forced[w].add(v)
    for v in range(n):
        if len(forced[v]) > 2:
            return "no"
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
                return "no" if count < n else "cycle-ok"
            if count > n:
                break
    return None


def _prepare(g: Graph) -> list[list[int]] | None:
    """Adjacency lists, or None when trivially non-Hamiltonian."""
    n = g.n
    if n < 3:
        return None
    adj = [[int(w) for w in g.neighbors(v)] for v in range(n)]
    if any(len(a) < 2 for a in adj):
        return None
    # Connectivity.
    seen = 1
    stack = [0]
    mask = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            b = 1 << w
            if not mask & b:
                mask |= b
                seen += 1
                stack.append(w)
    if seen != n:
        return None
    return adj


def _reachable_covers(adj: list[list[int]], end: int, visited: int, n: int) -> bool:
    """BFS from the moving end through unvisited vertices."""
    target = ((1 << n) - 1) & ~visited
    if target == 0:
        return True
    reach = 0
    stack = [end]
    probed = 1 << end
    while stack:
        v = stack.pop()
        for w in adj[v]:
            b = 1 << w
            if visited & b or probed & b:
                continue
            probed |= b
            reach |= b
            stack.append(w)
    return reach & target == target


def _viable(adj: list[list[int]], start: int, end: int, visited: int, n: int) -> bool:
    full = (1 << n) - 1
    rest = full & ~visited
    if rest == 0:
        return True
    r = rest
    while r:
        b = r & -r
        u = b.bit_length() - 1
        r ^= b
        slots = 0
        for w in adj[u]:
            wb = 1 << w
            if not visited & wb or w == end or w == start:
                slots += 1
                if slots == 2:
                    break
        if slots < 2:
            return False
    return _reachable_covers(adj, end, visited, n)


def oracle_solve(g: Graph, budget: OracleBudget | None = None,
                 partition: SplitPartition | None = None) -> OracleResult:
    """Decide Hamiltonicity exactly, constructing a cycle when one exists."""
    budget = budget or OracleBudget()
    if partition is not None and len(partition.independent) > len(partition.clique):
        return OracleResult("no_cycle")
    adj = _prepare(g)
    if adj is None:
        return OracleResult("no_cycle")
    n = g.n
    verdict = _forced_edge_refutation(adj, n)
    if verdict == "no":
        return OracleResult("no_cycle")
    b = _Budget(budget)
    path = [0]

    def extend(visited: int) -> bool:
        if not b.tick():
            raise _Exhausted
        end = path[-1]
        if len(path) == n:
            return 0 in adj[end]
        if not _viable(adj, 0, end, visited, n):
            return False
        for w in adj[end]:
            wb = 1 << w
            if visited & wb:
                continue
            path.append(w)
            if extend(visited | wb):
                return True
            path.pop()
        return False

    try:
        if extend(1):
            cycle = HamCycle(tuple(path))
            if not validate_ham_cycle(g, cycle):
                raise InvalidCertificate(f"oracle cycle {cycle.order} fails validation")
            return OracleResult("cycle", cycle, b.nodes)
        return OracleResult("no_cycle", None, b.nodes)
    except _Exhausted:
        return OracleResult("exhausted", None, b.nodes)


def oracle_count(g: Graph, budget: OracleBudget | None = None) -> CountResult:
    """Count distinct Hamiltonian cycles up to rotation and reflection.

    Cycles are anchored at vertex 0 with the smaller second-vs-last
    neighbor orientation, so each undirected cycle is counted once.
    """
    budget = budget or OracleBudget()
    adj = _prepare(g)
    if adj is None:
        return CountResult("count", 0)
    n = g.n
    b = _Budget(budget)
    path = [0]
    total = 0

    def extend(visited: int) -> None:
        nonlocal total
        if not b.tick():
            raise _Exhausted
        end = path[-1]
        if len(path) == n:
            if 0 in adj[end] and path[1] < path[-1]:
                total += 1
            return
        if not _viable(adj, 0, end, visited, n):
            return
        for w in adj[end]:
            wb = 1 << w
            if visited & wb:
                continue
            path.append(w)
            extend(visited | wb)
            path.pop()

    try:
        extend(1)
        return CountResult("count", total, b.nodes)
    except _Exhausted:
        return CountResult("exhausted", total, b.nodes)
