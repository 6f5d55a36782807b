"""Hamiltonian-cycle counting by the vertex-order search.

Only the tests count cycles, so the counter lives here; it reuses the
package's pruning and budget so that its counts check that search.
"""

from __future__ import annotations

from dataclasses import dataclass

from splithc.graph import Graph
from splithc.oracle import OracleBudget, _Budget, _Exhausted, _prepare, _viable


@dataclass(frozen=True)
class CountResult:
    """kind is 'count' or 'exhausted'; counts are up to rotation/reflection."""

    kind: str
    count: int = 0
    nodes: int = 0


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
