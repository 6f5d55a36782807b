"""Hamiltonian-cycle counting by the vertex-order search.

Only the tests count cycles, so the counter lives here.  It counts the
cycles that the package's own search enumerates, under the package's
budget, so its counts check that search itself, not a copy of its loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from splithc.graph import Graph
from splithc.oracle import OracleBudget, _Budget, _Exhausted, _order_cycles


@dataclass(frozen=True)
class CountResult:
    """kind is 'count' or 'exhausted'; counts are up to rotation/reflection."""

    kind: str
    count: int = 0
    nodes: int = 0


def oracle_count(g: Graph, budget: OracleBudget | None = None) -> CountResult:
    """Count distinct Hamiltonian cycles up to rotation and reflection.

    The search yields each cycle from vertex 0 once per direction; only
    the direction whose second vertex is smaller than its last counts.
    """
    b = _Budget(budget or OracleBudget())
    total = 0
    try:
        for order in _order_cycles(g, b):
            total += order[1] < order[-1]
    except _Exhausted:
        return CountResult("exhausted", total, b.nodes)
    return CountResult("count", total, b.nodes)
