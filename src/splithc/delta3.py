"""The K_{1,4}-free, delta_i = 3 construction: a short-cycle gate, then
one pair search.

Premise: split, 2-connected, K_{1,4}-free, delta_i = 3, |K| >= |I| >= 8.
A short cycle refutes the instance, as for delta_i <= 2.  Otherwise the
pair search of ``oracle`` runs on the whole graph with its split
partition: it gives every independent vertex two clique neighbours so
that the pairs, read as edges on the clique side, form a linear forest
(Burkard and Hammer, JCTB 1980).  The paper reduces the instance by a
clique vertex v seeing three independent vertices (v1, v2, v3), assembles
the delta_i <= 2 path system of G - {v1, v2, v3}, bounds its path-size
census and weaves the triple into it.  Any cycle that threads v1, v2 and
v3 between the ends of the system paths is among the ones the pair search
can find, so the search replaces the weave, and the census and the
reduced system are checked by the tests as lemmas of the paper
(``tests/reference_delta3.py``), not on the solve path.

The short-cycle gate is the delta_i <= 2 walk of H, the degree-two
subgraph of ``paths``, which needs every clique vertex to have H-degree
at most 2.  The premise implies it.  Suppose a clique vertex w sees three
degree-2 independent vertices u1, u2, u3.  Every other clique vertex x
then sees one of them, or w, u1, u2, u3 and x induce a K_{1,4}.  Each
u_j has one clique neighbour besides w, so |K| <= 4, against |K| >= 8.
Outside the premise such a vertex makes the gate raise
``PremiseViolated``.

The search's node count is bounded only by measurement (at most |I| + 1
on every in-premise context tried), so the solver credits the
construction only with a cycle found within ``_NODE_CAP`` nodes; any
other result is reported as an exact-search fallback.  The search runs
once, under the larger of that cap and the caller's node budget, and
``oracle_solve`` validates every cycle it returns.
"""

from __future__ import annotations

from .errors import PremiseViolated
from .graph import Graph
from .oracle import OracleBudget, OracleResult, oracle_solve
from .paths import ShortCycleWitness, find_short_cycle
from .split import SplitPartition

__all__ = ["construct_cycle"]

# Node budget within which a found cycle counts as the construction's;
# read at call time.
_NODE_CAP = 60_000


def construct_cycle(g: Graph, p: SplitPartition,
                    budget: OracleBudget | None = None) -> ShortCycleWitness | OracleResult:
    """A short-cycle witness, or the result of one pair search on ``g``.

    The search runs under ``budget`` (the oracle default when None) with
    its node limit raised to at least ``_NODE_CAP``.
    """
    if p.delta_i != 3:
        raise PremiseViolated(f"delta_i = {p.delta_i} != 3")
    witness = find_short_cycle(g, p)
    if witness is not None:
        return witness
    budget = budget or OracleBudget()
    return oracle_solve(g, OracleBudget(nodes=max(budget.nodes, _NODE_CAP),
                                        seconds=budget.seconds), partition=p)
