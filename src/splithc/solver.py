"""Dispatcher implementing the dichotomy.

``solve`` classifies the instance (split recognition, 2-connectivity,
delta_i, forbidden-star level) and routes it to the constructive solver
whose premise it satisfies.  Instances outside every premise - not
K_{1,4}-free, or the delta_i = 3 case below the size threshold - go to
the exact oracle, with the method tag recording it.  Every positive
answer is revalidated before being returned; negative answers always
carry a certificate.

The premise families nest.  Claw-free implies delta_i <= 2: a clique
vertex seeing three independent vertices centres a claw.  delta_i <= 2
implies K_{1,4}-free: an induced K_{1,4} centred in K needs three
independent arms.  So the path assembly ``hc_delta2`` decides every
instance with delta_i <= 2: the Delta1, ClawFree and Delta2 families.
An in-premise delta_i = 3 instance gets the short-cycle gate and one pair
search (``delta3.construct_cycle``); that search's result is mapped to an
outcome by the same rule as an oracle round's, so it never runs twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import delta3
from .errors import NotSplitGraph, OracleBudgetExceeded
from .graph import Graph, HamCycle
from .oracle import ExhaustiveSearch, OracleBudget, OracleResult, oracle_solve
from .paths import ShortCycleWitness, hc_delta2
from .split import (
    NotSplit,
    NotTwoConnected,
    SplitPartition,
    recognize_split,
    split_is_two_connected,
    star_free_level,
)

__all__ = ["SolveOutcome", "solve"]

# Premise floor of the delta_i = 3 structure theory.
DELTA3_MIN_I = 8


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict plus the method tag recording which result decided it.

    ``certificate`` is None exactly when ``cycle`` is set; otherwise it is
    the value that proves the negative, and its ``render`` gives the
    certificate's text: a ``NotTwoConnected``, a ``ShortCycleWitness`` or
    an ``ExhaustiveSearch``.
    ``method`` names the premise family: Delta1, ClawFree, Delta2, Delta3,
    or OracleFallback (no polynomial premise), which also tags every
    instance the exact oracle decides.
    ``anomaly`` records an in-premise delta_i = 3 search that did not
    build a cycle within ``delta3._NODE_CAP`` nodes, so its result is
    tagged OracleFallback (a completeness-gap candidate, logged by the
    batch harness).  ``oracle_nodes`` is the nodes spent by the pair
    search, the Delta3 route's or the oracle round's, 0 when none ran.
    """

    cycle: HamCycle | None
    certificate: NotTwoConnected | ShortCycleWitness | ExhaustiveSearch | None
    method: str
    premise: str = ""
    anomaly: str | None = None
    oracle_nodes: int = 0

    @property
    def has_cycle(self) -> bool:
        return self.cycle is not None

    @property
    def verdict(self) -> str:
        return "cycle" if self.has_cycle else "no-cycle"


def solve(g: Graph, oracle_budget: OracleBudget | None = None) -> SolveOutcome:
    """Decide Hamiltonicity of a split graph with a certified answer.

    Raises ``NotSplitGraph`` when the input is not split, and
    ``OracleBudgetExceeded`` if an out-of-premise instance exhausts the
    oracle budget (negative answers are never fabricated).
    """
    p = recognize_split(g)
    if isinstance(p, NotSplit):
        raise NotSplitGraph(p.kind, p.vertices)
    premise = f"n={g.n},k={len(p.clique)},dI={p.delta_i}"
    family, suffix = _premise_family(g, p)
    tc = split_is_two_connected(g, p)
    if tc is not True:
        return SolveOutcome(None, tc, family, premise + ",not-2-connected")
    premise += suffix
    if p.delta_i <= 2:
        result = hc_delta2(g, p)
        if isinstance(result, ShortCycleWitness):
            return SolveOutcome(None, result, family, premise)
        return SolveOutcome(result, None, family, premise)
    if family == "Delta3":
        n_i, n_k = len(p.independent), len(p.clique)
        if n_i >= DELTA3_MIN_I and n_k >= n_i:
            premise += ",in-premise"
            result = delta3.construct_cycle(g, p, oracle_budget)
            if isinstance(result, ShortCycleWitness):
                return SolveOutcome(None, result, family, premise)
            return _search_outcome(result, premise, delta3_route=True)
        premise += ",below-threshold"
    return _search_outcome(oracle_solve(g, oracle_budget, partition=p), premise)


def _premise_family(g: Graph, p: SplitPartition) -> tuple[str, str]:
    """The instance's premise family and the tag it adds to ``premise``."""
    if p.delta_i <= 1:
        return "Delta1", ""
    stars = star_free_level(g, p)
    if stars.claw_free:
        return "ClawFree", ",claw-free"
    if stars.k14_free:
        return ("Delta2" if p.delta_i == 2 else "Delta3"), ",k14-free"
    return "OracleFallback", ",not-k14-free"


def _search_outcome(res: OracleResult, premise: str, delta3_route: bool = False) -> SolveOutcome:
    """The outcome of a pair search: ``Delta3`` for a delta-3 route cycle
    found within ``delta3._NODE_CAP`` nodes, ``OracleFallback`` for any
    other decided result, with the anomaly naming why a delta-3 route
    fell through."""
    if not res.decided:
        raise OracleBudgetExceeded(f"oracle budget exhausted after {res.nodes} nodes")
    anomaly = None
    if delta3_route:
        if res.has_cycle and res.nodes <= delta3._NODE_CAP:
            return SolveOutcome(res.cycle, None, "Delta3", premise, None, res.nodes)
        anomaly = ("CaseFallthrough:delta3-cap" if res.nodes > delta3._NODE_CAP
                   else "CaseFallthrough:delta3")
    return SolveOutcome(res.cycle, res.certificate, "OracleFallback", premise, anomaly, res.nodes)
