"""Dispatcher implementing the dichotomy, plus the two simple solvers.

``solve`` classifies the instance (split recognition, 2-connectivity,
delta_i, forbidden-star level) and routes it to the constructive solver
whose premise it satisfies.  Instances outside every premise - not
K_{1,4}-free, or the delta_i = 3 case below the size threshold - go to
the exact oracle, with the method tag recording it.  Every positive
answer is revalidated before being returned; negative answers always
carry a certificate.

Construction for delta_i <= 1: each independent vertex has two clique
neighbors and no clique vertex serves two independent vertices, so the
segments (a, u, b) are pairwise disjoint and chain together with the
leftover clique vertices along clique edges.

Construction for claw-free graphs: with at least four independent
vertices, delta_i is forced down to 1; otherwise the two- and
three-vertex independent sides have a rigid neighborhood structure
(each clique vertex sees s or t, and the private sides S-T, T-S are
nonempty) that yields an explicit cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import delta3
from .errors import (
    CaseFallthrough,
    CensusViolation,
    NotSplitGraph,
    OracleBudgetExceeded,
    PremiseViolated,
)
from .graph import Graph, HamCycle, validate_ham_cycle
from .oracle import OracleBudget, oracle_solve
from .paths import ShortCycleWitness, hc_delta2
from .split import (
    NoCycleCertificate,
    NotSplit,
    SplitPartition,
    recognize_split,
    split_is_two_connected,
    star_free_level,
)

__all__ = ["SolveOutcome", "solve", "hc_delta1", "hc_claw_free"]

# Premise floor of the delta_i = 3 structure theory.
DELTA3_MIN_I = 8


@dataclass(frozen=True)
class SolveOutcome:
    """Verdict plus the method tag recording which result decided it.

    method is one of Delta1, ClawFree, Delta2, Delta3, OracleFallback.
    ``anomaly`` records a construction fallthrough that forced an oracle
    round despite the instance being in premise (a completeness-gap
    candidate, logged by the batch harness).  ``oracle_nodes`` is the
    search nodes the oracle spent, 0 when no oracle round ran.
    """

    cycle: HamCycle | None
    certificate: NoCycleCertificate | None
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


def hc_delta1(g: Graph, p: SplitPartition) -> HamCycle:
    """Constructive cycle for 2-connected split graphs with delta_i <= 1."""
    if p.delta_i > 1:
        raise PremiseViolated(f"delta_i = {p.delta_i} > 1")
    segments: list[list[int]] = []
    used: set[int] = set()
    for u in p.independent:
        nbrs = [int(w) for w in g.neighbors(u)]
        if len(nbrs) < 2:
            raise PremiseViolated(f"independent vertex {u} has degree < 2")
        a, b = nbrs[0], nbrs[1]
        # delta_i <= 1 makes the (a, b) pairs disjoint across I.
        if a in used or b in used:
            raise PremiseViolated("clique vertex serves two independent vertices")
        used.update((a, b))
        segments.append([a, u, b])
    order: list[int] = []
    for seg in segments:
        order.extend(seg)
    order.extend(w for w in p.clique if w not in used)
    cycle = HamCycle(tuple(order))
    if not validate_ham_cycle(g, cycle):
        raise PremiseViolated("delta-1 construction failed to close")
    return cycle


def _claw_free_two(g: Graph, p: SplitPartition, v: int) -> HamCycle:
    """|I| = 2 with a clique vertex v seeing both independent vertices."""
    s, t = (int(u) for u in p.independent)
    s_side = g.neighbor_set(s) & p.clique_set
    t_side = g.neighbor_set(t) & p.clique_set
    only_s = sorted(s_side - t_side)
    only_t = sorted(t_side - s_side)
    if not only_s or not only_t:
        raise PremiseViolated("private neighborhoods empty despite maximum clique")
    w, x = only_s[0], only_t[0]
    rest = [z for z in p.clique if z not in (v, w, x)]
    cycle = HamCycle(tuple([w, s, v, t, x] + rest))
    if not validate_ham_cycle(g, cycle):
        raise PremiseViolated("claw-free |I|=2 construction failed")
    return cycle


def _claw_free_three(g: Graph, p: SplitPartition, v: int) -> HamCycle:
    """|I| = 3: v sees {s, t}; u is the third independent vertex.

    u attaches to both private sides; leftover clique vertices chain
    inside the arc matching the side (S or T) they belong to, which keeps
    every junction an edge.
    """
    s, t = sorted(int(w) for w in g.neighbors(v) if int(w) in p.independent_set)
    u = next(z for z in p.independent if z not in (s, t))
    s_side = g.neighbor_set(s) & p.clique_set
    t_side = g.neighbor_set(t) & p.clique_set
    nu = g.neighbor_set(u)
    xs = sorted((s_side - t_side) & nu)
    ys = sorted((t_side - s_side) & nu)
    if not xs or not ys:
        raise PremiseViolated("third independent vertex misses a private side")
    x, y = xs[0], ys[0]
    rest = [z for z in p.clique if z not in (v, x, y)]
    chain_s = [z for z in rest if z in s_side]
    chain_t = [z for z in rest if z not in s_side]
    if any(z not in t_side for z in chain_t):
        raise PremiseViolated("clique vertex adjacent to neither s nor t")
    # u, x, [S-chain], s, v, t, [T-chain], y  (cyclically; y ~ u closes)
    cycle = HamCycle(tuple([u, x] + chain_s + [s, v, t] + chain_t + [y]))
    if not validate_ham_cycle(g, cycle):
        raise PremiseViolated("claw-free |I|=3 construction failed")
    return cycle


def hc_claw_free(g: Graph, p: SplitPartition) -> HamCycle:
    """Constructive cycle for 2-connected K_{1,3}-free split graphs."""
    if p.delta_i <= 1:
        return hc_delta1(g, p)
    if p.delta_i > 2 or len(p.independent) > 3:
        # Claw-freeness bounds delta_i by 2, and delta_i = 2 bounds |I| by 3.
        raise PremiseViolated("claw-free premise violated")
    v = min(w for w in p.clique if p.d_i[w] == 2)
    if len(p.independent) == 2:
        return _claw_free_two(g, p, v)
    return _claw_free_three(g, p, v)


def solve(g: Graph, oracle_budget: OracleBudget | None = None) -> SolveOutcome:
    """Decide Hamiltonicity of a split graph with a certified answer.

    Raises ``NotSplitGraph`` when the input is not split, and
    ``OracleBudgetExceeded`` if an out-of-premise instance exhausts the
    oracle budget (negative answers are never fabricated).
    """
    rec = recognize_split(g)
    if isinstance(rec, NotSplit):
        raise NotSplitGraph(rec.kind, rec.vertices)
    p = rec
    premise = f"n={g.n},k={len(p.clique)},dI={p.delta_i}"
    tc = split_is_two_connected(g, p)
    if tc is not True:
        # Tag with the premise family the instance belongs to; the
        # negative certificate itself is theorem-independent necessity.
        if p.delta_i <= 1:
            method = "Delta1"
        else:
            stars = star_free_level(g, p)
            if stars.claw_free:
                method = "ClawFree"
            elif stars.k14_free:
                method = "Delta2" if p.delta_i == 2 else "Delta3"
            else:
                method = "OracleFallback"
        cert = NoCycleCertificate("not_two_connected", tc)
        return SolveOutcome(None, cert, method, premise + ",not-2-connected")
    if p.delta_i <= 1:
        return SolveOutcome(hc_delta1(g, p), None, "Delta1", premise)
    stars = star_free_level(g, p)
    if stars.claw_free:
        return SolveOutcome(hc_claw_free(g, p), None, "ClawFree", premise + ",claw-free")
    if stars.k14_free and p.delta_i == 2:
        result = hc_delta2(g, p)
        if isinstance(result, ShortCycleWitness):
            cert = NoCycleCertificate("short_cycle", result)
            return SolveOutcome(None, cert, "Delta2", premise + ",k14-free")
        return SolveOutcome(result, None, "Delta2", premise + ",k14-free")
    if stars.k14_free and p.delta_i == 3:
        n_i, n_k = len(p.independent), len(p.clique)
        if n_i >= DELTA3_MIN_I and n_k >= n_i:
            return _solve_delta3(g, p, premise + ",k14-free,in-premise", oracle_budget)
        return _oracle_round(g, p, "OracleFallback",
                             premise + ",k14-free,below-threshold", oracle_budget, None)
    return _oracle_round(g, p, "OracleFallback", premise + ",not-k14-free", oracle_budget, None)


def _solve_delta3(g: Graph, p: SplitPartition, premise: str,
                  oracle_budget: OracleBudget | None) -> SolveOutcome:
    try:
        ctx = delta3.prepare_context(g, p)
        if isinstance(ctx, ShortCycleWitness):
            cert = NoCycleCertificate("short_cycle", ctx)
            return SolveOutcome(None, cert, "Delta3", premise)
        return SolveOutcome(delta3.construct_cycle(ctx), None, "Delta3", premise)
    except (CensusViolation, CaseFallthrough, PremiseViolated) as exc:
        tag = f"{type(exc).__name__}:{getattr(exc, 'claim_id', '')}"
        return _oracle_round(g, p, "OracleFallback", premise, oracle_budget, tag)


def _oracle_round(g: Graph, p: SplitPartition, method: str, premise: str,
                  oracle_budget: OracleBudget | None, anomaly: str | None) -> SolveOutcome:
    res = oracle_solve(g, oracle_budget, partition=p)
    if res.kind == "cycle":
        return SolveOutcome(res.cycle, None, method, premise, anomaly, res.nodes)
    if res.kind == "no_cycle":
        return SolveOutcome(None, NoCycleCertificate("oracle_exhaustive"),
                            method, premise, anomaly, res.nodes)
    raise OracleBudgetExceeded(f"oracle budget exhausted after {res.nodes} nodes")
