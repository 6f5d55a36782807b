"""The K_{1,4}-free, delta_i = 3 engine.

Setup: pick a clique vertex ``v`` seeing three independent vertices
(v1, v2, v3).  Deleting those three leaves a split graph whose clique
vertices see at most two independent vertices each (one more would give
an induced K_{1,4} back in the original), so the path assembly applies
and yields a collection of vertex-disjoint alternating paths with clique
endpoints - singletons included, ``v`` always among them since none of
its independent neighbors survive the deletion.

The path-size census is then heavily constrained (no path has 13+
vertices; an 11- or 9-vertex path excludes all other sizes >= 5; at most
two 7-vertex paths, and so on).  ``prepare_context`` checks these
constraints, and the domination of the clique by the triple's
neighborhoods, as correctness assertions: a failure raises
``CensusViolation`` naming the violated rule.

The cycle is then built by the pair search of ``oracle`` on the whole
graph with its split partition: it gives every independent vertex two
clique neighbours so that the pairs, read as edges on the clique side,
form a linear forest (Burkard and Hammer, JCTB 1980).  Any cycle that
threads v1, v2 and v3 between the ends of the system paths is among the
ones it can find, so it replaces the paper's weave; its node count is
bounded only by measurement (at most |I| + 1 on every in-premise context
tried), so it runs under a node cap.  Every cycle is validated edge by
edge before it is returned.  If the search fails, a ``CaseFallthrough``
is raised whose id says whether it hit its node cap (``delta3-cap``) or
ran to completion (``delta3``); the caller routes the instance to the
exact solver and logs it, so an invalid cycle is never emitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CaseFallthrough, CensusViolation, PremiseViolated
from .graph import Graph, HamCycle, OrientedPath, induced_subgraph, validate_ham_cycle
from .oracle import OracleBudget, oracle_solve
from .paths import PathSystem, ShortCycleWitness, assemble_paths, find_short_cycle
from .split import SplitPartition

__all__ = [
    "Delta3Context",
    "prepare_context",
    "construct_cycle",
]

# Node cap of the pair search, read at call time.
_NODE_CAP = 60_000


@dataclass(frozen=True)
class Delta3Context:
    g: Graph
    partition: SplitPartition
    v: int
    n_i_v: tuple[int, int, int]
    system: PathSystem
    census: dict[int, int]


def _census_of(system: PathSystem) -> dict[int, int]:
    census: dict[int, int] = {}
    for q in system.paths:
        census[len(q)] = census.get(len(q), 0) + 1
    return census


def _check_census(census: dict[int, int]) -> None:
    """The structural constraints on path sizes; ids name the violated rule."""
    def count(j: int) -> int:
        return census.get(j, 0)

    if any(j >= 13 for j in census):
        raise CensusViolation("2", census)
    if count(11) and (count(5) or count(7) or count(9)):
        raise CensusViolation("4", census)
    if count(9) and (count(5) or count(7) or count(11)):
        raise CensusViolation("6", census)
    if count(7) > 2 or (count(7) == 2 and count(5)):
        raise CensusViolation("8", census)
    if count(7) == 1 and count(5) > 1:
        raise CensusViolation("9", census)
    if not count(7) and not count(9) and not count(11) and count(5) > 2:
        raise CensusViolation("13", census)


def prepare_context(g: Graph, p: SplitPartition) -> Delta3Context | ShortCycleWitness:
    """Gate short cycles, reduce, assemble paths, and assert the census.

    Premise: split, 2-connected, K_{1,4}-free, delta_i = 3, |K| >= |I| >= 8.
    """
    if p.delta_i != 3:
        raise PremiseViolated(f"delta_i = {p.delta_i} != 3")
    witness = find_short_cycle(g, p)
    if witness is not None:
        return witness
    v = min(w for w in p.clique if p.d_i[w] == 3)
    n_i_v = tuple(sorted(int(u) for u in g.neighbors(v) if u in p.independent_set))
    # Every clique vertex must see one of the three (else an induced
    # K_{1,4} on {v, w} plus the triple exists, contradicting freeness).
    triple_nbrs: set[int] = set()
    for u in n_i_v:
        triple_nbrs.update(int(w) for w in g.neighbors(u))
    for w in p.clique:
        if w != v and w not in triple_nbrs:
            raise CensusViolation("A", (v, w, n_i_v))
    keep = [x for x in range(g.n) if x not in n_i_v]
    h, old_of_new = induced_subgraph(g, keep)
    new_of_old = {o: i for i, o in enumerate(old_of_new)}
    k_new = tuple(new_of_old[w] for w in p.clique)
    i_new = tuple(new_of_old[u] for u in p.independent if u not in n_i_v)
    # K is a clique in h too, so a clique vertex's other neighbors are in I.
    d_i = {}
    delta = 0
    for w in k_new:
        c = h.degree(w) - (len(k_new) - 1)
        d_i[w] = c
        delta = max(delta, c)
    if delta > 2:
        bad = next(w for w in k_new if d_i[w] > 2)
        raise CensusViolation("B", (old_of_new[bad],))
    hp = SplitPartition(tuple(sorted(k_new)), tuple(sorted(i_new)), d_i, delta)
    try:
        sub_system = assemble_paths(h, hp)
    except PremiseViolated as exc:
        raise CensusViolation("reduced-assembly", str(exc)) from exc
    paths = tuple(
        OrientedPath(tuple(old_of_new[x] for x in q.order)) for q in sub_system.paths
    )
    system = PathSystem(paths, sub_system.insertions)
    census = _census_of(system)
    _check_census(census)
    return Delta3Context(g, p, v, n_i_v, system, census)


def construct_cycle(ctx: Delta3Context) -> HamCycle:
    """Build a Hamiltonian cycle by the pair search on the whole graph.

    The census was checked by ``prepare_context``; here every emitted
    cycle is validated.  When the search finds no cycle a
    ``CaseFallthrough`` is raised: ``delta3-cap`` if it stopped at its
    node cap, ``delta3`` if it searched exhaustively.
    """
    res = oracle_solve(ctx.g, OracleBudget(nodes=_NODE_CAP), partition=ctx.partition)
    if not res.has_cycle:
        raise CaseFallthrough("delta3-cap" if res.kind == "exhausted" else "delta3",
                              ctx.census)
    if not validate_ham_cycle(ctx.g, res.cycle):
        raise CaseFallthrough("delta3-validate", res.cycle.order)
    return res.cycle
