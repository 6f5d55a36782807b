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

The cycle is then built by two bounded searches under one node cap.  The
weave arranges all paths in a circle, with v1, v2 and v3 at three of the
junctions and clique edges at the others; it is the construction that
uses the path system.  When no such arrangement exists, the pair search
of ``oracle`` runs on the whole graph with its split partition: it gives
every independent vertex two clique neighbours so that the pairs, read
as edges on the clique side, form a linear forest (Burkard and Hammer,
JCTB 1980).  Every cycle is validated edge by edge before it is
returned.  If both searches fail, a ``CaseFallthrough`` is raised whose
id says whether a search hit its node cap (``delta3-cap``) or both ran
to completion (``delta3``); the caller routes the instance to the exact
solver and logs it, so an invalid cycle is never emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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

# Node cap of both tiers, read at call time.
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
    kset_new = frozenset(k_new)
    d_i = {}
    delta = 0
    for w in k_new:
        c = sum(1 for x in h.neighbors(w) if x not in kset_new)
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


# ---------------------------------------------------------------------------
# Generic junction assembly ("weave")


def _weave(ctx: Delta3Context) -> tuple[HamCycle | None, bool]:
    """Arrange all system paths in a circle, placing v1, v2, v3 at three
    junctions whose flanking block ends are their neighbors; every other
    junction is a clique edge.  Deterministic bounded backtracking.

    Returns the validated cycle or None, and whether the search stopped
    at ``_NODE_CAP`` rather than running to completion."""
    g = ctx.g
    blocks = [list(q.order) for q in ctx.system.paths]
    nblocks = len(blocks)
    ports: list[tuple[int, int]] = [(b, s) for b in range(nblocks) for s in (0, 1)]

    def pvert(port: tuple[int, int]) -> int:
        b, s = port
        return blocks[b][0 if s == 0 else -1]

    cands: dict[int, list[tuple[int, int]]] = {}
    for u in ctx.n_i_v:
        cs = [pt for pt in ports if g.has_edge(u, pvert(pt))]
        cs.sort(key=lambda pt: (pvert(pt), pt))
        cands[u] = cs
    specials = sorted(ctx.n_i_v, key=lambda u: (len(cands[u]), u))
    used: set[tuple[int, int]] = set()
    comp = list(range(nblocks))

    # No path compression: component merges must be undoable on backtrack.
    def find(x: int) -> int:
        while comp[x] != x:
            x = comp[x]
        return x

    assign: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    budget = [_NODE_CAP]
    comp_size = {b: 1 for b in range(nblocks)}

    def place(idx: int) -> bool:
        if budget[0] <= 0:
            return False
        if idx == len(specials):
            return True
        u = specials[idx]
        free = [pt for pt in cands[u] if pt not in used]
        for pa, pb in combinations(free, 2):
            budget[0] -= 1
            if budget[0] <= 0:
                return False
            ra, rb = find(pa[0]), find(pb[0])
            closing = ra == rb
            if closing:
                # Allowed only as the final junction of a circle of all blocks.
                if idx != len(specials) - 1 or comp_size[ra] != nblocks:
                    continue
            used.add(pa)
            used.add(pb)
            saved = (comp[ra], comp[rb], comp_size.get(rb, 0), comp_size.get(ra, 0))
            if not closing:
                comp[ra] = rb
                comp_size[rb] = comp_size.get(rb, 0) + comp_size.get(ra, 0)
            assign[u] = (pa, pb)
            if place(idx + 1):
                return True
            del assign[u]
            used.discard(pa)
            used.discard(pb)
            comp[ra], comp[rb] = saved[0], saved[1]
            comp_size[rb], comp_size[ra] = saved[2], saved[3]
        return False

    if not place(0):
        return None, budget[0] <= 0
    cyc = _stitch(blocks, assign)
    if cyc is None:
        return None, False
    cycle = HamCycle(tuple(cyc))
    return (cycle if validate_ham_cycle(g, cycle) else None), False


def _stitch(blocks: list[list[int]], assign: dict) -> list[int] | None:
    """Turn the junction assignment into one cyclic vertex order."""
    attach: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    for u, (pa, pb) in assign.items():
        attach[pa] = (u, pb)
        attach[pb] = (u, pa)
    unvisited = set(range(len(blocks)))
    chains: list[list[int]] = []
    while unvisited:
        start = None
        for b in sorted(unvisited, key=lambda b: (min(blocks[b]), b)):
            for s in (0, 1):
                if (b, s) not in attach:
                    start = (b, s)
                    break
            if start:
                break
        closed_walk = start is None
        if closed_walk:
            b = min(unvisited)
            start = (b, 0)
        seq: list[int] = []
        cur_b, enter = start
        first_port = start
        while True:
            blk = blocks[cur_b]
            if cur_b not in unvisited:
                return None
            unvisited.remove(cur_b)
            seq.extend(blk if enter == 0 else blk[::-1])
            exit_port = (cur_b, 1 - enter)
            hook = attach.get(exit_port)
            if hook is None:
                break
            u, (nb, ns) = hook
            if closed_walk and (nb, ns) == first_port:
                seq.append(u)
                break
            seq.append(u)
            cur_b, enter = nb, ns
        chains.append(seq)
        if closed_walk and unvisited:
            return None
    chains.sort(key=lambda c: c[0])
    out: list[int] = []
    for c in chains:
        out.extend(c)
    return out


def construct_cycle(ctx: Delta3Context) -> HamCycle:
    """Build a Hamiltonian cycle by weaving, then by the pair search.

    The census was checked by ``prepare_context``; here every emitted
    cycle is validated.  When neither tier finds a cycle a
    ``CaseFallthrough`` is raised: ``delta3-cap`` if a tier stopped at
    its node cap, ``delta3`` if both searched exhaustively.
    """
    got, capped = _weave(ctx)
    if got is None:
        res = oracle_solve(ctx.g, OracleBudget(nodes=_NODE_CAP), partition=ctx.partition)
        got = res.cycle
        capped |= res.kind == "exhausted"
    if got is None:
        raise CaseFallthrough("delta3-cap" if capped else "delta3", ctx.census)
    if not validate_ham_cycle(ctx.g, got):
        raise CaseFallthrough("delta3-validate", got.order)
    return got
