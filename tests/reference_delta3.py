"""The paper's reduced path system of a delta_i = 3 instance, which the
tests check as lemmas of the paper; the package builds the cycle by one
pair search and runs none of this.

Pick the smallest clique vertex v seeing three independent vertices, the
apex triple (v1, v2, v3).  Every other clique vertex w sees one of the
three (rule "A"), or v, w and the triple induce a K_{1,4}.  Deleting the
triple leaves a split graph whose clique vertices see at most two
independent vertices each (rule "B"), so the path assembly applies and
yields vertex-disjoint alternating paths with clique endpoints -
singletons included, v always among them since none of its independent
neighbours survive.  The census counts these paths by size; the paper
bounds it (no path has 13+ vertices, an 11- or 9-vertex path excludes
all other sizes >= 5, at most two 7-vertex paths, and so on), and
``test_delta3`` asserts each bound on generated instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from splithc.graph import Graph
from splithc.paths import PathSystem, ShortCycleWitness, assemble_paths, find_short_cycle
from splithc.split import SplitPartition, _partition_from

from reference_graph import induced_subgraph


@dataclass(frozen=True)
class ReducedSystem:
    v: int
    n_i_v: tuple[int, int, int]
    system: PathSystem
    census: dict[int, int]


def reduced_system(g: Graph, p: SplitPartition) -> ReducedSystem | ShortCycleWitness:
    """The short-cycle gate, as in the construction, then the reduced
    system; a failed rule fails an assertion naming it.

    Premise: split, 2-connected, K_{1,4}-free, delta_i = 3.
    """
    assert p.delta_i == 3, p.delta_i
    witness = find_short_cycle(g, p)
    if witness is not None:
        return witness
    clique = p.clique.tolist()
    v = min(w for w in clique if g.degree(w) - (len(clique) - 1) == 3)
    n_i_v = tuple(sorted(int(u) for u in g.neighbors(v) if not p.in_clique[u]))
    triple_nbrs: set[int] = set()
    for u in n_i_v:
        triple_nbrs.update(int(w) for w in g.neighbors(u))
    missed = [w for w in clique if w != v and w not in triple_nbrs]
    assert not missed, f"rule A: {missed} see none of {n_i_v}"
    h, old_of_new = induced_subgraph(g, [x for x in range(g.n) if x not in n_i_v])
    new_of_old = {o: i for i, o in enumerate(old_of_new)}
    k_new = [new_of_old[w] for w in clique]
    # K is a clique in h too, so a clique vertex's other neighbours are in I.
    over = [old_of_new[w] for w in k_new if h.degree(w) - (len(k_new) - 1) > 2]
    assert not over, f"rule B: {over} see three independent vertices outside the triple"
    hp = _partition_from(h, k_new)
    sub_system = assemble_paths(h, hp)
    paths = tuple(tuple(old_of_new[x] for x in q) for q in sub_system.paths)
    census: dict[int, int] = {}
    for q in paths:
        census[len(q)] = census.get(len(q), 0) + 1
    return ReducedSystem(v, n_i_v, PathSystem(paths, sub_system.insertions), census)
