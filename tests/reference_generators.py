"""The K_{1,4} repair loop that ``generators._repair_k14`` is checked against.

Each round rebuilds the graph from the pair set and reruns the package's
recognition and full star search (``recognize_split``,
``star_free_level``), then changes the pair that the witness names, for at
most 4n rounds.  The package repair keeps adjacency sets instead, builds
the graph once and stops at the first round that undoes the one before;
the equivalence test compares the two on seeded start graphs.  The loop
is unchanged apart from its result, which also says whether it ran to the
cap.
"""

from __future__ import annotations

from splithc.graph import Graph, graph_from_edges
from splithc.split import NotSplit, recognize_split, star_free_level


def loop_repair_k14(n: int, edges: list[tuple[int, int]]) -> tuple[Graph, bool]:
    """The repaired graph, and True when the loop ran all 4n rounds."""
    pairs = {(u, v) if u < v else (v, u) for u, v in edges}
    g = graph_from_edges(n, pairs)
    for _ in range(4 * n):
        p = recognize_split(g)
        if isinstance(p, NotSplit):
            return g, False
        stars = star_free_level(g, p)
        if stars.k14_free:
            return g, False
        center, arms = stars.witness4
        k_arms = [a for a in arms if p.in_clique[a]]
        i_arms = [a for a in arms if not p.in_clique[a]]
        if not i_arms:
            return g, False
        if k_arms:
            a, b = min(k_arms), min(i_arms)
            pairs.add((min(a, b), max(a, b)))
            g = graph_from_edges(n, pairs)
            continue
        # Four independent arms: drop one attachment, keeping independent
        # degrees >= 2.
        drop = min((a for a in i_arms if g.degree(a) >= 3),
                   key=lambda a: (-g.degree(a), a), default=None)
        if drop is None:
            return g, False
        pairs.discard((min(center, drop), max(center, drop)))
        g = graph_from_edges(n, pairs)
    return g, True
