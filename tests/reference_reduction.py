"""The reduction's map-back as the package ran it before it checked the
first cycle on the source first: both images built, then the A-image,
B-image, clique-edge and source checks in that order.  Only the tests use
it, as the reference that ``reduction.map_solution_back`` must match
cycle for cycle and error for error.
"""

from __future__ import annotations

from itertools import combinations

from splithc.errors import InvalidCertificate, PremiseViolated, UsesCliqueEdge
from splithc.graph import Graph, HamCycle, graph_from_edges, validate_ham_cycle
from splithc.reduction import BipartiteInstance


def _image(b: BipartiteInstance, clique_side: tuple[int, ...]) -> Graph:
    edges = list(b.graph.edges())
    edges.extend(combinations(sorted(clique_side), 2))
    return graph_from_edges(b.graph.n, edges)


def both_images_map_solution_back(b: BipartiteInstance, c1: HamCycle,
                                  c2: HamCycle) -> HamCycle:
    h1 = _image(b, b.part_a)
    h2 = _image(b, b.part_b)
    if not validate_ham_cycle(h1, c1):
        raise PremiseViolated("first certificate is not a cycle of the A-image")
    if not validate_ham_cycle(h2, c2):
        raise PremiseViolated("second certificate is not a cycle of the B-image")
    a = set(b.part_a)
    order = c1.order
    for idx in range(len(order)):
        u, v = order[idx], order[(idx + 1) % len(order)]
        if u in a and v in a:
            raise UsesCliqueEdge((u, v))
    if not validate_ham_cycle(b.graph, c1):
        raise InvalidCertificate("mapped-back cycle is not a cycle of the source")
    return c1
