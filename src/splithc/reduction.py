"""Reduction from bipartite max-degree-3 Hamiltonicity to split graphs.

From a bipartite instance with parts A and B, build two supergraphs:
h1 adds every edge inside A, h2 every edge inside B.  The source has a
Hamiltonian cycle exactly when both images do: a source cycle survives in
either image, and conversely a cycle of h1 that used an A-internal edge
would visit fewer B vertices than A ones, contradicting |A| = |B| (forced
by both images being Hamiltonian at once).

Both images are split - A (resp. B) is the clique, the other side stays
independent - and contain no induced star with five leaves: a center
would need four independent-side neighbors, i.e. degree 4 in the source.
Each image's partition is read off that construction
(``_image_partition``), and ``recognize_split`` and ``verify_k15_free``
still check the image.  Mapping back checks the first cycle on the
source, a spanning subgraph of the A-image, and builds the A-image only
when that check fails: a valid pair costs one image and two validations.

Planarity of the source is deliberately not validated: the mapping and
its correctness use only bipartiteness and the degree bound.  Planarity
matters solely for the hardness of the source problem.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import (DegreeTooHigh, InvalidCertificate, NotBipartite, PremiseViolated,
                     UsesCliqueEdge)
from .graph import Graph, HamCycle, graph_from_edges, validate_ham_cycle
from .split import (
    NotSplit,
    SplitPartition,
    StarLevels,
    _partition_from,
    recognize_split,
    star_free_level,
)

__all__ = [
    "BipartiteInstance",
    "ReductionOutput",
    "bipartite_from_graph",
    "reduce_to_split",
    "verify_k15_free",
    "map_solution_back",
]

MAX_DEGREE = 3


@dataclass(frozen=True)
class BipartiteInstance:
    """A bipartite graph with declared parts and maximum degree 3."""

    graph: Graph
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]

    def __post_init__(self) -> None:
        g = self.graph
        a, b = set(self.part_a), set(self.part_b)
        # n entries that cover [0, n) list each vertex exactly once.
        if len(self.part_a) + len(self.part_b) != g.n or (a | b) != set(range(g.n)):
            raise _part_defect(g.n, self.part_a, self.part_b)
        for side in (a, b):
            for u in side:
                for w in g.neighbors(u):
                    if int(w) in side:
                        raise NotBipartite((u, int(w)))
        for v in range(g.n):
            if g.degree(v) > MAX_DEGREE:
                raise DegreeTooHigh(v, g.degree(v), MAX_DEGREE)


def _part_defect(n: int, part_a: Sequence[int], part_b: Sequence[int]) -> NotBipartite:
    """The first vertex that the declared parts list outside [0, n) or
    twice, else the least vertex that they leave out."""
    seen: dict[int, str] = {}
    for name, part in (("A", part_a), ("B", part_b)):
        for v in part:
            if not 0 <= v < n:
                return NotBipartite((v,), f"part {name} lists vertex {v}, outside [0, {n})")
            if v in seen:
                where = f"part {name} twice" if seen[v] == name else "both parts"
                return NotBipartite((v,), f"vertex {v} is listed in {where}")
            seen[v] = name
    v = min(set(range(n)) - seen.keys())
    return NotBipartite((v,), f"vertex {v} is in neither part")


def bipartite_from_graph(g: Graph) -> BipartiteInstance:
    """2-color a graph into a BipartiteInstance (component roots go to A).

    Raises ``NotBipartite`` with an odd closed walk when no 2-coloring
    exists, and ``DegreeTooHigh`` past the degree bound.
    """
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        dq = deque([root])
        while dq:
            v = dq.popleft()
            for w in g.neighbors(v):
                w = int(w)
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    parent[w] = v
                    dq.append(w)
                elif color[w] == color[v]:
                    raise NotBipartite(_odd_walk(parent, v, w))
    part_a = tuple(v for v in range(g.n) if color[v] == 0)
    part_b = tuple(v for v in range(g.n) if color[v] == 1)
    return BipartiteInstance(g, part_a, part_b)


def _odd_walk(parent: list[int], v: int, w: int) -> tuple[int, ...]:
    up_v, up_w = [v], [w]
    seen = {v: 0}
    x = v
    while parent[x] != -1:
        x = parent[x]
        seen[x] = len(up_v)
        up_v.append(x)
    x = w
    while x not in seen:
        x = parent[x]
        up_w.append(x)
    return tuple(up_v[:seen[x] + 1] + up_w[::-1][:len(up_w) - 1])


@dataclass(frozen=True)
class ReductionOutput:
    h1: Graph
    h2: Graph
    partition1: SplitPartition
    partition2: SplitPartition
    source: BipartiteInstance


def _image(b: BipartiteInstance, clique_side: tuple[int, ...]) -> Graph:
    edges = list(b.graph.edges())
    edges.extend(combinations(sorted(clique_side), 2))
    return graph_from_edges(b.graph.n, edges)


def _image_partition(h: Graph, side: Sequence[int], other: Sequence[int]) -> SplitPartition:
    """The partition of ``h``, a split graph with ``side`` a clique and
    ``other`` independent: K is ``side`` plus the smallest vertex of
    ``other`` that sees all of it, if any, so that K is a maximum clique.

    A vertex of ``other`` sees only ``side``, so it sees all of it exactly
    when its degree is |side|.  After one moves in, no second can follow
    (two vertices of ``other`` are never adjacent), and no clique exceeds
    |side| by more than that one vertex.
    """
    movers = [v for v in other if h.degree(v) == len(side)]
    return _partition_from(h, [*side, min(movers)] if movers else side)


def reduce_to_split(b: BipartiteInstance) -> ReductionOutput:
    """Build both split images and validate them: each must be split and
    K_{1,5}-free, else ``InvalidCertificate`` is raised."""
    h1 = _image(b, b.part_a)
    h2 = _image(b, b.part_b)
    p1 = _image_partition(h1, b.part_a, b.part_b)
    p2 = _image_partition(h2, b.part_b, b.part_a)
    for h, p in ((h1, p1), (h2, p2)):
        if isinstance(recognize_split(h), NotSplit):
            raise InvalidCertificate("reduction image failed split recognition")
        check = verify_k15_free(h, p)
        if check is not True:
            raise InvalidCertificate(f"reduction image has an induced 5-star: {check}")
    return ReductionOutput(h1, h2, p1, p2, b)


def verify_k15_free(g: Graph, p: SplitPartition) -> bool | tuple[int, tuple[int, ...]]:
    """True, or a witness (center, arms) of an induced star on 5 leaves."""
    stars: StarLevels = star_free_level(g, p)
    if stars.k15_free:
        return True
    return stars.witness5


def map_solution_back(b: BipartiteInstance, c1: HamCycle, c2: HamCycle) -> HamCycle:
    """Reinterpret a cycle of h1 on the source graph.

    Valid whenever both images are Hamiltonian: the cycle then uses no
    A-internal edge, so it lives entirely in the source.  ``c1`` is checked
    on the source first, and on the A-image only when that fails; then
    ``c2`` on the B-image.  Either failed image check raises
    ``PremiseViolated``.  A ``c1`` that is a cycle of the A-image but not
    of the source raises ``UsesCliqueEdge`` at its first A-A pair in cycle
    order, or ``InvalidCertificate`` if it has none; both flag a
    validator bug upstream.
    """
    in_source = validate_ham_cycle(b.graph, c1)
    if not in_source and not validate_ham_cycle(_image(b, b.part_a), c1):
        raise PremiseViolated("first certificate is not a cycle of the A-image")
    if not validate_ham_cycle(_image(b, b.part_b), c2):
        raise PremiseViolated("second certificate is not a cycle of the B-image")
    if in_source:
        return c1
    a = set(b.part_a)
    order = c1.order
    for idx in range(len(order)):
        u, v = order[idx], order[(idx + 1) % len(order)]
        if u in a and v in a:
            raise UsesCliqueEdge((u, v))
    raise InvalidCertificate("mapped-back cycle is not a cycle of the source")
