"""Certificate checker that shares no code with ``splithc``.

Every input graph is recorded by the benchmark itself as a ``Model``: a
clique on a declared vertex set plus explicit edges.  Certificates are
checked in the text form ``splithc.io.certificate_string`` prints (plus
``not-split <kind> <vertices>`` for the recognizer's witness), so what is
checked is what a user of ``split-hc solve`` reads.

A certificate either proves its verdict on its own (cycles, cut vertices,
short cycles, forbidden induced subgraphs) or, for ``exhaustive-search``,
needs the oracle cross-check that the workload runs once per corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class Model:
    """Adjacency of one input: a clique on ``clique`` plus ``edges``.

    Explicit edges must not repeat clique-clique pairs; the ladder models
    keep only their sparse side explicit so that a 6000-vertex clique
    costs one set, not 18M pairs.
    """

    def __init__(self, n: int, clique=(), edges=()):
        self.n = n
        self.clique = frozenset(clique)
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad model edge {(u, v)}")
            self.adj[u].add(v)
            self.adj[v].add(u)
        for u in self.clique:
            if self.adj[u] & self.clique:
                raise ValueError("explicit edge repeats a clique pair")

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (u in self.clique and v in self.clique) or v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v]) + (len(self.clique) - 1 if v in self.clique else 0)

    def edge_list(self) -> list[tuple[int, int]]:
        out = [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]
        out.extend(combinations(sorted(self.clique), 2))
        return sorted(out)

    def components(self, removed: int | None = None) -> int:
        """Connected components of the graph minus ``removed``."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        k = [v for v in self.clique if v != removed]
        for v in k[1:]:
            parent[find(v)] = find(k[0])
        for u in range(self.n):
            if u == removed:
                continue
            for v in self.adj[u]:
                if v != removed:
                    parent[find(u)] = find(v)
        return len({find(v) for v in range(self.n) if v != removed})


@dataclass(frozen=True)
class Checked:
    verdict: str            # "cycle", "no-cycle" or "not-split"
    problem: str | None     # why the certificate does not prove the verdict
    needs_oracle: bool = False


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _closed_walk_ok(m: Model, order: list[int]) -> bool:
    return all(m.has_edge(order[i], order[(i + 1) % len(order)]) for i in range(len(order)))


def _check_cycle(m: Model, order: list[int]) -> str | None:
    if m.n < 3 or len(order) != m.n:
        return f"cycle has {len(order)} vertices, graph has {m.n}"
    if sorted(order) != list(range(m.n)):
        return "cycle is not a permutation of the vertex set"
    if not _closed_walk_ok(m, order):
        return "cycle uses a non-edge"
    return None


def _check_short_cycle(m: Model, cycle: list[int], excluded: int) -> str | None:
    """Removing the clique side S of the cycle isolates its |S| degree-2
    vertices and leaves ``excluded`` in yet another component: more than
    |S| components, so no Hamiltonian cycle exists."""
    if len(cycle) < 4 or len(cycle) % 2 or len(set(cycle)) != len(cycle):
        return "short cycle is not a simple even cycle"
    if any(not 0 <= v < m.n for v in cycle) or not 0 <= excluded < m.n:
        return "short cycle names a vertex outside the graph"
    if not _closed_walk_ok(m, cycle):
        return "short cycle uses a non-edge"
    if excluded in cycle:
        return "excluded vertex lies on the short cycle"
    for parity in (0, 1):
        side_i, side_k = cycle[1 - parity::2], cycle[parity::2]
        if all(m.degree(u) == 2 for u in side_i):
            break
    else:
        return "no side of the short cycle has only degree-2 vertices"
    if m.clique and not (set(side_k) <= m.clique and not set(side_i) & m.clique
                         and excluded in m.clique):
        return "short cycle does not alternate between K and I"
    if not all(m.has_edge(excluded, w) for w in side_k):
        return "excluded vertex is not a clique vertex"
    if not all(m.has_edge(a, b) for a, b in combinations(side_k, 2)):
        return "clique side of the short cycle is not a clique"
    return None


_INDUCED_SHAPES = {"2K2": (4, 2, {1}), "C4": (4, 4, {2}), "C5": (5, 5, {2})}


def _check_not_split(m: Model, kind: str, verts: list[int]) -> str | None:
    """An induced 2K2, C4 or C5, whatever order the vertices come in."""
    if kind not in _INDUCED_SHAPES:
        return f"unknown forbidden subgraph {kind!r}"
    size, n_edges, degrees = _INDUCED_SHAPES[kind]
    if len(verts) != size or len(set(verts)) != size or any(not 0 <= v < m.n for v in verts):
        return f"{kind} witness has bad vertices {verts}"
    edges = [(a, b) for a, b in combinations(verts, 2) if m.has_edge(a, b)]
    deg = {v: sum(v in e for e in edges) for v in verts}
    if len(edges) != n_edges or set(deg.values()) != degrees:
        return f"vertices {verts} do not induce {kind}"
    return None


def check(m: Model, cert: str | None) -> Checked:
    """Check one certificate string against the model of its input."""
    if cert is None:
        return Checked("none", "no certificate")
    head, _, rest = cert.partition(" ")
    try:
        if head == "cycle":
            return Checked("cycle", _check_cycle(m, _ints(rest)))
        if head == "cut-vertex":
            v = int(rest)
            ok = 0 <= v < m.n and m.n >= 3 and m.components(removed=v) >= 2
            return Checked("no-cycle", None if ok else f"{v} is not a cut vertex")
        if head == "disconnected":
            return Checked("no-cycle", None if m.components() >= 2 else "graph is connected")
        if head == "too-small":
            return Checked("no-cycle", None if m.n < 3 else "graph has 3 or more vertices")
        if head == "short-cycle":
            cyc, _, exc = rest.partition(" excluded=")
            return Checked("no-cycle", _check_short_cycle(m, _ints(cyc), int(exc)))
        if head == "exhaustive-search":
            return Checked("no-cycle", None, needs_oracle=True)
        if head == "not-split":
            kind, _, verts = rest.partition(" ")
            return Checked("not-split", _check_not_split(m, kind, _ints(verts)))
    except ValueError:
        return Checked("none", f"malformed certificate {cert[:60]!r}")
    return Checked("none", f"unknown certificate {cert[:60]!r}")


def corruptions(m: Model, cert: str) -> list[str]:
    """Variants of a valid certificate that must all be rejected."""
    head, _, rest = cert.partition(" ")
    if head == "cycle":
        order = _ints(rest)
        swapped = None
        for i in range(len(order)):
            j = (i + 2) % len(order)
            trial = order[:]
            trial[(i + 1) % len(order)], trial[j] = trial[j], trial[(i + 1) % len(order)]
            if not _closed_walk_ok(m, trial):
                swapped = trial
                break
        out = ["cycle " + ",".join(map(str, order[:-1])),
               "cycle " + ",".join(map(str, order[:-1] + order[:1]))]
        if swapped is not None:
            out.append("cycle " + ",".join(map(str, swapped)))
        return out
    if head == "cut-vertex":
        v = int(rest)
        return [f"cut-vertex {w}" for w in range(m.n) if w != v
                and m.components(removed=w) < 2][:2]
    if head == "short-cycle":
        cyc, _, exc = rest.partition(" excluded=")
        verts = _ints(cyc)
        return [f"short-cycle {cyc} excluded={verts[0]}",
                "short-cycle " + ",".join(map(str, verts[:-1])) + f" excluded={exc}"]
    if head == "not-split":
        kind, _, verts = rest.partition(" ")
        vs = _ints(verts)
        other = next(w for w in range(m.n) if w not in vs)
        swapped = "C4" if kind != "C4" else "2K2"
        return [f"not-split {swapped} {verts}",
                f"not-split {kind} " + ",".join(map(str, vs[:-1] + [other]))]
    return []
