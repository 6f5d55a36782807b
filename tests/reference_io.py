"""Loop-based references for the vectorized graph parser and CSR build.

``line_parse_graph`` is the v1 parser as it was before the canonical
numpy path existed: one line at a time, the whole text.
``unique_graph_from_edges`` and ``loop_edges`` are the ``np.unique``
CSR build and the per-row edge iterator that the vectorized versions
replaced.  ``fstring_render_graph`` is the renderer that formatted every
edge with its own f-string.  Only the tests use them, as oracles for
identical output.
"""

from __future__ import annotations

import numpy as np

from splithc.errors import ParseError
from splithc.graph import Graph, _as_edge_array, graph_from_edges
from splithc.io import HEADER


def line_parse_graph(text: str) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse the graph format; returns (graph, clique hint or None)."""
    n = m = None
    clique: tuple[int, ...] | None = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            parts = line.split()
            if len(parts) != 4 or " ".join(parts[:2]) != HEADER:
                raise ParseError(f"bad header {line!r}", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad header counts {line!r}", line_no) from None
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", line_no)
            continue
        if line.startswith("partition K:"):
            try:
                clique = tuple(int(x) for x in line.split(":", 1)[1].split())
            except ValueError:
                raise ParseError("bad partition line", line_no) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge line, got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge {line!r}", line_no) from None
        if u == v:
            raise ParseError(f"self-loop {u}", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {u} {v} outside [0, {n})", line_no)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing header")
    g = graph_from_edges(n, edges)
    if g.m != m:
        if len(edges) != m:
            raise ParseError(f"header promises {m} edges, file has {len(edges)}")
        # Duplicates were merged; warn by raising only on count mismatch.
    return g, clique


def unique_graph_from_edges(n: int, edges) -> Graph:
    arr = _as_edge_array(n, edges)
    if arr.size == 0:
        indptr = np.zeros(n + 1, dtype=np.int64)
        return Graph(n, indptr, np.empty(0, dtype=np.int32))
    both = np.concatenate([arr, arr[:, ::-1]])
    keys = np.unique(both[:, 0] * np.int64(n) + both[:, 1])
    src = keys // n
    dst = (keys % n).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(n, indptr, dst)


def loop_edges(g: Graph):
    for u in range(g.n):
        for w in g.neighbors(u):
            if u < w:
                yield (u, int(w))


def fstring_render_graph(g: Graph, clique=None) -> str:
    lines = [f"{HEADER} {g.n} {g.m}"]
    if clique is not None:
        lines.append("partition K: " + " ".join(str(v) for v in sorted(clique)))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
