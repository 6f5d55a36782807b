"""Immutable simple undirected graphs and certificate checkers.

Vertices are dense integers ``0..n-1``.  Adjacency is stored in CSR form
(numpy ``indptr``/``indices``) so that dense clique sides of split graphs
with ~10^4 vertices stay cheap to build and query; per-vertex neighbor
rows are sorted, which makes every "pick an arbitrary vertex" step in the
algorithms deterministic (smallest index wins).

The cycle checker ``validate_ham_cycle`` is deliberately primitive - a
length check, a permutation check and one batched adjacency probe
(``Graph.has_edges``) over all consecutive pairs, the closing pair
included - and shares no code with any solver, so it can serve as an
independent certificate validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, SelfLoop


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph; no loops, no parallel edges.

    ``indptr`` has length ``n + 1``; ``indices[indptr[v]:indptr[v+1]]`` is
    the sorted neighbor row of ``v``.  Instances are immutable after
    construction and safe to share across threads.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    _nbr_sets: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return int(self.indices.shape[0] // 2)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_set(self, v: int) -> frozenset:
        # Memoized; a racing duplicate computation is benign.
        s = self._nbr_sets.get(v)
        if s is None:
            s = frozenset(int(u) for u in self.neighbors(v))
            self._nbr_sets[v] = s
        return s

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``has_edge(us[i], vs[i])`` for every i, as one boolean array.

        One binary search per query, all run together: ``pos`` counts up
        the row entries below v in power-of-two steps, largest first, so a
        row of degree d is done after ``d.bit_length()`` rounds of a few
        array ops each.  Vertices must lie in ``[0, n)``.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        pos = self.indptr[us]
        end = self.indptr[us + 1]
        last = end - 1
        rounds = int((end - pos).max(initial=0)).bit_length()
        for r in reversed(range(rounds)):
            step = 1 << r
            # A probe past the row reads its last entry instead; if that is
            # below v, so is the whole row, and pos moves past the row.  An
            # empty row reads some other entry ("clip" maps -1 to 0) and is
            # not found either way.
            probe = np.minimum(pos + (step - 1), last)
            np.add(pos, step, out=pos, where=self.indices.take(probe, mode="clip") < vs)
        found = pos < end
        found[found] = self.indices[pos[found]] == vs[found]
        return found

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as Python ints (u, v) with u < v, lexicographically."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = src < self.indices
        return zip(src[upper].tolist(), self.indices[upper].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class HamCycle:
    """A cyclic vertex ordering; the positive certificate."""

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class OrientedPath:
    """A directed traversal of a simple path (>= 1 distinct vertices)."""

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self) -> Iterator[int]:
        return iter(self.order)

    @property
    def head(self) -> int:
        return self.order[0]


def _as_edge_array(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    if isinstance(edges, np.ndarray):
        arr = edges.astype(np.int64, copy=False).reshape(-1, 2)
    else:
        arr = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
    if arr.size:
        # One pass: read as uint64, a negative id is above any n too.
        if int(arr.view(np.uint64).max()) >= n:
            bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)][0]
            raise IndexOutOfRange(f"edge {tuple(int(x) for x in bad)} outside [0, {n})")
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            v = int(arr[loops][0, 0])
            raise SelfLoop(f"self-loop at vertex {v}")
    return arr


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from an edge list; duplicates are merged.

    Raises ``IndexOutOfRange`` or ``SelfLoop`` on bad input, and
    ``IndexOutOfRange`` for n above 2^31 - 1, beyond the int32 ``indices``.
    """
    if n < 0:
        raise IndexOutOfRange("vertex count must be nonnegative")
    if n > np.iinfo(np.int32).max:
        raise IndexOutOfRange(f"vertex count {n} above 2^31 - 1, the int32 id limit")
    arr = _as_edge_array(n, edges)
    m = arr.shape[0]
    if m == 0:
        return Graph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32))
    # Each edge as the keys u*n + v and v*n + u, side by side, in place.
    pairs = arr * n
    pairs[:, 0] += arr[:, 1]
    pairs[:, 1] += arr[:, 0]
    keys = pairs.ravel()
    # Sort plus an adjacent-difference mask gives the same sorted distinct
    # keys as np.unique, which is far slower on numpy 2.4.6: 0.35 s against
    # 9 ms for the 490k keys of a 245k-edge ladder, on a 2-core VM.
    keys.sort()
    fresh = np.empty(2 * m, dtype=bool)
    fresh[0] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    distinct = keys[fresh]
    # Row v starts at the first key >= v*n, found by one binary search per
    # row; its columns are key - v*n, one multiply in place of an int64
    # modulo per entry (``keys`` is spare by now).
    indptr = np.searchsorted(distinct, np.arange(n + 1, dtype=np.int64) * n)
    row_base = np.floor_divide(distinct, n, out=keys[:distinct.size])
    row_base *= n
    distinct -= row_base
    return Graph(n, indptr, distinct.astype(np.int32))


def graph_from_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> Graph:
    """Trusted fast constructor for generators; rows must be sorted."""
    return Graph(n, np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int32))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``keep``; returns (subgraph, new->old index map)."""
    old = sorted(set(int(v) for v in keep))
    if old and (old[0] < 0 or old[-1] >= g.n):
        raise IndexOutOfRange(f"vertex {old[0] if old[0] < 0 else old[-1]} outside [0, {g.n})")
    new_of_old = {v: i for i, v in enumerate(old)}
    mask = np.zeros(g.n, dtype=bool)
    mask[old] = True
    indptr = np.zeros(len(old) + 1, dtype=np.int64)
    rows = []
    for i, v in enumerate(old):
        row = g.neighbors(v)
        sub = row[mask[row]]
        rows.append(sub)
        indptr[i + 1] = indptr[i] + sub.shape[0]
    if rows:
        relabel = np.zeros(g.n, dtype=np.int32)
        relabel[old] = np.arange(len(old), dtype=np.int32)
        indices = relabel[np.concatenate(rows)] if indptr[-1] else np.empty(0, dtype=np.int32)
    else:
        indices = np.empty(0, dtype=np.int32)
    sub = Graph(len(old), indptr, indices.astype(np.int32))
    return sub, tuple(old)


def validate_ham_cycle(g: Graph, cycle: "HamCycle | Sequence[int]") -> bool:
    """Independent certificate check: permutation of V, consecutive edges.

    Returns False on malformed input instead of raising.
    """
    order = cycle.order if isinstance(cycle, HamCycle) else tuple(cycle)
    n = g.n
    if len(order) != n or n < 3:
        return False
    seen = set()
    for v in order:
        if not isinstance(v, (int, np.integer)) or v < 0 or v >= n or v in seen:
            return False
        seen.add(v)
    ring = np.asarray(order + order[:1], dtype=np.int64)
    return bool(g.has_edges(ring[:-1], ring[1:]).all())
