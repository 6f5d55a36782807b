"""Immutable simple undirected graphs and certificate checkers.

Vertices are dense integers ``0..n-1``.  Adjacency is stored in CSR form
(numpy ``indptr``/``indices``), rows sorted, which makes every "pick an
arbitrary vertex" step in the algorithms deterministic (smallest index
wins).

A graph may also carry an implicit clique block K (``block``, a sorted
vertex array, with the membership mask ``in_block``): every pair inside K
is an edge, and the CSR rows store only the pairs with an endpoint outside
K.  The invariant is that no stored row holds a K-K pair, so a K vertex's
stored row is not its neighbourhood and no module outside this one reads
``indptr``/``indices``.  The accessors answer for the whole graph with
one formula each, which an empty K (the default, and every graph
``graph_from_edges`` builds) also satisfies: a degree is the row length
plus |K| - 1 on K, ``m`` adds C(|K|, 2), and a pair inside K is an edge.
``neighbors(v)`` of a K vertex merges K - {v} into its row, so it costs
O(|K| + d) rather than a slice; ``stored_row(v)`` is the row alone, and
``neighbor_lists`` reads many neighbourhoods as Python lists, slicing
rows through memoryviews.  The clique side of a split graph then
costs O(|K|) memory instead of |K|^2 row entries.  Two builders make
blocks: ``graph_from_split``, given K, and ``_graph_from_lines``, which
``io.parse_graph`` uses and which finds K in the edge lines of a file.

The cycle checker ``validate_ham_cycle`` is deliberately primitive - a
length check, a permutation check and a successor match: the order
becomes a successor array, every stored entry is compared with its row's
successor, and the cycle is valid when the matches plus the successor
pairs inside the block number n, the closing pair included.  That is a
fixed number of array passes, O(n + stored entries), and it shares no
code with any solver, so it can serve as an independent certificate
validator.  ``split-hc verify`` prints the first defect those checks find
(``_cycle_defect``); only a failed match probes the pairs one by one
(``Graph.has_edges``) to name it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, SelfLoop


_NO_BLOCK = np.empty(0, dtype=np.int32)
_NO_BLOCK.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph; no loops, no parallel edges.

    ``indptr`` has length ``n + 1``; ``indices[indptr[v]:indptr[v+1]]`` is
    the sorted stored row of ``v``: its neighbors outside ``block`` for a
    vertex of the block, all its neighbors otherwise.  Instances are
    immutable after construction and safe to share across threads.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    block: np.ndarray = field(default_factory=lambda: _NO_BLOCK)
    in_block: np.ndarray = field(init=False, repr=False)
    _degrees: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mask = np.zeros(self.n, dtype=bool)
        deg = self.indptr[1:] - self.indptr[:-1]
        if self.block.shape[0]:  # skipped by the many small explicit graphs
            mask[self.block] = True
            deg[self.block] += self.block.shape[0] - 1
        object.__setattr__(self, "in_block", mask)
        deg.flags.writeable = False
        object.__setattr__(self, "_degrees", deg)

    @property
    def m(self) -> int:
        k = self.block.shape[0]
        return int(self.indices.shape[0] // 2) + k * (k - 1) // 2

    def stored_row(self, v: int) -> np.ndarray:
        """The sorted stored row of ``v``, a view, O(1): ``neighbors(v)``
        for a vertex outside the block, and for a block vertex only its
        neighbors outside the block."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        """Every vertex's degree, as one read-only array."""
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbors of ``v``: a view of its row, or for a block
        vertex a new array merging K - {v} into the row, O(|K| + d)."""
        row = self.indices[self.indptr[v]:self.indptr[v + 1]]
        if not self.in_block[v]:
            return row
        others = self.block[self.block != v]
        return np.insert(others, np.searchsorted(others, row), row)

    def neighbor_rows(self, vs: Sequence[int] | np.ndarray, d: int) -> np.ndarray:
        """``neighbors(v)`` of every v in ``vs``, each of degree ``d``, as the
        rows of one (len(vs), d) array: one gather for the vertices outside
        the block, a merge per block vertex."""
        vs = np.asarray(vs, dtype=np.int64)
        if np.count_nonzero(self._degrees[vs] != d):
            raise ValueError(f"neighbor_rows needs vertices of degree {d}")
        # A block vertex's stored row is short: its gathered row is clipped
        # garbage, replaced by the merge below.  (An empty ``indices``
        # cannot be gathered from; every row is then a block row.)
        idx = self.indptr[vs][:, None] + np.arange(d)
        rows = (self.indices.take(idx, mode="clip") if self.indices.shape[0]
                else np.empty(idx.shape, dtype=self.indices.dtype))
        if self.block.shape[0]:  # skipped by the many small explicit graphs
            for i in self.in_block[vs].nonzero()[0]:
                rows[i] = self.neighbors(vs[i])
        return rows

    def neighbor_lists(self, vs: Sequence[int]) -> list[list[int]]:
        """``neighbors(v).tolist()`` of every v in ``vs``: a stored row is
        sliced through memoryviews, a few C-level steps and no numpy call
        per vertex, and a block vertex gets the merge."""
        ptr, row = memoryview(self.indptr), memoryview(self.indices)
        rows = [row[ptr[v]:ptr[v + 1]].tolist() for v in vs]
        if self.block.shape[0]:  # skipped by the many small explicit graphs
            for i in self.in_block[vs].nonzero()[0].tolist():
                rows[i] = self.neighbors(vs[i]).tolist()
        return rows

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if self.in_block[u] and self.in_block[v]:
            return True
        row = self.stored_row(u)
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """``has_edge(us[i], vs[i])`` for every i, as one boolean array.

        A pair inside the block is an edge (u != v); any other pair is one
        binary search of the stored row of u, all run together: ``pos``
        counts up the row entries below v in power-of-two steps, largest
        first, so a row of length d is done after ``d.bit_length()`` rounds
        of a few array ops each.  Vertices must lie in ``[0, n)``.  Its
        callers are ``__eq__`` and the defect report of a cycle that failed
        validation (``_cycle_defect``).
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
        found |= self.in_block[us] & self.in_block[vs] & (us != vs)
        return found

    def degrees_into(self, mask: np.ndarray) -> np.ndarray:
        """For every vertex, how many of its neighbors lie where the boolean
        ``mask`` is set.  u has as many neighbors in the mask as there are
        stored rows of mask vertices that hold u, so only those rows are
        read: O(n) plus their stored entries; the block adds one count."""
        rows = mask.nonzero()[0]
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        # Entry j of the concatenated rows sits at j plus its row's shift.
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        shift += np.arange(shift.shape[0])
        deg = np.bincount(self.indices[shift], minlength=self.n)
        if self.block.shape[0]:  # skipped by the many small explicit graphs
            inner = mask[self.block]
            deg[self.block] += np.count_nonzero(inner) - inner
        return deg

    def induced_degrees(self, mask: np.ndarray) -> np.ndarray:
        """Degrees inside the subgraph induced by the vertices where the
        boolean ``mask`` is set, for those vertices in increasing order."""
        return self.degrees_into(mask)[mask]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as Python ints (u, v) with u < v, lexicographically."""
        return chain.from_iterable(self._edge_runs())

    def _edge_runs(self) -> Iterator[Iterator[tuple[int, int]]]:
        """``edges()`` in runs: the upper stored entries in row order, with
        the row of each block vertex u read from ``neighbors(u)`` instead,
        so that K - {u} is merged in."""
        src = np.repeat(np.arange(self.n), self.indptr[1:] - self.indptr[:-1])
        upper = src < self.indices
        su, sv = src[upper], self.indices[upper]
        del src, upper  # the generator's frame outlives its first run
        starts = np.searchsorted(su, self.block).tolist()
        stops = np.searchsorted(su, self.block, side="right").tolist()
        done = 0
        for u, start, stop in zip(self.block.tolist(), starts, stops):
            yield zip(su[done:start].tolist(), sv[done:start].tolist())
            row = self.neighbors(u)
            yield zip(repeat(u), row[row > u].tolist())
            done = stop
        last = zip(su[done:].tolist(), sv[done:].tolist())
        del su, sv
        yield last

    def __eq__(self, other: object) -> bool:
        """Equal edge sets on the same vertices, however each is stored."""
        if not isinstance(other, Graph):
            return NotImplemented
        # With equal counts, E(self) inside E(other) suffices: the block is
        # a clique of other, and every stored pair is an edge of other.
        # Rows are symmetric, so each stored edge is probed once, as u < v.
        if not (self.n == other.n and self.m == other.m
                and bool((other.induced_degrees(self.in_block) == self.block.shape[0] - 1).all())):
            return False
        src = np.repeat(np.arange(self.n), self.indptr[1:] - self.indptr[:-1])
        upper = src < self.indices
        us = src[upper]
        del src
        return bool(other.has_edges(us, self.indices[upper]).all())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class HamCycle:
    """A cyclic vertex ordering; the positive certificate."""

    order: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.order)


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


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise IndexOutOfRange("vertex count must be nonnegative")
    if n > np.iinfo(np.int32).max:
        raise IndexOutOfRange(f"vertex count {n} above 2^31 - 1, the int32 id limit")


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from an edge list; duplicates are merged.

    Raises ``IndexOutOfRange`` or ``SelfLoop`` on bad input, and
    ``IndexOutOfRange`` for n above 2^31 - 1, beyond the int32 ``indices``.
    """
    _check_vertex_count(n)
    return _from_edge_array(n, _as_edge_array(n, edges))


def graph_from_split(n: int, clique: Iterable[int] | np.ndarray,
                     edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """A graph whose vertices ``clique`` form the implicit block K, plus
    ``edges``; pairs inside K are dropped like duplicates, so memory is
    O(n + edges with an end outside K).  Raises as ``graph_from_edges``."""
    _check_vertex_count(n)
    arr = _as_edge_array(n, edges)
    # Sorted and distinct by a sort plus an adjacent-difference mask, which
    # is far faster than np.unique on numpy 2.4.6 (see ``_from_edge_array``):
    # 0.05 against 0.74 ms on 6,000 ids, on a 2-core VM.
    block = np.sort(clique if isinstance(clique, np.ndarray)
                    else np.fromiter(clique, dtype=np.int64), axis=None)
    fresh = np.ones(block.shape[0], dtype=bool)
    np.not_equal(block[1:], block[:-1], out=fresh[1:])
    block = block[fresh]
    if block.size and (block[0] < 0 or block[-1] >= n):
        raise IndexOutOfRange(f"clique vertex {block[0] if block[0] < 0 else block[-1]} "
                              f"outside [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[block] = True
    arr = arr[~(mask[arr[:, 0]] & mask[arr[:, 1]])]
    return _from_edge_array(n, arr, block.astype(np.int32))


# Every thread keeps the large buffers of its file ingest (``io.read_graph``,
# ``io._parse_canonical``, ``_graph_from_lines``) in its own scratch, so
# the next file reuses pages that are already mapped instead of faulting
# in fresh ones (a 2 MB ladder file took about 2,700 faults, 3 us each on
# a 2-core VM).  A buffer only grows, and a thread keeps at most this many
# bytes of them; a larger ingest gets fresh arrays for what does not fit,
# freed as usual.
_SCRATCH_CAP = 64 << 20
# Lines per step of ``_graph_from_lines``' clique search, so that one
# step's positions and cells (1 MiB of intp) stay in a core's cache.
_LINE_STEP = 1 << 15


class _Scratch(threading.local):
    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}  # role -> uint8 buffer


_scratch = _Scratch()


def _scratch_array(role: str, count: int, dtype: np.dtype | type) -> np.ndarray:
    """``count`` uninitialized items of ``dtype`` in this thread's buffer
    for ``role``.  The array is overwritten by the next call for ``role``
    on the same thread, so nothing returned to a caller may alias it."""
    nbytes = count * np.dtype(dtype).itemsize
    buffers = _scratch.buffers
    buf = buffers.get(role)
    if buf is None or buf.shape[0] < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        if nbytes + sum(b.shape[0] for r, b in buffers.items() if r != role) <= _SCRATCH_CAP:
            buffers[role] = buf
    return buf[:nbytes].view(dtype)


def _graph_from_lines(n: int, edges: Sequence[tuple[int, int]] | np.ndarray) -> Graph:
    """The graph of a file's edge lines, whose ids the parser has checked
    (in ``[0, n)``, no self-loop); duplicates are merged.

    The clique block is found here, where the lines come in, so its pairs
    are never sorted.  The candidate K is the Hammer-Simeone prefix of the
    raw line degrees: the top k by (degree desc, id asc), with
    k = max{i : d_i >= i - 1}, which is a clique in a split graph.  K
    becomes the block when every pair of it occurs among the lines, as
    marked in a table of (k + 1)^2 bools; a count of the lines would be
    fooled by duplicates.  The table is made only when C(k, 2) is at most
    the number of lines m, so it holds about 2 bytes per line.  Otherwise,
    and when a pair is missing, the graph is explicit, as
    ``graph_from_edges`` builds it.  O(n + m) on top of the build, plus a
    sort of the vertices of degree >= k - 1.

    The temporaries (one step's positions and cells, the table, the mask
    of the lines kept for the rows and those lines) live in this thread's
    ingest scratch (``_scratch_array``); the graph owns all its arrays.
    """
    _check_vertex_count(n)
    arr = (edges if isinstance(edges, np.ndarray)
           else np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2))
    m = arr.shape[0]
    deg = np.bincount(arr.ravel(), minlength=n)
    # at_least[d] counts the vertices of degree >= d, so the i-th largest
    # degree is >= i - 1 exactly when at_least[i - 1] >= i.
    at_least = np.cumsum(np.bincount(deg)[::-1])[::-1]
    k = int(np.count_nonzero(at_least > np.arange(at_least.shape[0])))
    if k < 2 or k * (k - 1) // 2 > m:
        return _from_edge_array(n, arr)
    # The top k by (degree desc, id asc); all have degree >= k - 1.
    cand = np.flatnonzero(deg >= k - 1)
    top = cand[np.argsort(-deg[cand], kind="stable")[:k]]
    # Line (u, v) goes to cell (min, max) of a (k + 1) x (k + 1) table,
    # where a vertex outside K is position k: the lines inside K fill the
    # upper triangle of the k x k corner exactly when K is a clique.  Ids,
    # positions and cells are intp, so no gather or scatter copies its
    # index array.  The lines go _LINE_STEP at a time, and the rows store
    # those with an end outside K (``outer``).
    pos = np.full(n, k, dtype=np.intp)
    pos[top] = np.arange(k)
    seen = _scratch_array("seen", (k + 1) ** 2, np.bool_)
    seen.fill(False)
    outer = _scratch_array("outer", m, np.bool_)
    step = min(m, _LINE_STEP)
    ends = _scratch_array("ends", 2 * step, np.intp).reshape(step, 2)
    cells = _scratch_array("cells", 2 * step, np.intp)
    for s in range(0, m, step):
        part = arr[s:s + step]
        j = part.shape[0]
        # The ids were checked, so "clip" never clips; "raise" would copy ``out``.
        pos.take(part, out=ends[:j], mode="clip")
        lo, hi = cells[:j], cells[step:step + j]
        np.minimum(ends[:j, 0], ends[:j, 1], out=lo)
        np.maximum(ends[:j, 0], ends[:j, 1], out=hi)
        lo *= k + 1
        lo += hi
        seen[lo] = True
        np.equal(hi, k, out=outer[s:s + j])
    if np.count_nonzero(seen.reshape(k + 1, k + 1)[:k, :k]) != k * (k - 1) // 2:
        return _from_edge_array(n, arr)
    kept = np.compress(outer, arr, axis=0,
                       out=_scratch_array("kept", 2 * np.count_nonzero(outer),
                                          arr.dtype).reshape(-1, 2))
    return _from_edge_array(n, kept, np.sort(top).astype(np.int32))


def _from_edge_array(n: int, arr: np.ndarray, block: np.ndarray = _NO_BLOCK) -> Graph:
    m = arr.shape[0]
    if m == 0:
        return Graph(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32), block)
    # Each edge as the keys u << 32 | v and v << 32 | u, side by side, in
    # place (int64 also where the ids are int32).  A key sorts as its pair
    # (u, v); ids are below 2^31, so its row is key >> 32 and its column
    # its low 31 bits.
    pairs = np.left_shift(arr, 32, dtype=np.int64)
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
    # The row starts count the rows, O(n + m) (``keys`` is spare by now).
    rows = np.right_shift(distinct, 32, out=keys[:distinct.size])
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    np.bitwise_and(distinct, 0x7FFFFFFF, out=distinct)
    return Graph(n, indptr, distinct.astype(np.int32), block)


def validate_ham_cycle(g: Graph, cycle: "HamCycle | Sequence[int]") -> bool:
    """Independent certificate check: permutation of V, consecutive edges.

    Returns False on malformed input instead of raising.
    """
    order = cycle.order if isinstance(cycle, HamCycle) else tuple(cycle)
    return _cycle_defect(g, order) is None


def _cycle_defect(g: Graph, order: Sequence[int]) -> str | None:
    """The first defect of ``order`` as a Hamiltonian cycle of ``g``, or None.

    In turn: fewer than 3 vertices in ``g``; ``order`` not a permutation of
    V (bool, float and str entries are not vertex ids, and an entry beyond
    int64 is out of range); a consecutive pair, the closing pair included,
    that is not an edge.

    The order is read once into an array and turned into successors,
    ``succ[order[i]] = order[i + 1]``; a vertex left without one is missing,
    so with n entries the order repeats another.  Rows hold no repeats, so
    the stored rows hold a cycle pair (v, succ[v]) at most once each, and
    one compare of every stored entry with its row's successor counts them;
    the pairs inside the block are never stored and are counted off its
    mask.  The cycle is valid exactly when the count is n.  That is a fixed
    number of array passes, O(n + stored entries): a ladder with its clique
    as the block costs O(n + e(K, I)), an explicit dense graph O(m), which
    its build has paid as O(m log m).  Only a short count probes the pairs
    with ``Graph.has_edges``, to name the first bad one in cycle order.
    """
    n = g.n
    if n < 3:
        return "a cycle needs at least 3 vertices"
    if (len(order) != n
            or not all(issubclass(t, (int, np.integer)) and t is not bool
                       for t in set(map(type, order)))):
        return "not a permutation of the vertex set"
    try:
        ring = np.fromiter(order, np.int64, n)
    except OverflowError:
        return "not a permutation of the vertex set"
    # One pass: read as uint64, a negative id is above any n too.
    if int(ring.view(np.uint64).max()) >= n:
        return "not a permutation of the vertex set"
    succ = np.full(n, -1, dtype=g.indices.dtype)
    succ[ring[:-1]] = ring[1:]
    succ[ring[-1]] = ring[0]
    if succ.min() < 0:
        return "not a permutation of the vertex set"
    held = np.count_nonzero(g.indices == np.repeat(succ, g.indptr[1:] - g.indptr[:-1]))
    if g.block.shape[0]:  # skipped by the many small explicit graphs
        held += np.count_nonzero(g.in_block & g.in_block[succ])
    if held == n:
        return None
    bad = np.flatnonzero(~g.has_edges(ring, succ[ring]))
    u = int(ring[bad[0]])
    return f"{u} {int(succ[u])} is not an edge"
