"""Workload corpora and the operation each one times.

Every corpus is built from the run seed alone.  An ``Item`` carries the
benchmark's own model of each graph the operation certifies, a function
that makes a never-touched input (``Graph`` memoizes neighbor sets, so a
reused graph would make later passes faster than any first solve), and
the timed operation, which returns ``(model key, certificate string)``
pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from splithc import generators, reduction, solver
from splithc import io as gio
from splithc.errors import NotSplitGraph
from splithc.generators import GenSpec
from splithc.graph import graph_from_edges
from splithc.oracle import OracleBudget

from check import Model

# Deterministic (node-only) budget: the same corpus gets the same verdicts
# on any machine.  The seed commit never comes near it.
BUDGET = OracleBudget(nodes=5_000_000, seconds=600.0)

_fresh_ladder = generators.big_delta2_instance  # untraced: input building is not timed


@dataclass
class Item:
    label: str
    fresh: Callable[[], object]
    op: Callable[[object], list[tuple[str, str]]]
    models: dict[str, Model]
    # small-mix only: keys whose verdicts the oracle cross-checks, and the
    # bipartite source whose verdict must equal both images'.
    oracle_keys: tuple[str, ...] = ()
    source_key: str | None = None


def _cert(outcome) -> str:
    if isinstance(outcome, NotSplitGraph):
        return f"not-split {outcome.kind} " + ",".join(map(str, outcome.vertices))
    return gio.certificate_string(outcome)


def _solve(g):
    try:
        return solver.solve(g, oracle_budget=BUDGET)
    except NotSplitGraph as exc:
        return exc


def solve_op(g) -> list[tuple[str, str]]:
    return [("g", _cert(_solve(g)))]


def file_op(path: Path) -> list[tuple[str, str]]:
    g, _ = gio.read_graph(path)
    return [("g", gio.certificate_string(solver.solve(g, oracle_budget=BUDGET)))]


def bipartite_op(b) -> list[tuple[str, str]]:
    red = reduction.reduce_to_split(b)
    o1, o2 = _solve(red.h1), _solve(red.h2)
    out = [("h1", _cert(o1)), ("h2", _cert(o2))]
    if getattr(o1, "has_cycle", False) and getattr(o2, "has_cycle", False):
        c = reduction.map_solution_back(b, o1.cycle, o2.cycle)
        out.append(("src", "cycle " + ",".join(map(str, c.order))))
    return out


# ---------------------------------------------------------------------------
# Ladders: big_delta2_instance(k, i, extra).  Independent vertex j < i-extra
# sits between clique vertices j and j+1; the last ``extra`` get a third
# neighbor and go through the V2/V1/V0 insertion rules.

def ladder_model(g, k: int) -> Model:
    """Model of a ladder: K = 0..k-1, sparse side read row by row.

    The edge count proves the clique: the rows touch K only, so the
    remaining C(k, 2) edges can only be the K-K pairs."""
    rows = [(u, int(w)) for u in range(k, g.n) for w in g.neighbors(u)]
    if any(w >= k for _, w in rows) or g.m != k * (k - 1) // 2 + len(rows):
        raise RuntimeError(f"ladder on k={k} is not a clique plus a sparse side")
    return Model(g.n, range(k), rows)


# Wide-clique (recognition-bound), mixed, and insertion-heavy (assembly-bound)
# shapes of roughly equal cost, so the median operation is the middle shape.
LADDER_MEM_SHAPES = [(6000, 2000, 0), (4000, 1500, 500), (2500, 1000, 700)]
# Files of about 0.25M edges: parsing dominates each operation.
LADDER_FILE_SHAPES = [(700, 250, 80), (650, 300, 120), (750, 200, 40)]


def _jitter(rng: random.Random, k: int, i: int, extra: int) -> tuple[int, int, int]:
    """Shrink a shape by up to 1%, keeping the ladder's width condition."""
    k -= rng.randrange(k // 100 + 1)
    extra -= rng.randrange(extra // 100 + 1)
    i = min(i, k - 1 - 2 * extra)
    return k, i, extra


def setup_ladder_mem(seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(f"ladder-mem:{seed}")
    items = []
    for shape in rng.sample(LADDER_MEM_SHAPES, len(LADDER_MEM_SHAPES)):
        k, i, extra = _jitter(rng, *shape)
        model = ladder_model(generators.big_delta2_instance(k, i, extra), k)
        items.append(Item(f"ladder k={k} i={i} extra={extra}",
                          lambda a=(k, i, extra): _fresh_ladder(*a), solve_op, {"g": model}))
    return items


def setup_ladder_file(seed: int, workdir: Path) -> list[Item]:
    """Write each ladder as a v1 file under a seeded vertex relabeling."""
    rng = random.Random(f"ladder-file:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for j, shape in enumerate(rng.sample(LADDER_FILE_SHAPES, len(LADDER_FILE_SHAPES))):
        k, i, extra = _jitter(rng, *shape)
        base = ladder_model(generators.big_delta2_instance(k, i, extra), k)
        perm = np.array(rng.sample(range(base.n), base.n), dtype=np.int64)
        rows = [(int(perm[u]), int(perm[w])) for u in range(k, base.n) for w in base.adj[u]]
        model = Model(base.n, perm[:k].tolist(), rows)
        iu, iv = np.triu_indices(k, 1)
        edges = np.concatenate([np.stack([perm[iu], perm[iv]], axis=1),
                                np.array(rows, dtype=np.int64).reshape(-1, 2)])
        path = workdir / f"ladder-{j}.graph"
        gio.write_graph(path, graph_from_edges(base.n, edges))
        items.append(Item(f"file k={k} i={i} extra={extra} ({path.stat().st_size} B)",
                          lambda p=path: p, file_op, {"g": model}))
    return items


# ---------------------------------------------------------------------------
# small-mix: every generator family, sized so that the oracle, the delta-3
# engine and the non-split witness search each carry real work.

SMALL_MIX = [  # family, params, instances per corpus
    ("SplitDelta2", {"k": 12, "i": 8}, 10),
    ("SplitDelta2", {"k": 16, "i": 12, "p3": 0.5}, 8),
    ("ClawFreeSplit", {"k": 8, "i": 2}, 4),
    ("ClawFreeSplit", {"k": 9, "i": 3}, 4),
    ("ClawFreeSplit", {"k": 12, "i": 5}, 4),
    ("SplitK14Free", {"k": 9, "i": 6}, 12),
    ("SplitDelta3InPremise", {"k": 10, "i": 8}, 6),
    ("SplitDelta3InPremise", {"k": 11, "i": 9}, 2),
    ("SplitRandom", {"k": 7, "i": 5}, 24),
    ("PlantedHC", {"n": 12}, 24),
    ("BipartiteDeg3", {"na": 8, "nb": 8, "plant": 1}, 8),
    ("BipartiteDeg3", {"na": 8, "nb": 8}, 4),
]
# Family seeds are 1..count for every row, the same for every run seed:
# oracle and delta-3 costs are heavy-tailed per instance (one SplitK14Free
# k=9, i=6 draw took 2.8 s where most take 1 ms), so a corpus redrawn per
# run seed would swing throughput by more than any bound worth having.
# The run seed draws the non-split derivations and the order of the corpus.
# Seed 0 at k=12, i=10 falls through the delta-3 construction
# (CaseFallthrough:12) to the oracle.
FIXED = [("SplitDelta3InPremise", {"k": 12, "i": 10}, 0)]
# Non-split inputs derived from split graphs of this family.
NON_SPLIT_BASE = ("SplitDelta2", {"k": 18, "i": 14, "p3": 0.0})
NON_SPLIT_COUNT = 24


def split_partition(n: int, edges) -> tuple[int, ...] | None:
    """Hammer-Simeone degree test: the clique K of a split graph, or None."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    d = [deg[v] for v in order]
    m = max([r for r in range(1, n + 1) if d[r - 1] >= r - 1], default=0)
    if sum(d[:m]) != m * (m - 1) + sum(d[m:]):
        return None
    return tuple(order[:m])


def _non_split(rng: random.Random, n: int, edges: list[tuple[int, int]]):
    """Delete one clique edge ab and give a and b the same independent
    neighbors.  Two of those and a, b form an induced C4, and no induced
    2K2 exists, so the recognizer's pairwise 2K2 scan runs to the end."""
    clique = split_partition(n, edges)
    kset = set(clique)
    nbr_i = {v: {u for e in edges for u in e if v in e and u != v and u not in kset}
             for v in clique}
    pairs = [(a, b) for a in clique for b in clique
             if a < b and len(nbr_i[a] | nbr_i[b]) >= 2]
    a, b = rng.choice(pairs)
    shared = nbr_i[a] | nbr_i[b]
    out = {e for e in edges if e != (a, b)}
    out |= {(min(v, u), max(v, u)) for v in (a, b) for u in shared}
    out = sorted(out)
    if split_partition(n, out) is not None:
        raise RuntimeError("derived graph is still split")
    return out


def _edges_of(g) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u, v in g.edges()]


def _graph_item(label: str, n: int, edges: list[tuple[int, int]], oracle: bool) -> Item:
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return Item(label, lambda: graph_from_edges(n, arr), solve_op,
                {"g": Model(n, (), edges)}, oracle_keys=("g",) if oracle else ())


def _bipartite_item(label: str, inst) -> Item:
    n, edges = inst.graph.n, _edges_of(inst.graph)
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    pa, pb = inst.part_a, inst.part_b
    models = {"src": Model(n, (), edges),
              "h1": Model(n, pa, edges), "h2": Model(n, pb, edges)}
    fresh = lambda: reduction.BipartiteInstance(graph_from_edges(n, arr), pa, pb)  # noqa: E731
    return Item(label, fresh, bipartite_op, models, oracle_keys=("h1", "h2"), source_key="src")


def setup_small_mix(seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(f"small-mix:{seed}")
    specs = [GenSpec(fam, params, s) for fam, params, s in FIXED]
    specs += [GenSpec(fam, params, j + 1)
              for fam, params, count in SMALL_MIX for j in range(count)]
    items = []
    for spec in specs:
        inst = generators.generate(spec)
        label = f"{spec.family} {dict(spec.params)} seed={spec.seed}"
        if spec.family == "BipartiteDeg3":
            items.append(_bipartite_item(label, inst))
        else:
            items.append(_graph_item(label, inst.graph.n, _edges_of(inst.graph), True))
    fam, params = NON_SPLIT_BASE
    for j in range(NON_SPLIT_COUNT):
        spec = GenSpec(fam, params, j + 1)
        g = generators.generate(spec).graph
        edges = _non_split(rng, g.n, _edges_of(g))
        items.append(_graph_item(f"non-split from {fam} seed={spec.seed}", g.n, edges, False))
    rng.shuffle(items)
    return items


SETUPS = {
    "ladder-file": setup_ladder_file,
    "ladder-mem": setup_ladder_mem,
    "small-mix": setup_small_mix,
}
