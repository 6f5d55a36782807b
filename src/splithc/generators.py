"""Seeded instance generation for every premise family.

Determinism: every generator draws from ``random.Random(seed)`` (CPython's
Mersenne Twister, whose integer methods are stable across platforms and
versions for a fixed seed); no ambient randomness.  The same (spec, seed)
always yields the identical edge list.

Generators never self-certify: each family's contract is re-verified on
the emitted instance with the independent analyzers (split recognition,
star levels, 2-connectivity), and construction retries until the contract
holds or the attempt budget is exhausted.  The K_{1,4} repair of the
SplitK14Free and delta_i = 3 samplers keeps the instance's pairs in one
set: each round adds or discards one pair and rebuilds the graph from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import GenerationExhausted, InvalidParameter
from .graph import Graph, graph_from_edges, graph_from_split
from .split import NotSplit, recognize_split, split_is_two_connected, star_free_level

__all__ = ["GenSpec", "GeneratedInstance", "generate", "big_delta2_instance", "FAMILIES"]

_MAX_ATTEMPTS = 2000


@dataclass(frozen=True)
class GenSpec:
    """Family name, size/density parameters, and the seed."""

    family: str
    params: Mapping[str, float]
    seed: int

    def param(self, key: str, default: float | None = None) -> float:
        if key in self.params:
            return self.params[key]
        if default is None:
            raise InvalidParameter(f"{self.family} requires parameter {key}")
        return default


@dataclass(frozen=True)
class GeneratedInstance:
    graph: Graph
    family: str
    seed: int
    attempts: int = 1
    # Bipartite families record their sides; split families leave these
    # empty (analysis recomputes the canonical partition).
    part_a: tuple[int, ...] = ()
    part_b: tuple[int, ...] = ()


def generate(spec: GenSpec) -> GeneratedInstance:
    """Produce an instance satisfying the family contract, or raise
    ``GenerationExhausted``; an unknown family or parameter raises
    ``InvalidParameter``."""
    try:
        builder, takes = _FAMILIES[spec.family]
    except KeyError:
        raise InvalidParameter(f"unknown family {spec.family} "
                               f"(known: {', '.join(FAMILIES)})") from None
    unknown = sorted(set(spec.params) - set(takes))
    if unknown:
        raise InvalidParameter(f"{spec.family} takes no parameter {', '.join(unknown)} "
                               f"(it takes {', '.join(takes)})")
    rng = random.Random(spec.seed)
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        result = builder(spec, rng)
        if result is not None:
            g, pa, pb = result
            return GeneratedInstance(g, spec.family, spec.seed, attempt, pa, pb)
    raise GenerationExhausted(_MAX_ATTEMPTS, spec.family)


def _split_edges(k: int) -> list[tuple[int, int]]:
    return list(combinations(range(k), 2))


def _build_split_random(spec: GenSpec, rng: random.Random):
    k = int(spec.param("k"))
    i = int(spec.param("i"))
    p = spec.param("p", 0.5)
    edges = _split_edges(k)
    for u in range(k, k + i):
        for w in range(k):
            if rng.random() < p:
                edges.append((u, w))
    return graph_from_edges(k + i, edges), (), ()


def _capacity_attach(rng: random.Random, k: int, i: int, caps: list[int],
                     degree_of: list[int], start: int = 0) -> list[tuple[int, int]] | None:
    """Attach independent vertices ``start..i-1`` to ``degree_of[j-start]``
    clique vertices with remaining capacity; None when capacity runs dry.

    Neighbors are drawn without replacement, weighted by remaining
    capacity: this keeps the eligible pool wide near exhaustion without
    making overlaps between independent vertices artificially rare.
    """
    edges: list[tuple[int, int]] = []
    for j in range(start, i):
        pool = [w for w in range(k) if caps[w] > 0]
        d = degree_of[j - start]
        if len(pool) < d:
            return None
        for _ in range(d):
            total = sum(caps[w] for w in pool)
            pick = rng.random() * total
            acc = 0.0
            chosen = pool[-1]
            for w in pool:
                acc += caps[w]
                if pick < acc:
                    chosen = w
                    break
            pool.remove(chosen)
            caps[chosen] -= 1
            edges.append((k + j, chosen))
    return edges


def _verified_split(g: Graph, *, want_delta: int | None = None,
                    want_k14_free: bool = False, want_claw_free: bool = False,
                    want_two_connected: bool = False,
                    min_i: int = 0, k_at_least_i: bool = False):
    p = recognize_split(g)
    if isinstance(p, NotSplit):
        return None
    if want_delta is not None and p.delta_i != want_delta:
        return None
    if min_i and len(p.independent) < min_i:
        return None
    if k_at_least_i and len(p.clique) < len(p.independent):
        return None
    if want_two_connected and split_is_two_connected(g, p) is not True:
        return None
    if want_k14_free or want_claw_free:
        stars = star_free_level(g, p)
        if want_k14_free and not stars.k14_free:
            return None
        if want_claw_free and not stars.claw_free:
            return None
    return g, (), ()


def _build_split_delta2(spec: GenSpec, rng: random.Random):
    k = int(spec.param("k"))
    i = int(spec.param("i"))
    p3 = spec.param("p3", 0.3)
    if i > k or k < 3:
        return None
    caps = [2] * k
    degs = [2 + (rng.random() < p3) for _ in range(i)]
    edges = _capacity_attach(rng, k, i, caps, degs)
    if edges is None:
        return None
    g = graph_from_edges(k + i, _split_edges(k) + edges)
    # K_{1,4}-freeness and 2-connectivity hold by construction; delta = 2
    # exactly is re-verified on the canonical partition.
    return _verified_split(g, want_delta=2, want_k14_free=True, want_two_connected=True)


def _build_split_k14_free(spec: GenSpec, rng: random.Random):
    k = int(spec.param("k"))
    i = int(spec.param("i"))
    p3 = spec.param("p3", 0.4)
    caps = [3 if rng.random() < p3 else 2 for _ in range(k)]
    degs = [2 + (rng.random() < 0.5) for _ in range(i)]
    edges = _capacity_attach(rng, k, i, caps, degs)
    if edges is None:
        return None
    g = _repair_k14(k + i, _split_edges(k) + edges)
    return _verified_split(g, want_k14_free=True)


def _repair_k14(n: int, edges: list[tuple[int, int]]) -> Graph:
    """Greedy repair: connect the spare clique arm of each induced K_{1,4}
    witness to one of its independent arms (at most 4n rounds).

    Declines repairs that would create a new degree-3-plus clique center
    or push an independent vertex toward adjacency with the whole clique;
    irreparable graphs are returned as-is and rejected by the contract
    check downstream.  The set ``pairs`` holds each edge as (u, v) with
    u < v.
    """
    pairs = {(u, v) if u < v else (v, u) for u, v in edges}
    g = graph_from_edges(n, pairs)
    for _ in range(4 * n):
        p = recognize_split(g)
        if isinstance(p, NotSplit):
            return g
        stars = star_free_level(g, p)
        if stars.k14_free:
            return g
        center, arms = stars.witness4
        k_arms = [a for a in arms if p.in_clique[a]]
        i_arms = [a for a in arms if not p.in_clique[a]]
        if not i_arms:
            return g
        if k_arms:
            a, b = min(k_arms), min(i_arms)
            pairs.add((min(a, b), max(a, b)))
            g = graph_from_edges(n, pairs)
            continue
        # Four independent arms (the additive walk overshot a center to
        # d_i = 4): drop one attachment, keeping independent degrees >= 2.
        drop = min((a for a in i_arms if g.degree(a) >= 3),
                   key=lambda a: (-g.degree(a), a), default=None)
        if drop is None:
            return g
        pairs.discard((min(center, drop), max(center, drop)))
        g = graph_from_edges(n, pairs)
    return g


def _build_split_delta3(spec: GenSpec, rng: random.Random):
    """Constructive sampler for the delta_i = 3 premise family.

    One clique vertex is pinned at three independent neighbors whose
    joint neighborhood is forced to dominate the clique (the pattern
    K_{1,4}-freeness makes mandatory).  Remaining capacity (how many of
    the other clique vertices may see a third independent vertex, and how
    many independent vertices get degree 3) is planned adaptively so the
    attachment demand always fits; the star-repair pass then fixes
    residual induced K_{1,4}s before the final contract check.
    """
    k = int(spec.param("k"))
    i = int(spec.param("i"))
    if not (k >= i >= 8):
        return None
    if spec.param("plant_short", 0) and rng.random() < 0.5 and k >= 2 * i - 7:
        g = _planted_short_cycle_delta3(rng, k, i)
    else:
        g = _regular_delta3(rng, k, i)
    if g is None:
        return None
    return _verified_split(g, want_delta=3, want_k14_free=True,
                           want_two_connected=True, min_i=8, k_at_least_i=True)


def _regular_delta3(rng: random.Random, k: int, i: int) -> Graph | None:
    edges = _split_edges(k)
    u1, u2, u3 = k, k + 1, k + 2
    for u in (u1, u2, u3):
        edges.append((u, 0))
    caps = [2] * k
    caps[0] = 0  # vertex 0 is the pinned center, exactly the triple
    # Capacity plan: domination costs k-1, attachment at least 2(i-3).
    need = (k - 1) + 2 * (i - 3)
    base = 2 * (k - 1)
    deficit = max(0, need - base)
    headroom = max(1, (k - 1) // 4)
    n_cap3 = min(k - 1, deficit + rng.randrange(0, headroom + 1))
    for w in rng.sample(range(1, k), n_cap3):
        caps[w] = 3
    # Dominate the clique with the pinned triple.
    for w in range(1, k):
        u = rng.choice((u1, u2, u3))
        edges.append((u, w))
        caps[w] -= 1
    spare = sum(caps) - 2 * (i - 3)
    degs = [2] * (i - 3)
    for j in range(i - 3):
        if spare <= 0:
            break
        if rng.random() < 0.5:
            degs[j] = 3
            spare -= 1
    tail = _capacity_attach(rng, k, i, caps, degs, start=3)
    if tail is None:
        return None
    return _repair_k14(k + i, edges + tail)


def _planted_short_cycle_delta3(rng: random.Random, k: int, i: int) -> Graph | None:
    """In-premise instance with a planted short cycle.

    A 4-cycle of degree-2 independent twins on a clique pair forces the
    pair's third independent neighbors to cover nearly the whole clique,
    so the construction pins two near-universal triple members u1, u2
    (u1 misses one pair vertex, u2 the other).  Every possible star
    center is then dominated by design and the twins survive untouched.
    The caller has checked that k >= 2i - 7.
    """
    u1, u2, u3 = k, k + 1, k + 2
    t1, t2 = k + 3, k + 4
    w1, w2 = sorted(rng.sample(range(1, k), 2))
    edges = _split_edges(k)
    edges += [(u1, w) for w in range(k) if w != w1]
    edges += [(u2, w) for w in range(k) if w != w2]
    edges += [(u3, 0)]
    edges += [(t1, w1), (t1, w2), (t2, w1), (t2, w2)]
    # Remaining capacity: apex and the pair are full; others host at most
    # one more independent neighbor (the two near-universals already
    # guarantee their star domination).
    caps = [1] * k
    caps[0] = caps[w1] = caps[w2] = 0
    hosts = [w for w in range(1, k) if caps[w] > 0]
    if not hosts:
        return None
    anchor = rng.choice(hosts)
    edges.append((u3, anchor))
    caps[anchor] = 0
    degs = [2] * (i - 5)
    tail = _capacity_attach(rng, k, i, caps, degs, start=5)
    if tail is None:
        return None
    return graph_from_edges(k + i, edges + tail)


def _build_claw_free(spec: GenSpec, rng: random.Random):
    """K_{1,3}-free split instances.

    For four or more independent vertices the only claw-free shape has
    disjoint clique-neighbor pairs.  For two or three, the structure is
    rigid: one clique vertex sees both s and t, every other clique vertex
    sees s or t (else it completes a claw), and a third independent
    vertex must be adjacent to exactly the union of the private sides.
    """
    k = int(spec.param("k"))
    i = int(spec.param("i"))
    if k < 3:
        return None
    if i >= 4:
        # delta_i <= 1 via disjoint neighbor pairs; claw-free automatically.
        if k < 2 * i:
            return None
        ws = list(range(k))
        rng.shuffle(ws)
        edges = _split_edges(k)
        for j in range(i):
            edges.append((k + j, ws[2 * j]))
            edges.append((k + j, ws[2 * j + 1]))
        g = graph_from_edges(k + i, edges)
        return _verified_split(g, want_claw_free=True)
    if i <= 1:
        edges = _split_edges(k)
        if i == 1:
            edges += [(k, 0), (k, 1)]
        g = graph_from_edges(k + i, edges)
        return _verified_split(g, want_claw_free=True)
    s, t = k, k + 1
    edges = _split_edges(k) + [(s, 0), (t, 0)]
    s_only: list[int] = []
    t_only: list[int] = []
    for w in range(1, k):
        side = rng.randrange(3)
        if side == 0:
            edges.append((s, w))
            s_only.append(w)
        elif side == 1:
            edges.append((t, w))
            t_only.append(w)
        else:
            edges.append((s, w))
            edges.append((t, w))
    if i == 3:
        u = k + 2
        for w in s_only + t_only:
            edges.append((u, w))
    g = graph_from_edges(k + i, edges)
    return _verified_split(g, want_claw_free=True)


def _build_bipartite_deg3(spec: GenSpec, rng: random.Random):
    na = int(spec.param("na"))
    nb = int(spec.param("nb"))
    m = min(3 * min(na, nb), int(1.4 * (na + nb)))
    plant = int(spec.param("plant", 0))
    part_a = tuple(range(na))
    part_b = tuple(range(na, na + nb))
    deg = [0] * (na + nb)
    edge_set: set[tuple[int, int]] = set()
    if plant and na == nb and na >= 2:
        pa = list(part_a)
        pb = list(part_b)
        rng.shuffle(pa)
        rng.shuffle(pb)
        for idx in range(na):
            a, b1, b2 = pa[idx], pb[idx], pb[(idx + 1) % na]
            for a_, b_ in ((a, b1), (a, b2)):
                edge_set.add((a_, b_))
                deg[a_] += 1
                deg[b_] += 1
    tries = 0
    while len(edge_set) < m and tries < 20 * m:
        tries += 1
        a = rng.randrange(na)
        b = na + rng.randrange(nb)
        if deg[a] >= 3 or deg[b] >= 3 or (a, b) in edge_set:
            continue
        edge_set.add((a, b))
        deg[a] += 1
        deg[b] += 1
    g = graph_from_edges(na + nb, sorted(edge_set))
    return g, part_a, part_b


def _build_planted_hc(spec: GenSpec, rng: random.Random):
    n = int(spec.param("n"))
    if n < 3:
        return None
    i = int(spec.param("i", n // 3))
    i = min(i, n // 2)
    k = n - i
    extra = spec.param("extra", 0.15)
    edges = _split_edges(k)
    # Cycle: independent vertex j rides between clique j and j+1.
    for j in range(i):
        edges.append((k + j, j))
        edges.append((k + j, (j + 1) % k))
    for j in range(i):
        for w in range(k):
            if rng.random() < extra:
                edges.append((k + j, w))
    g = graph_from_edges(n, edges)
    if isinstance(recognize_split(g), NotSplit):
        return None
    return g, (), ()


# Each family's builder and the parameters it reads; ``generate`` rejects
# any other key.
_FAMILIES = {
    "SplitRandom": (_build_split_random, ("k", "i", "p")),
    "SplitK14Free": (_build_split_k14_free, ("k", "i", "p3")),
    "SplitDelta2": (_build_split_delta2, ("k", "i", "p3")),
    "SplitDelta3InPremise": (_build_split_delta3, ("k", "i", "plant_short")),
    "ClawFreeSplit": (_build_claw_free, ("k", "i")),
    "BipartiteDeg3": (_build_bipartite_deg3, ("na", "nb", "plant")),
    "PlantedHC": (_build_planted_hc, ("n", "i", "extra")),
}
FAMILIES = tuple(_FAMILIES)


# ---------------------------------------------------------------------------
# Large structured instance for the performance criterion


def big_delta2_instance(n_clique: int, n_ind: int, extra_deg3: int = 0) -> Graph:
    """Deterministic ladder-shaped delta_i = 2 instance whose clique
    0..k-1 is an implicit block (``graph_from_split``), so only its K-I
    edges are stored.

    Independent vertex j sits between clique vertices j and j+1, forming
    one long alternating path in the degree-two subgraph (no short
    cycles); the last ``extra_deg3`` independent vertices get a third
    neighbor instead, exercising the insertion rules.
    """
    k, i = n_clique, n_ind
    if i + 1 + 2 * extra_deg3 > k:
        raise ValueError("ladder needs a clique wider than the independent side")
    # Vertex j < i - extra_deg3 sees j and j + 1; a later j sees base and
    # base + 1, with base = i + 1 + 2 (j - (i - extra_deg3)), and base + 2
    # too where that is in K.  Where extra_deg3 > i, j - (i - extra_deg3)
    # starts above 0.
    two = np.arange(max(i - extra_deg3, 0))
    three = np.arange(two.shape[0], i)
    base = i + 1 + 2 * (three - (i - extra_deg3))
    wide = base + 2 < k
    ends = np.concatenate([two, two + 1, base, base + 1, base[wide] + 2])
    ind = np.concatenate([two, two, three, three, three[wide]]) + k
    return graph_from_split(k + i, np.arange(k), np.stack([ends, ind], axis=1))
