import random

import numpy as np
import pytest

from splithc import delta3, solver
from splithc.delta3 import construct_cycle
from splithc.errors import PremiseViolated
from splithc.generators import GenSpec, generate
from splithc.graph import validate_ham_cycle
from splithc.oracle import OracleBudget, oracle_solve
from splithc.paths import ShortCycleWitness, build_degree_two_subgraph, find_short_cycle
from splithc.solver import solve
from splithc.split import recognize_split, star_free_level

from conftest import mk_split
from reference_delta3 import ReducedSystem, reduced_system


def _premise_instance(seed, k=10, i=8, **extra):
    params = {"k": k, "i": i}
    params.update(extra)
    return generate(GenSpec("SplitDelta3InPremise", params, seed)).graph


def find_universal_v1(g, ctx, paths):
    """The member of {v1, v2, v3} adjacent to every internal clique vertex
    of the listed paths; smallest qualifying index.  The paper guarantees
    one for two or more paths of five-plus vertices, or one 11-path."""
    internal = [w for q in paths for w in q[2:-1:2]]
    found = [u for u in ctx.n_i_v if all(g.has_edge(u, w) for w in internal)]
    assert found, f"no universal member of {ctx.n_i_v} for {list(paths)}"
    return found[0]


def test_short_cycle_gate():
    found = 0
    for seed in range(60):
        g = _premise_instance(seed, k=11, i=8, plant_short=1)
        p = recognize_split(g)
        res = construct_cycle(g, p)
        if isinstance(res, ShortCycleWitness):
            found += 1
            assert oracle_solve(g).kind == "no_cycle"
    assert found >= 1


def test_h_degree_three_is_outside_the_walk():
    # K_{1,4}-free with delta_i = 3 and |K| = 4: clique vertex 0 sees the
    # three degree-2 vertices 4, 5 and 6.  The premise |K| >= 8 rules this
    # out (the lemma in ``delta3``), so the walk of H refuses it, and
    # ``solve`` sends it below the threshold to the oracle.
    g = mk_split(4, [(0, 1), (0, 2), (0, 3)])
    p = recognize_split(g)
    assert p.delta_i == 3 and star_free_level(g, p).k14_free
    h = build_degree_two_subgraph(g, p)
    assert h.va[(h.ends == 0).any(axis=1)].tolist() == [4, 5, 6]
    with pytest.raises(PremiseViolated, match="^clique vertex 0 has H-degree 3 > 2$"):
        find_short_cycle(g, p)
    with pytest.raises(PremiseViolated, match="^clique vertex 0 has H-degree 3 > 2$"):
        construct_cycle(g, p)
    out = solve(g)
    assert (out.verdict, out.method, out.premise) == (
        "no-cycle", "OracleFallback", "n=7,k=4,dI=3,k14-free,below-threshold")
    assert out.certificate.render() == "exhaustive-search"


def test_reduced_system_shape():
    g = _premise_instance(3)
    p = recognize_split(g)
    ctx = reduced_system(g, p)
    assert isinstance(ctx, ReducedSystem)
    assert g.degree(ctx.v) - (len(p.clique) - 1) == 3 and len(ctx.n_i_v) == 3
    # The apex is always a singleton path of the reduced system.
    assert (ctx.v,) in ctx.system.paths
    # Census covers exactly the independent side minus the triple.
    total_i = sum((j - 1) // 2 * c for j, c in ctx.census.items())
    assert total_i == len(p.independent) - 3


def test_census_constraints_on_generated():
    sizes = [(9, 8), (10, 8), (11, 8), (13, 9), (15, 10)]
    for seed in range(150):
        k, i = sizes[seed % len(sizes)]
        g = _premise_instance(seed + 400, k=k, i=i)
        p = recognize_split(g)
        ctx = reduced_system(g, p)
        if isinstance(ctx, ShortCycleWitness):
            continue
        c = ctx.census
        assert not any(j >= 13 for j in c)
        if c.get(11):
            assert not (c.get(5) or c.get(7) or c.get(9))
        if c.get(9):
            assert not (c.get(5) or c.get(7) or c.get(11))
        assert c.get(7, 0) <= 2
        if c.get(7, 0) == 2:
            assert not c.get(5)
        if c.get(7, 0) == 1:
            assert c.get(5, 0) <= 1
        if not any(c.get(j) for j in (7, 9, 11)):
            assert c.get(5, 0) <= 2


def test_missing_triple_neighbor_is_a_star_witness():
    # A clique vertex with no neighbor among the apex triple completes an
    # induced 4-star, so such graphs are caught by the star classifier.
    g = mk_split(6, [(0, 1), (0, 2), (0, 3)])  # clique 4, 5 untouched by I
    p = recognize_split(g)
    st = star_free_level(g, p)
    assert not st.k14_free
    center, arms = st.witness4
    assert g.degree(center) - (len(p.clique) - 1) == 3
    k_arm = [a for a in arms if p.in_clique[a]]
    assert len(k_arm) == 1


def _two_p5_instance():
    # Clique 0..9; near-universal 10 misses 9, whose star is covered by
    # the degree-3 chain vertices 14 and 16.  The reduced system is two
    # 5-paths, one 3-path and two singletons.
    return mk_split(10, [
        tuple(range(9)),          # 10
        (0, 1, 4, 7, 8, 9),       # 11
        (0, 3),                   # 12
        (1, 2),                   # 13
        (2, 3, 9),                # 14
        (4, 5),                   # 15
        (5, 6, 9),                # 16
        (7, 8),                   # 17
    ])


def _p7_p5_instance():
    # Same skeleton, with a joined 7-path (via the degree-3 vertex 14)
    # and an extended 5-path.
    return mk_split(10, [
        tuple(range(9)),          # 10
        (0, 1, 4, 5, 8, 9),       # 11
        (0, 8),                   # 12
        (1, 2),                   # 13
        (2, 3, 9),                # 14
        (3, 4),                   # 15
        (5, 6),                   # 16
        (6, 7, 9),                # 17
    ])


def _context(g):
    p = recognize_split(g)
    assert p.delta_i == 3 and star_free_level(g, p).k14_free
    ctx = reduced_system(g, p)
    assert isinstance(ctx, ReducedSystem)
    return ctx


def _built_cycle(g):
    """Assert that the Delta3 route builds a valid cycle of ``g``."""
    out = solve(g)
    assert out.method == "Delta3" and out.anomaly is None, (out.method, out.anomaly)
    assert validate_ham_cycle(g, out.cycle)


def test_two_p5_census_and_universal():
    g = _two_p5_instance()
    ctx = _context(g)
    assert ctx.census.get(5) == 2 and ctx.census.get(3) == 1
    big = [q for q in ctx.system.paths if len(q) == 5]
    v1 = find_universal_v1(g, ctx, big)
    assert v1 == 10
    for q in big:
        for w in q[2:-1:2]:
            assert g.has_edge(v1, w)
    _built_cycle(g)
    assert oracle_solve(g).has_cycle


def test_p7_p5_census_and_universal():
    g = _p7_p5_instance()
    ctx = _context(g)
    assert ctx.census.get(7) == 1 and ctx.census.get(5) == 1
    big = [q for q in ctx.system.paths if len(q) >= 5]
    v1 = find_universal_v1(g, ctx, big)
    assert v1 == 10
    _built_cycle(g)


def test_find_universal_v1_on_generated():
    # The guarantee covers two or more paths of five-plus vertices (the
    # cross-path pair argument) or one eleven-plus path; a lone 7-path
    # has only consecutive internal vertices and promises nothing.
    checked = 0
    for seed in range(150):
        g = _premise_instance(seed + 900, k=12 + seed % 3, i=9)
        p = recognize_split(g)
        ctx = reduced_system(g, p)
        if isinstance(ctx, ShortCycleWitness):
            continue
        big = [q for q in ctx.system.paths if len(q) >= 5]
        if len(big) < 2 and not any(len(q) >= 11 for q in ctx.system.paths):
            continue
        v1 = find_universal_v1(g, ctx, big)
        for q in big:
            for w in q[2:-1:2]:
                assert g.has_edge(v1, w)
        checked += 1
    # Qualifying configurations are rare in random draws (the crafted
    # fixtures above cover them deterministically); the loop asserts the
    # guarantee whenever one appears.


def test_find_universal_v1_trivial_for_three_vertex_paths():
    g = _premise_instance(5)
    p = recognize_split(g)
    ctx = reduced_system(g, p)
    if isinstance(ctx, ShortCycleWitness):
        pytest.skip("short-cycle draw")
    small = [q for q in ctx.system.paths if len(q) == 3][:1]
    if small:
        assert find_universal_v1(g, ctx, small) == ctx.n_i_v[0]


def test_construct_cycle_validates_everywhere():
    sizes = [(9, 8), (10, 8), (11, 8), (12, 8), (13, 9), (15, 10), (17, 9), (18, 8)]
    budget = OracleBudget(nodes=10_000_000, seconds=60)
    built = 0
    for seed in range(160):
        k, i = sizes[seed % len(sizes)]
        g = _premise_instance(seed + 2000, k=k, i=i)
        p = recognize_split(g)
        # The lemma in ``delta3``: no clique vertex has H-degree 3.
        h = build_degree_two_subgraph(g, p)
        assert np.bincount(h.ends.ravel(), minlength=g.n).max() <= 2
        res = construct_cycle(g, p)
        if isinstance(res, ShortCycleWitness):
            continue
        assert res.has_cycle and validate_ham_cycle(g, res.cycle)
        built += 1
        # Measured, not proven: the pair search has never backtracked on
        # an in-premise context.
        assert res.nodes <= len(p.independent) + 1
        if g.n <= 18:
            assert oracle_solve(g, budget).has_cycle
    assert built >= 100


def test_weave_cap_hit_is_reported(monkeypatch):
    # A search past the cap is reported, and its result is used as it
    # stands: the pair search runs once, not again as an oracle round.
    g = _premise_instance(3)
    runs = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            runs.append(fn(*args, **kwargs))
            return runs[-1]
        return wrapper

    monkeypatch.setattr(delta3, "_NODE_CAP", 1)
    monkeypatch.setattr(delta3, "oracle_solve", counting(delta3.oracle_solve))
    monkeypatch.setattr(solver, "oracle_solve", counting(solver.oracle_solve))
    out = solve(g)
    assert len(runs) == 1
    assert out.method == "OracleFallback"
    assert out.anomaly == "CaseFallthrough:delta3-cap"
    assert out.oracle_nodes == runs[0].nodes > 1
    assert out.has_cycle == oracle_solve(g).has_cycle


def test_known_completeness_gap():
    # No cycle of this in-premise instance contains the whole path system,
    # so the paper's weave misses it; the pair search on G builds one, so
    # solve needs no oracle round.
    g = _premise_instance(0, k=12, i=10)
    res = construct_cycle(g, recognize_split(g))
    assert res.has_cycle and validate_ham_cycle(g, res.cycle)
    out = solve(g)
    assert out.method == "Delta3"
    assert out.anomaly is None
    assert validate_ham_cycle(g, out.cycle)


def test_verdict_iff_no_short_cycle():
    # The headline characterization on in-premise instances.
    from splithc.paths import find_short_cycle
    from splithc.solver import solve
    sizes = [(10, 8), (11, 8), (13, 9)]
    for seed in range(90):
        k, i = sizes[seed % len(sizes)]
        g = _premise_instance(seed + 5000, k=k, i=i, plant_short=1)
        p = recognize_split(g)
        out = solve(g)
        assert out.has_cycle == (find_short_cycle(g, p) is None)
