import random

import pytest

from splithc.errors import NotSplitGraph
from splithc.generators import GenSpec, big_delta2_instance, generate
from splithc.graph import graph_from_edges, validate_ham_cycle
from splithc.oracle import OracleBudget, oracle_solve
from splithc.paths import hc_delta2
from splithc.reduction import BipartiteInstance, map_solution_back, reduce_to_split
from splithc.solver import solve
from splithc.split import NotSplit, recognize_split, split_is_two_connected, star_free_level

from conftest import mk_split
from reference_graph import complete_graph, cycle_graph, enumerate_small_split, path_graph


def test_solve_k4():
    out = solve(complete_graph(4))
    assert out.verdict == "cycle" and out.method == "Delta1"
    assert validate_ham_cycle(complete_graph(4), out.cycle)


def test_solve_p3_not_two_connected():
    out = solve(path_graph(3))
    assert out.verdict == "no-cycle"
    assert out.certificate.kind == "not_two_connected"
    assert out.certificate.payload.cut_vertex == 1


def test_solve_short_cycle_instance_agrees_with_oracle():
    g = mk_split(3, [(0, 1), (0, 1)])
    out = solve(g)
    assert out.verdict == "no-cycle" and out.certificate.kind == "short_cycle"
    assert oracle_solve(g).kind == "no_cycle"


def test_solve_rejects_non_split():
    with pytest.raises(NotSplitGraph):
        solve(cycle_graph(5))


def _solved_cycle(g, method):
    """Solve ``g`` and assert a validated cycle tagged ``method``."""
    out = solve(g)
    assert out.has_cycle and out.method == method, (out.method, out.premise)
    assert validate_ham_cycle(g, out.cycle)


def test_hc_delta1_examples():
    # delta_i <= 1: the path assembly places every independent vertex on
    # disjoint clique neighbors.
    for g in (mk_split(3, [(0, 1)]), complete_graph(5), mk_split(4, [(0, 1), (2, 3)])):
        p = recognize_split(g)
        assert p.delta_i <= 1
        assert validate_ham_cycle(g, hc_delta2(g, p))
        _solved_cycle(g, "Delta1")


def test_claw_free_case_two_vertices():
    # K = {v, w, x} with v seeing both independents, w one, x the other:
    # a cycle (w, s, v, t, x) closes through the clique.
    g = mk_split(3, [(0, 1), (0, 2)])  # v=0, w=1 (s-side), x=2 (t-side)
    p = recognize_split(g)
    st = star_free_level(g, p)
    assert st.claw_free and p.delta_i == 2
    _solved_cycle(g, "ClawFree")
    assert oracle_solve(g).has_cycle


def test_claw_free_case_three_vertices():
    # K = {v, x, y}, I = {s, t, u}: v~{s,t}, x~{s,u}, y~{t,u}.  |I| = |K|,
    # so H itself is the spanning cycle.
    g = mk_split(3, [(0, 1), (0, 2), (1, 2)])
    p = recognize_split(g)
    assert star_free_level(g, p).claw_free and len(p.independent) == len(p.clique)
    _solved_cycle(g, "ClawFree")


def test_claw_free_delegates_to_delta1():
    # A clique is claw-free with delta_i <= 1 and is tagged Delta1, the
    # narrower family.
    k4 = complete_graph(4)
    assert star_free_level(k4, recognize_split(k4)).claw_free
    _solved_cycle(k4, "Delta1")


def test_claw_free_bigger_clique_chains():
    # Extra clique vertices must chain between the independent vertices.
    # Each of them sees s or t, so clique vertex 0, which sees both, is no
    # claw centre.
    g = mk_split(6, [(0, 1, 2), (0, 3, 4, 5)])
    p = recognize_split(g)
    assert star_free_level(g, p).claw_free and p.delta_i == 2
    _solved_cycle(g, "ClawFree")


def test_lemma2_property_on_generated():
    # Claw-free split graphs have a cycle iff 2-connected.
    rng = random.Random(12)
    for _ in range(150):
        k = rng.randrange(3, 10)
        i = rng.randrange(0, 4)
        g = generate(GenSpec("ClawFreeSplit", {"k": k, "i": i}, rng.randrange(10**6))).graph
        out = solve(g)
        p = recognize_split(g)
        assert out.has_cycle == (split_is_two_connected(g, p) is True)
        assert out.method in ("Delta1", "ClawFree")


def _expected_method(g):
    """The method tag of ``solve``, from the classification alone."""
    p = recognize_split(g)
    stars = star_free_level(g, p)
    if p.delta_i <= 1:
        family = "Delta1"
    elif stars.claw_free:
        family = "ClawFree"
    elif stars.k14_free:
        family = f"Delta{p.delta_i}"
    else:
        family = "OracleFallback"
    if family == "Delta3" and split_is_two_connected(g, p) is True:
        # Up to 8 vertices |I| stays below the delta-3 premise floor.
        return "OracleFallback"
    return family


def test_exhaustive_small_split_vs_oracle():
    # Every split graph on up to 8 vertices: verdicts match the oracle,
    # and the method tag names the premise family.
    for n in range(1, 9):
        for g in enumerate_small_split(n):
            out = solve(g)
            orc = oracle_solve(g)
            assert orc.decided
            assert out.has_cycle == orc.has_cycle, (n, sorted(g.edges()), out.method)
            assert out.method == _expected_method(g), (n, sorted(g.edges()), out.premise)
            if out.has_cycle:
                assert validate_ham_cycle(g, out.cycle)


def test_randomized_split_vs_oracle():
    rng = random.Random(13)
    budget = OracleBudget(nodes=2_000_000, seconds=30)
    for trial in range(800):
        k = rng.randrange(2, 10)
        i = rng.randrange(0, min(k, 12 - k) + 1)
        fam = rng.choice(("SplitRandom", "SplitK14Free", "PlantedHC"))
        if fam == "PlantedHC":
            spec = GenSpec(fam, {"n": k + i + 3, "extra": 0.2}, rng.randrange(10**6))
        else:
            spec = GenSpec(fam, {"k": k, "i": i}, rng.randrange(10**6))
        g = generate(spec).graph
        out = solve(g, oracle_budget=budget)
        orc = oracle_solve(g, budget)
        assert orc.decided
        assert out.has_cycle == orc.has_cycle, (trial, fam, sorted(g.edges()))
        if out.has_cycle:
            assert validate_ham_cycle(g, out.cycle)


def test_oracle_fallback_tagging():
    # 2-connected split graph with an induced 4-star: outside every
    # polynomial premise, so the exact search answers and is tagged.
    g = mk_split(6, [(0, 1), (0, 2), (0, 3)])
    p = recognize_split(g)
    assert not star_free_level(g, p).k14_free
    assert split_is_two_connected(g, p) is True
    out = solve(g)
    assert out.method == "OracleFallback"
    assert out.has_cycle == oracle_solve(g).has_cycle


def test_oracle_fallback_calls_the_traced_globals(monkeypatch):
    # bench/spans.py attributes oracle and validation work by replacing
    # these two module globals; a solve that bypasses them goes unmeasured.
    from splithc import oracle, solver

    calls = {"oracle": 0, "validate": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "oracle_solve", counting("oracle", solver.oracle_solve))
    monkeypatch.setattr(oracle, "validate_ham_cycle", counting("validate", oracle.validate_ham_cycle))
    # Clique vertex 0 sees three independent vertices and clique vertex 5,
    # which sees none of them: an induced 4-star.
    g = mk_split(6, [(0, 1), (0, 2), (0, 3, 4)])
    out = solve(g)
    assert out.method == "OracleFallback" and out.has_cycle
    assert calls == {"oracle": 1, "validate": 1}


def test_oracle_nodes_reported():
    # The Delta3 route's one pair search is counted too.
    for spec, method in ((GenSpec("SplitRandom", {"k": 7, "i": 5}, 1), "OracleFallback"),
                         (GenSpec("SplitDelta3InPremise", {"k": 10, "i": 8}, 3), "Delta3")):
        g = generate(spec).graph
        out = solve(g)
        assert out.method == method
        assert out.oracle_nodes == oracle_solve(g, partition=recognize_split(g)).nodes > 0
    ladder = solve(big_delta2_instance(40, 10, 10))
    assert ladder.method == "Delta2" and ladder.oracle_nodes == 0


def _certificate_ids(g) -> list[tuple[str, tuple]]:
    """The vertex ids of every certificate and witness for ``g``, each
    with the field it came from."""
    p = recognize_split(g)
    if isinstance(p, NotSplit):
        return [("NotSplit.vertices", p.vertices)]
    out = []
    tc = split_is_two_connected(g, p)
    if tc is not True and tc.cut_vertex is not None:
        out.append(("NotTwoConnected.cut_vertex", (tc.cut_vertex,)))
    stars = star_free_level(g, p)
    for name, w in (("witness3", stars.witness3), ("witness4", stars.witness4),
                    ("witness5", stars.witness5)):
        if w is not None:
            out.append((name, (w[0], *w[1])))
    res = solve(g)
    if res.cycle is not None:
        out.append(("HamCycle.order", res.cycle.order))
    elif res.certificate.kind == "short_cycle":
        w = res.certificate.payload
        out += [("ShortCycleWitness.cycle", w.cycle), ("ShortCycleWitness.excluded", (w.excluded,))]
    return out


def test_certificate_ids_are_python_ints():
    # ``str`` prints a numpy integer as it prints an int, so a certificate
    # string cannot tell them apart; this test can.
    specs = [("SplitRandom", {"k": 7, "i": 5}), ("SplitK14Free", {"k": 8, "i": 5}),
             ("SplitDelta2", {"k": 12, "i": 8}), ("SplitDelta2", {"k": 16, "i": 12, "p3": 0.5}),
             ("SplitDelta3InPremise", {"k": 10, "i": 8}),
             ("SplitDelta3InPremise", {"k": 10, "i": 8, "plant_short": 1}),
             ("ClawFreeSplit", {"k": 9, "i": 3}), ("PlantedHC", {"n": 12})]
    graphs = [generate(GenSpec(fam, params, seed)).graph
              for fam, params in specs for seed in range(1, 7)]
    graphs.append(mk_split(4, [(0, 1), (0, 1), (2, 3)]))  # a short cycle on delta_i <= 2
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(3, 8)
        graphs.append(graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                           if rng.random() < 0.5]))
    found = []
    for g in graphs:
        found += _certificate_ids(g)
    for seed in range(1, 7):
        inst = generate(GenSpec("BipartiteDeg3", {"na": 8, "nb": 8, "plant": 1}, seed))
        src = BipartiteInstance(inst.graph, inst.part_a, inst.part_b)
        red = reduce_to_split(src)
        found += _certificate_ids(red.h1) + _certificate_ids(red.h2)
        o1, o2 = solve(red.h1), solve(red.h2)
        if o1.has_cycle and o2.has_cycle:
            found.append(("map_solution_back", map_solution_back(src, o1.cycle, o2.cycle).order))
    assert {name for name, _ in found} == {
        "NotSplit.vertices", "NotTwoConnected.cut_vertex", "witness3", "witness4", "witness5",
        "HamCycle.order", "ShortCycleWitness.cycle", "ShortCycleWitness.excluded",
        "map_solution_back"}
    leaks = sorted({(name, type(v).__name__) for name, ids in found for v in ids
                    if type(v) is not int})
    assert not leaks, leaks
