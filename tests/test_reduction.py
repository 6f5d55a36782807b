import random

import pytest

from splithc.errors import DegreeTooHigh, NotBipartite, SplitHCError
from splithc.generators import GenSpec, generate
from splithc.graph import HamCycle, graph_from_edges, validate_ham_cycle
from splithc.oracle import oracle_solve
from splithc.reduction import (
    BipartiteInstance,
    bipartite_from_graph,
    map_solution_back,
    reduce_to_split,
    verify_k15_free,
)
from splithc.split import NotSplit, recognize_split

from reference_graph import cycle_graph


def test_c6_example():
    g = cycle_graph(6)
    b = BipartiteInstance(g, (0, 2, 4), (1, 3, 5))
    out = reduce_to_split(b)
    assert oracle_solve(g).has_cycle
    r1, r2 = oracle_solve(out.h1), oracle_solve(out.h2)
    assert r1.has_cycle and r2.has_cycle
    back = map_solution_back(b, r1.cycle, r2.cycle)
    assert validate_ham_cycle(g, back)


def test_single_edge_example():
    g = graph_from_edges(2, [(0, 1)])
    out = reduce_to_split(BipartiteInstance(g, (0,), (1,)))
    assert sorted(out.h1.edges()) == [(0, 1)] == sorted(out.h2.edges())
    assert not oracle_solve(out.h1).has_cycle


def test_star_example_needs_both_images():
    # The 3-star with A = {hub}: h2 becomes K4 (Hamiltonian) while h1
    # stays the star; the conjunction answers no, like the source.
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    b = BipartiteInstance(star, (0,), (1, 2, 3))
    out = reduce_to_split(b)
    assert not oracle_solve(star).has_cycle
    assert not oracle_solve(out.h1).has_cycle
    assert oracle_solve(out.h2).has_cycle


def test_degree_guard():
    star5 = graph_from_edges(5, [(0, j) for j in range(1, 5)])
    with pytest.raises(DegreeTooHigh):
        BipartiteInstance(star5, (0,), (1, 2, 3, 4))


def test_not_bipartite_witnesses():
    tri = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotBipartite):
        BipartiteInstance(tri, (0, 2), (1,))
    with pytest.raises(NotBipartite) as exc:
        bipartite_from_graph(tri)
    walk = exc.value.witness
    assert len(walk) % 2 == 1  # odd closed walk


def test_declared_parts_list_each_vertex_once():
    # A vertex listed twice would reach the reduction as a self-loop, so
    # every defect of the declared parts is refused at construction, with
    # the vertex that shows it as the witness.
    path = graph_from_edges(5, [(0, 2), (1, 2), (1, 3), (3, 4)])
    cases = [
        (((0, 1, 1), (2, 3)), (1,), "vertex 1 is listed in part A twice"),
        (((0, 1, 4), (2, 3, 1)), (1,), "vertex 1 is listed in both parts"),
        (((0, 1), (2, 3)), (4,), "vertex 4 is in neither part"),
        (((0, 1, 4), (2, 3, 7)), (7,), "part B lists vertex 7, outside [0, 5)"),
        (((0, 1, -1, 4), (2, 3)), (-1,), "part A lists vertex -1, outside [0, 5)"),
    ]
    for (part_a, part_b), witness, message in cases:
        with pytest.raises(NotBipartite) as exc:
            BipartiteInstance(path, part_a, part_b)
        assert exc.value.witness == witness
        assert str(exc.value) == message
    BipartiteInstance(path, (0, 1, 4), (2, 3))


def test_two_coloring_roundtrip():
    g = cycle_graph(6)
    b = bipartite_from_graph(g)
    a, other = set(b.part_a), set(b.part_b)
    assert len(a) == len(b.part_a) == 3 and len(other) == len(b.part_b) == 3
    assert a | other == set(range(6))
    assert all((u in a) != (v in a) for u, v in g.edges())


def test_images_are_split_and_k15_free():
    rng = random.Random(8)
    for _ in range(150):
        na = rng.randrange(1, 8)
        nb = rng.randrange(1, 8)
        inst = generate(GenSpec("BipartiteDeg3",
                                {"na": na, "nb": nb, "plant": rng.randrange(2)},
                                rng.randrange(10**6)))
        b = BipartiteInstance(inst.graph, inst.part_a, inst.part_b)
        out = reduce_to_split(b)
        for h, p in ((out.h1, out.partition1), (out.h2, out.partition2)):
            assert not isinstance(recognize_split(h), NotSplit)
            assert verify_k15_free(h, p) is True


def test_dichotomy_on_random_instances():
    rng = random.Random(14)
    both = neither = 0
    for _ in range(250):
        na = rng.randrange(2, 7)
        nb = rng.randrange(2, 7)
        inst = generate(GenSpec("BipartiteDeg3",
                                {"na": na, "nb": nb, "plant": rng.randrange(2)},
                                rng.randrange(10**6)))
        g = inst.graph
        b = BipartiteInstance(g, inst.part_a, inst.part_b)
        out = reduce_to_split(b)
        src = oracle_solve(g).has_cycle
        img = oracle_solve(out.h1).has_cycle and oracle_solve(out.h2).has_cycle
        assert src == img
        both += src
        neither += not src
    assert both >= 10 and neither >= 10


def test_balance_forced_when_both_hamiltonian():
    rng = random.Random(15)
    for _ in range(120):
        n = rng.randrange(2, 7)
        inst = generate(GenSpec("BipartiteDeg3", {"na": n, "nb": n, "plant": 1},
                                rng.randrange(10**6)))
        b = BipartiteInstance(inst.graph, inst.part_a, inst.part_b)
        out = reduce_to_split(b)
        if oracle_solve(out.h1).has_cycle and oracle_solve(out.h2).has_cycle:
            assert len(b.part_a) == len(b.part_b)


def test_map_back_rejects_invalid_certificates():
    from splithc.errors import PremiseViolated
    g = cycle_graph(6)
    b = BipartiteInstance(g, (0, 2, 4), (1, 3, 5))
    out = reduce_to_split(b)
    good = oracle_solve(out.h1).cycle
    with pytest.raises(PremiseViolated):
        map_solution_back(b, HamCycle((0, 2, 1, 4, 3, 5)), good)
    with pytest.raises(PremiseViolated):
        map_solution_back(b, good, HamCycle((0, 2, 1, 4, 3, 5)))


def test_clique_edge_unreachable_on_valid_pipelines():
    # Whenever both images are Hamiltonian, mapping back never trips the
    # clique-edge guard and the result is a source cycle.
    rng = random.Random(16)
    mapped = 0
    for _ in range(150):
        n = rng.randrange(2, 7)
        inst = generate(GenSpec("BipartiteDeg3", {"na": n, "nb": n, "plant": 1},
                                rng.randrange(10**6)))
        b = BipartiteInstance(inst.graph, inst.part_a, inst.part_b)
        out = reduce_to_split(b)
        r1, r2 = oracle_solve(out.h1), oracle_solve(out.h2)
        if r1.has_cycle and r2.has_cycle:
            back = map_solution_back(b, r1.cycle, r2.cycle)   # must not raise
            assert validate_ham_cycle(inst.graph, back)
            mapped += 1
    assert mapped >= 20


def test_map_back_rejects_cycle_outside_source(monkeypatch):
    # The final source check is explicit, not an assert that ``python -O``
    # would strip: fail it alone, after both image checks pass.
    from splithc import reduction
    from splithc.errors import InvalidCertificate

    g = cycle_graph(6)
    b = BipartiteInstance(g, (0, 2, 4), (1, 3, 5))
    out = reduce_to_split(b)
    r1, r2 = oracle_solve(out.h1), oracle_solve(out.h2)
    real = reduction.validate_ham_cycle
    monkeypatch.setattr(reduction, "validate_ham_cycle",
                        lambda h, c: h is not g and real(h, c))
    with pytest.raises(InvalidCertificate):
        map_solution_back(b, r1.cycle, r2.cycle)


def test_reduction_image_check_raises_invalid_certificate(monkeypatch, tmp_path, capsys):
    # A failed image check is a package error (exit 2 from the CLI), not a
    # bare AssertionError that the CLI would print as a traceback.
    from splithc import reduction
    from splithc.cli import main
    from splithc.errors import InvalidCertificate
    from splithc.io import write_graph

    g = cycle_graph(6)
    monkeypatch.setattr(reduction, "verify_k15_free", lambda h, p: (0, (1, 2, 3, 4, 5)))
    with pytest.raises(InvalidCertificate, match="induced 5-star"):
        reduce_to_split(BipartiteInstance(g, (0, 2, 4), (1, 3, 5)))
    gpath = tmp_path / "c6.graph"
    write_graph(gpath, g)
    assert main(["reduce", str(gpath), "--out-prefix", str(tmp_path / "red")]) == 2
    assert capsys.readouterr().err.startswith("error: reduction image has an induced 5-star")


def _map_back_outcome(fn, b, c1, c2):
    try:
        return ("cycle", fn(b, c1, c2).order)
    except SplitHCError as exc:
        return (type(exc).__name__, str(exc))


def _map_back_cases(rng):
    """(source, c1, c2) triples: the images' own cycles, rotated and
    reversed, crossed with each other and with random permutations."""
    for _ in range(40):
        n = rng.randrange(2, 6)
        na = n + rng.randrange(-1, 2)
        inst = generate(GenSpec("BipartiteDeg3", {"na": max(na, 1), "nb": n, "plant": 1},
                                rng.randrange(10**6)))
        b = BipartiteInstance(inst.graph, inst.part_a, inst.part_b)
        out = reduce_to_split(b)
        perms = []
        for _ in range(3):
            order = list(range(inst.graph.n))
            rng.shuffle(order)
            perms.append(HamCycle(tuple(order)))
        for h in (out.h1, out.h2):
            r = oracle_solve(h)
            if r.has_cycle:
                order = r.cycle.order
                s = rng.randrange(len(order))
                turned = order[s:] + order[:s]
                perms += [r.cycle, HamCycle(turned[::-1] if rng.random() < 0.5 else turned)]
        for c1 in perms:
            for c2 in perms:
                yield b, c1, c2


def test_map_back_matches_reference(monkeypatch):
    # Checking c1 on the source first gives the reference's cycle, or its
    # exception type and message, on every pair; also under a validator
    # that rejects every source cycle, and one that accepts every image
    # cycle, which reach the clique-edge and source raises.
    import reference_reduction
    from splithc import reduction

    real = reduction.validate_ham_cycle
    faults = [None,
              lambda b: lambda h, c: h is not b.graph and real(h, c),
              lambda b: lambda h, c: real(h, c) if h is b.graph else True]
    kinds = set()
    for fault in faults:
        for b, c1, c2 in _map_back_cases(random.Random(41)):
            if fault is not None:
                for mod in (reduction, reference_reduction):
                    monkeypatch.setattr(mod, "validate_ham_cycle", fault(b))
            got = _map_back_outcome(map_solution_back, b, c1, c2)
            want = _map_back_outcome(reference_reduction.both_images_map_solution_back,
                                     b, c1, c2)
            assert got == want, (b, c1, c2)
            kinds.add((fault is None, got[0]))
    assert {(True, "cycle"), (True, "PremiseViolated"), (False, "UsesCliqueEdge"),
            (False, "InvalidCertificate")} <= kinds


def test_map_back_builds_one_image_on_a_valid_pair(monkeypatch):
    from splithc import reduction

    g = cycle_graph(6)
    b = BipartiteInstance(g, (0, 2, 4), (1, 3, 5))
    out = reduce_to_split(b)
    c1, c2 = oracle_solve(out.h1).cycle, oracle_solve(out.h2).cycle
    calls = []
    for name in ("graph_from_edges", "validate_ham_cycle"):
        def counted(*args, _fn=getattr(reduction, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(reduction, name, counted)
    assert map_solution_back(b, c1, c2) == c1
    assert sorted(calls) == ["graph_from_edges", "validate_ham_cycle", "validate_ham_cycle"]
