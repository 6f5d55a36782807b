import random
import re
import sys
import threading
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splithc import graph as graph_module
from splithc import io as io_module
from splithc.cli import main
from splithc.errors import IndexOutOfRange, InvalidCertificate, ParseError
from splithc.generators import GenSpec, generate
from splithc.graph import Graph, HamCycle, graph_from_edges, graph_from_split
from splithc.io import (
    _parse_canonical,
    certificate_string,
    parse_cycle,
    parse_graph,
    parse_manifest,
    parse_params,
    pretty_report,
    read_graph,
    render_cycle,
    render_graph,
    run_batch,
    write_graph,
)
from splithc.solver import SolveOutcome

from reference_io import (
    fstring_render_graph,
    line_parse_graph,
    loop_edges,
    unique_graph_from_edges,
)
from reference_graph import complete_graph, cycle_graph, petersen_graph
from test_block_graph import _outcome as _solve_outcome, assert_twins


def test_graph_roundtrip_bit_exact():
    g = graph_from_edges(5, [(3, 1), (0, 4), (2, 0), (1, 0)])
    text = render_graph(g)
    g2, hint = parse_graph(text)
    assert g2 == g and hint is None
    assert render_graph(g2) == text


def test_parse_normalizes_and_keeps_partition():
    text = "# a comment\nsplit-hc v1 3 3\npartition K: 0 1 2\n2 0\n0 1\n1 2\n"
    g, hint = parse_graph(text)
    assert hint == (0, 1, 2)
    assert render_graph(g, hint).splitlines()[2:] == ["0 1", "0 2", "1 2"]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph("nonsense 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("split-hc v1 2 1\n0 0\n")
    with pytest.raises(ParseError):
        parse_graph("split-hc v1 2 1\n0 5\n")
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("split-hc v1 2 2\n0 1\n")  # promised 2 edges, has 1


def _assert_same_graph(a: Graph, b: Graph, probes: int | None = None) -> None:
    """``a`` and the explicit ``b`` are one graph, however ``a`` is stored:
    n, m, every edge in order and the CSR dtypes.  Where ``a`` took a
    clique block, it must also answer as ``b`` on every accessor."""
    assert a.n == b.n and a.m == b.m and list(a.edges()) == list(b.edges())
    assert a.indptr.dtype == b.indptr.dtype == np.int64
    assert a.indices.dtype == b.indices.dtype == np.int32
    if a.block.size:
        assert_twins(a, b, random.Random(a.n), probes)


@st.composite
def graphs(draw, max_n: int = 12) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(n, edges)


cliques = st.none() | st.lists(st.integers(0, 20), unique=True)


@settings(deadline=None, max_examples=150)
@given(graphs(), cliques)
def test_render_parse_roundtrip_random(g: Graph, clique):
    text = render_graph(g, clique)
    assert _parse_canonical(text) is not None  # rendered files take the numpy path
    g2, hint = parse_graph(text)
    _assert_same_graph(g2, g)
    assert hint == (None if clique is None else tuple(sorted(clique)))
    assert render_graph(g2, hint) == text


@settings(deadline=None, max_examples=150)
@given(graphs(), cliques)
@example(graph_from_edges(0, []), None)
@example(graph_from_edges(0, []), [])
@example(graph_from_edges(5, []), [])
@example(graph_from_edges(5, []), None)
def test_render_matches_fstring_renderer(g: Graph, clique):
    assert render_graph(g, clique) == fstring_render_graph(g, clique)


def _outcome(parse, text: str):
    """What ``parse`` makes of ``text``, however the graph is stored: the
    error, or n, m, every edge in order, the CSR dtypes and the hint.  A
    graph that took a clique block must also answer as its explicit twin."""
    try:
        g, hint = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line_no)
    if g.block.size:
        assert_twins(g, graph_from_edges(g.n, list(g.edges())), random.Random(g.n))
    return ("ok", g.n, g.m, list(g.edges()), g.indptr.dtype, g.indices.dtype, hint)


def _first_int(line: str) -> int:
    return int(line.split()[0])


def _bump_count(line: str) -> str:
    parts = line.split()
    if parts[:2] != ["split-hc", "v1"] or len(parts) < 4 or not parts[3].isdecimal():
        return line
    return " ".join(parts[:3] + [str(int(parts[3]) + 1)] + parts[4:])


# Each rewrites one line of a rendered file: the header, the partition line
# or an edge line.  Together they cover the ways a file can leave the
# canonical path, valid or not.
LINE_MUTATIONS = {
    "comment": lambda ln: ln + "  # note",
    "tab": lambda ln: ln.replace(" ", "\t", 1),
    "spaces": lambda ln: "  " + ln.replace(" ", "   ") + " ",
    "leading_zero": lambda ln: "0" + ln,
    "plus": lambda ln: "+" + ln,
    "underscore": lambda ln: "0_" + ln,
    "zeros18": lambda ln: f"{_first_int(ln):018d} " + " ".join(ln.split()[1:]),
    "zeros19": lambda ln: f"{_first_int(ln):019d} " + " ".join(ln.split()[1:]),
    "huge": lambda ln: f"{2 ** 63 + _first_int(ln)} " + " ".join(ln.split()[1:]),
    "negative": lambda ln: "-" + ln,
    "self_loop": lambda ln: f"{_first_int(ln)} {_first_int(ln)}",
    "out_of_range": lambda ln: f"{_first_int(ln)} 99",
    "three_fields": lambda ln: ln + " 1",
    "four_fields": lambda ln: ln + " 1 2",
    "garbage": lambda ln: "x y",
    "unicode_digit": lambda ln: ln.replace("1", "\u0661"),
    "vertical_tab": lambda ln: ln + "\x0b",
    "crlf": lambda ln: ln + "\r",
    "count": _bump_count,
}
EDGE_LINE_ONLY = {"zeros18", "zeros19", "huge", "self_loop", "out_of_range"}
INSERTIONS = ["", "  \t", "# full-line comment", "0 1", "1 0", "partition K: 2 0",
              "partition K: x", "split-hc v1 3 3"]


def _mutate_line(line: str, kind: str) -> str:
    if kind in EDGE_LINE_ONLY and not (line.split() and line.split()[0].isdecimal()):
        return line
    return LINE_MUTATIONS[kind](line)


@st.composite
def mutated_texts(draw) -> str:
    g = draw(graphs(max_n=8))
    lines = render_graph(g, draw(cliques)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(sorted(LINE_MUTATIONS) + ["insert", "duplicate", "drop"]))
        if kind == "insert":
            lines.insert(at, draw(st.sampled_from(INSERTIONS)))
        elif at == len(lines):
            continue
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        elif kind == "drop":
            del lines[at]
        else:
            lines[at] = _mutate_line(lines[at], kind)
    text = "\n".join(lines)
    return text if draw(st.booleans()) else text + "\n"


@settings(deadline=None, max_examples=400)
@given(mutated_texts())
def test_parser_matches_line_scanner(text: str):
    assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text)


@pytest.mark.parametrize("kind", sorted(LINE_MUTATIONS))
def test_parser_matches_line_scanner_per_mutation(kind: str):
    lines = render_graph(graph_from_edges(6, [(0, 1), (1, 5), (2, 3), (4, 5), (1, 2)]),
                         [1, 2]).splitlines()
    for at in range(len(lines)):
        mutated = list(lines)
        mutated[at] = _mutate_line(mutated[at], kind)
        text = "\n".join(mutated) + "\n"
        assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text), text


def test_canonical_path_id_width_limit():
    # 18 digits stay on the canonical path, 19 leave it, first id included.
    text = "split-hc v1 6 2\n" + f"{1:018d} 5\n" + f"{2:018d} {3:018d}\n"
    n, m, clique, edges = _parse_canonical(text)
    assert (n, m, clique, edges.tolist()) == (6, 2, None, [[1, 5], [2, 3]])
    assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text)
    for first in (f"{1:019d}", f"{10 ** 18 + 1}"):
        for text in (f"split-hc v1 12 1\n{first} 5\n", f"split-hc v1 12 2\n0 1\n{first} 5\n"):
            assert _parse_canonical(text) is None
            assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text)


def test_canonical_ids_of_every_width():
    # Ids of 1 to 18 digits, each written unpadded (decoded straight from
    # the separator scan) and then zero-padded to every width 1-18.
    vals = [10 ** (w - 1) + w for w in range(1, 19)] + [10 ** 18 - 2, 0]
    lines = [f"{u} {v}" for u, v in zip(vals[0::2], vals[1::2])]
    n, m, clique, edges = _parse_canonical(f"split-hc v1 {10 ** 18 - 1} {len(lines)}\n"
                                           + "\n".join(lines) + "\n")
    assert edges.dtype == np.int64 and edges.ravel().tolist() == vals
    lines = [f"{w % 12:0{w}d} {(5 * w + 1) % 12:0{19 - w}d}" for w in range(1, 19)]
    text = f"split-hc v1 12 {len(lines)}\npartition K: 0 3\n" + "\n".join(lines) + "\n"
    assert {len(tok) for ln in lines for tok in ln.split()} == set(range(1, 19))
    assert _parse_canonical(text) is not None
    assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text)


@pytest.mark.parametrize("window", [24, 41, 64])
def test_canonical_windows_split_at_whole_lines(window: int, monkeypatch):
    # Small windows put many window ends inside lines, and small steps
    # many step ends inside the clique search: every outcome must be the
    # line scanner's, and a rendered file still decodes canonically.
    monkeypatch.setattr(io_module, "_WINDOW", window)
    monkeypatch.setattr(graph_module, "_LINE_STEP", 7)
    g = graph_from_split(40, range(8), [(u, w) for u in range(8, 40) for w in {u % 8, 3 * u % 8}])
    text = render_graph(g, [0, 1, 2])
    assert _parse_canonical(text) is not None
    assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text)
    assert parse_graph(text)[0].block.tolist() == list(range(8))
    lines = text.splitlines()
    for kind in sorted(LINE_MUTATIONS):
        for at in range(1, len(lines), 17):
            mutated = list(lines)
            mutated[at] = _mutate_line(mutated[at], kind)
            text = "\n".join(mutated) + "\n"
            assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text), text
    wide = [f"{w % 12:0{w}d} {(5 * w + 1) % 12:0{19 - w}d}" for w in range(1, 19)]
    text = f"split-hc v1 12 {len(wide)}\n" + "\n".join(wide) + "\n"
    assert _outcome(parse_graph, text) == _outcome(line_parse_graph, text)


def test_parse_relabelled_ladder_matches_line_scanner():
    from splithc.generators import big_delta2_instance

    ladder = big_delta2_instance(300, 100, 30)
    # The explicit twin: the ladder itself stores no clique rows.
    g = graph_from_edges(ladder.n, list(ladder.edges()))
    perm = np.random.default_rng(5).permutation(g.n)
    src = np.repeat(np.arange(g.n), np.diff(g.indptr))
    relabelled = graph_from_edges(g.n, np.stack([perm[src], perm[g.indices]], axis=1))
    text = render_graph(relabelled, perm[:300].tolist())
    assert _parse_canonical(text) is not None
    fast, hint = parse_graph(text)
    ref, ref_hint = line_parse_graph(text)
    assert fast.block.tolist() == sorted(perm[:300].tolist())
    _assert_same_graph(fast, ref, probes=60)
    _assert_same_graph(fast, relabelled, probes=60)
    assert hint == ref_hint == tuple(sorted(perm[:300].tolist()))


@st.composite
def split_files(draw, max_n: int = 14):
    """(n, lines, duplicated): a split graph under a random labeling,
    written as edge lines in sorted order, or shuffled with some lines
    reversed and, if ``duplicated``, some repeated."""
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n))
    edges = [(perm[a], perm[b]) for a, b in combinations(range(k), 2)]
    for j in range(k, n):
        if k:
            edges += [(perm[a], perm[j]) for a in draw(st.sets(st.integers(0, k - 1), max_size=4))]
    edges = sorted(tuple(sorted(e)) for e in edges)
    if not edges or draw(st.booleans()):
        return n, edges, False
    lines = [e[::-1] if draw(st.booleans()) else e for e in edges]
    repeats = draw(st.lists(st.sampled_from(lines), max_size=4))
    lines = draw(st.permutations(lines + repeats))
    return n, lines, bool(repeats)


def _file_of(n: int, lines, m: int) -> str:
    return f"split-hc v1 {n} {m}\n" + "".join(f"{u} {v}\n" for u, v in lines)


@settings(deadline=None, max_examples=300)
@given(split_files())
def test_parsed_split_file_equals_explicit_build(drawn):
    n, lines, duplicated = drawn
    want = graph_from_edges(n, lines)
    text = _file_of(n, lines, want.m)
    assert _parse_canonical(text) is not None
    g, _ = parse_graph(text)
    assert g == want and want == g and list(g.edges()) == list(want.edges())
    # Without repeated lines the line degrees are the degrees, and the
    # Hammer-Simeone prefix of a split graph with an edge is a clique.
    if not duplicated:
        assert bool(g.block.size) == (g.m > 0)
    _assert_same_graph(g, want)
    assert _solve_outcome(g) == _solve_outcome(want)


def test_duplicate_line_cannot_hide_a_missing_clique_pair():
    # K = 0..4 without the pair 0-1, which the repeated line 2 3 replaces:
    # the lines inside K number C(5, 2) and K is still the degree prefix
    # (degrees 5, 5, 5, 5, 4 against 2, 2), but K is no clique.
    inner = [e for e in combinations(range(5), 2) if e != (0, 1)] + [(2, 3)]
    lines = inner + [(0, 5), (1, 5), (0, 6), (1, 6)]
    want = graph_from_edges(7, lines)
    g, _ = parse_graph(_file_of(7, lines, want.m))
    assert g.block.size == 0 and not g.has_edge(0, 1) and g == want
    _assert_same_graph(g, want)
    # With the pair written instead of the repeat, K is the block.
    fixed = inner[:-1] + [(0, 1)] + lines[len(inner):]
    g, _ = parse_graph(_file_of(7, fixed, 14))
    assert g.block.tolist() == [0, 1, 2, 3, 4] and g.has_edge(0, 1)


def test_non_split_file_gets_the_explicit_witness():
    # A 6-clique whose degree prefix becomes the block, plus the induced
    # C4 0-6-7-1; and a near-clique, whose prefix is no clique.
    block_c4 = list(combinations(range(6), 2)) + [(0, 6), (6, 7), (1, 7)]
    near_clique = [e for e in combinations(range(30), 2) if e not in ((0, 1), (2, 3))]
    for n, lines, blocked in ((8, block_c4, True), (30, near_clique, False)):
        want = graph_from_edges(n, lines)
        g, _ = parse_graph(_file_of(n, lines, want.m))
        assert bool(g.block.size) == blocked
        outcome = _solve_outcome(g)
        assert outcome[0] == "not-split" and outcome == _solve_outcome(want)


def test_parsed_ladder_stores_only_its_independent_rows():
    from splithc.generators import big_delta2_instance

    k = 700
    ladder = big_delta2_instance(k, 250, 80)
    perm = np.random.default_rng(7).permutation(ladder.n)
    ends = np.fromiter(chain.from_iterable(ladder.edges()), dtype=np.int64, count=2 * ladder.m)
    g, _ = parse_graph(render_graph(graph_from_edges(ladder.n, perm[ends].reshape(-1, 2))))
    assert g.block.tolist() == sorted(perm[:k].tolist())
    k_i_edges = ladder.m - k * (k - 1) // 2
    assert g.indices.size == 2 * k_i_edges and g.m == ladder.m


@st.composite
def edge_arrays(draw):
    n = draw(st.integers(0, 30))
    if n < 2:
        return n, np.empty((0, 2), dtype=np.int64)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(pair, max_size=80))
    pairs += [(v, u) for u, v in pairs[::2]]  # both orientations, and duplicates
    return n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


@settings(deadline=None, max_examples=200)
@given(edge_arrays())
def test_graph_from_edges_matches_networkx(case):
    n, arr = case
    g = graph_from_edges(n, arr)
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(arr.tolist())
    assert g.m == ref.number_of_edges()
    assert all(g.neighbors(v).tolist() == sorted(ref[v]) for v in range(n))
    assert list(g.edges()) == sorted(tuple(sorted(e)) for e in ref.edges())
    assert list(g.edges()) == list(loop_edges(g))
    _assert_same_graph(g, unique_graph_from_edges(n, arr))
    _assert_same_graph(g, graph_from_edges(n, [tuple(e) for e in arr.tolist()]))


def test_cycle_roundtrip():
    c = parse_cycle(render_cycle([3, 0, 2, 1]))
    assert c.order == (3, 0, 2, 1)
    with pytest.raises(ParseError):
        parse_cycle("# nothing\n")


@pytest.mark.parametrize("order", [
    (3, 0, 2, 1),
    tuple(np.array([7, 0, 5, 2], dtype=np.int64)),
    tuple(np.array([4, 1], dtype=np.int32)) + (9, True, 2.5, "x"),
    (8,),
    (),
])
def test_certificate_strings_match_str_join(order):
    # ``%s`` formats each entry as ``str`` does, numpy ints and bools
    # included, so the round trip in ``run_batch`` stays as strict.
    out = SolveOutcome(HamCycle(order), None, "Delta2")
    assert certificate_string(out) == "cycle " + ",".join(map(str, order))
    assert render_cycle(HamCycle(order)) == " ".join(map(str, order)) + "\n"
    assert render_cycle(list(order)) == " ".join(map(str, order)) + "\n"


def test_cli_solve_and_verify(tmp_path: Path):
    gpath = tmp_path / "k4.graph"
    write_graph(gpath, complete_graph(4))
    assert main(["solve", str(gpath)]) == 0
    assert main(["recognize", str(gpath)]) == 0

    cyc = tmp_path / "cycle.txt"
    cyc.write_text("0 1 2 3\n", encoding="utf-8")
    assert main(["verify", str(gpath), str(cyc)]) == 0
    cyc.write_text("0 1 3 3\n", encoding="utf-8")
    assert main(["verify", str(gpath), str(cyc)]) == 1

    # No cycle has fewer than three vertices, even where 0 1 is an edge.
    k2 = tmp_path / "k2.graph"
    k2.write_text("split-hc v1 2 1\n0 1\n", encoding="utf-8")
    cyc.write_text("0 1\n", encoding="utf-8")
    assert main(["verify", str(k2), str(cyc)]) == 1


def test_cli_oracle_deep_search(tmp_path: Path, capsys):
    # The vertex-order search goes 1200 levels deep on a non-split cycle.
    gpath = tmp_path / "c1200.graph"
    write_graph(gpath, cycle_graph(1200))
    assert main(["oracle", str(gpath)]) == 0
    assert capsys.readouterr().out.startswith("verdict: cycle\n")


def test_cli_verify_reports_first_bad_edge(tmp_path: Path, capsys):
    gpath = tmp_path / "c4.graph"
    write_graph(gpath, graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    cyc = tmp_path / "cycle.txt"
    cyc.write_text("0 1 3 2\n", encoding="utf-8")
    assert main(["verify", str(gpath), str(cyc)]) == 1
    assert capsys.readouterr().out == "invalid: 1 3 is not an edge\n"
    # Path 0-1-2-3 plus the chord 1-3: in 0 1 2 3 only the closing pair
    # 3 0 is missing; 0 2 1 3 misses 0 2 first, then 3 0.
    write_graph(gpath, graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]))
    for text, bad in (("0 1 2 3\n", "3 0"), ("0 2 1 3\n", "0 2"), ("2 1 0 3\n", "0 3")):
        cyc.write_text(text, encoding="utf-8")
        assert main(["verify", str(gpath), str(cyc)]) == 1
        assert capsys.readouterr().out == f"invalid: {bad} is not an edge\n"


def test_cli_exit_codes(tmp_path: Path, capsys):
    out = tmp_path / "gen.graph"
    # Not a number; required k missing; a key the family does not read.
    for params in (["k=abc"], ["zz=3"], ["k=6", "i=4", "zz=3"]):
        assert main(["gen", "SplitDelta2", *params, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["gen", "NoSuch", "k=1", "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown family NoSuch (known: SplitRandom, ")
    assert not out.exists()
    manifest = tmp_path / "m.manifest"
    manifest.write_text("d2 gen SplitDelta2 k=6 i=4 p=0.9 seed=1\n", encoding="utf-8")
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    manifest.write_text("x gen NoSuch k=1 seed=1\n", encoding="utf-8")
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: unknown family NoSuch (known: SplitRandom, ")

    bad = tmp_path / "bad.graph"
    bad.write_text("split-hc v1 1 1\n0 0\n", encoding="utf-8")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.graph")]) == 2
    pet = tmp_path / "petersen.graph"
    write_graph(pet, petersen_graph())
    assert main(["solve", str(pet)]) == 2  # not split

    p3 = tmp_path / "p3.graph"
    write_graph(p3, graph_from_edges(3, [(0, 1), (1, 2)]))
    assert main(["solve", str(p3)]) == 0
    assert main(["solve", str(p3), "--require-cycle"]) == 1

    # Oracle budgets must be positive; NaN would switch the deadline off.
    manifest.write_text("p3 file p3.graph\n", encoding="utf-8")
    for flags in (["--budget", "0"], ["--budget", "-5"], ["--seconds", "-1"],
                  ["--seconds", "0"], ["--seconds", "nan"]):
        for cmd in (["solve", str(p3)], ["oracle", str(p3)],
                    ["batch", str(manifest), "--out", str(tmp_path / "r.txt")]):
            capsys.readouterr()
            assert main([*cmd, *flags]) == 2, (cmd, flags)
            assert capsys.readouterr().err.startswith("error: "), (cmd, flags)


def test_read_graph_parses_the_file_bytes(tmp_path: Path, monkeypatch):
    # The canonical file and a commented one, as bytes and as text.
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    canonical = render_graph(g, [0, 1])
    commented = "# note\n" + canonical.replace("\n", "  # \u00e9\n", 2)
    for text in (canonical, commented):
        data = text.encode("utf-8")
        assert _outcome(parse_graph, data) == _outcome(parse_graph, text)
    assert _parse_canonical(canonical.encode("ascii")) is not None
    seen = []
    real = io_module.parse_graph
    monkeypatch.setattr(io_module, "parse_graph", lambda data: seen.append(data) or real(data))
    path = tmp_path / "g.graph"
    path.write_text(canonical, encoding="utf-8")
    got, hint = read_graph(path)
    assert seen == [canonical.encode("ascii")] and got == g and hint == (0, 1)
    with pytest.raises(ParseError, match="byte 0xff at offset 6 is not UTF-8"):
        parse_graph(b"split-\xffhc v1 2 0\n")


def _ladder_file(path: Path, k: int, i: int, extra: int, seed: int) -> Path:
    """A relabelled ``big_delta2_instance`` ladder, written with its clique
    explicit, so it parses into a block graph."""
    from splithc.generators import big_delta2_instance

    ladder = big_delta2_instance(k, i, extra)
    perm = np.random.default_rng(seed).permutation(ladder.n)
    ends = np.array(list(ladder.edges()), dtype=np.int64)
    write_graph(path, graph_from_edges(ladder.n, perm[ends]))
    return path


def _in_thread(fn):
    """``fn()`` run on a new thread, so with a new ingest scratch."""
    out = []

    def run():
        try:
            out.append((True, fn()))
        except BaseException as exc:  # re-raised on the calling thread
            out.append((False, exc))

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    ok, value = out[0]
    if not ok:
        raise value
    return value


def _retained() -> dict:
    return dict(graph_module._scratch.buffers)


def _arrays(g: Graph) -> tuple:
    return g.n, g.block.tolist(), g.indptr.tolist(), g.indices.tolist()


def test_scratch_is_not_aliased_by_an_earlier_graph(tmp_path: Path):
    # B is no larger than A, so it is parsed into the buffers A used.
    a = _ladder_file(tmp_path / "a.graph", 120, 40, 10, seed=1)
    b = _ladder_file(tmp_path / "b.graph", 110, 50, 12, seed=2)
    text_a = a.read_text(encoding="utf-8")
    ga, hint_a = read_graph(a)
    assert ga.block.size == 120
    read_graph(b)
    ref_a, ref_hint_a = line_parse_graph(text_a)
    assert ga == ref_a and hint_a == ref_hint_a
    _assert_same_graph(ga, ref_a)
    for arr in (ga.block, ga.indptr, ga.indices, ga.in_block, ga.degrees()):
        for buf in _retained().values():
            assert not np.shares_memory(arr, buf)
    assert _arrays(parse_graph(text_a)[0]) == _arrays(ga)


def test_threads_parse_into_their_own_scratch(tmp_path: Path):
    # Three threads, one file each: more threads than most test machines
    # have cores, so a shared buffer would be written while it is read.
    files = [_ladder_file(tmp_path / "a.graph", 200, 60, 20, seed=3),
             _ladder_file(tmp_path / "b.graph", 150, 70, 15, seed=4),
             _ladder_file(tmp_path / "c.graph", 120, 40, 10, seed=7)]
    serial = [_arrays(read_graph(f)[0]) for f in files]
    results: list[list] = [[] for _ in files]

    def parse_many(j: int) -> None:
        for _ in range(20):
            results[j].append(_arrays(read_graph(files[j])[0]))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many thread switches inside each parse
    try:
        threads = [threading.Thread(target=parse_many, args=(j,)) for j in range(len(files))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert [len(r) for r in results] == [20] * len(files)
    for want, got in zip(serial, results):
        assert all(r == want for r in got)


def test_second_parse_of_the_same_size_allocates_no_buffer(tmp_path: Path):
    a = _ladder_file(tmp_path / "a.graph", 100, 30, 10, seed=5)
    b = tmp_path / "b.graph"
    b.write_bytes(a.read_bytes())

    def parse_twice():
        read_graph(a)
        first = _retained()
        read_graph(b)
        return first, _retained()

    first, second = _in_thread(parse_twice)
    assert {"file", "digits", "flags", "gaps", "ids", "ends", "cells", "seen"} <= first.keys()
    assert second.keys() == first.keys()
    assert all(second[role] is buf for role, buf in first.items())


def test_ingest_above_the_scratch_cap(tmp_path: Path, monkeypatch):
    path = _ladder_file(tmp_path / "a.graph", 150, 50, 10, seed=6)
    want = _in_thread(lambda: _arrays(read_graph(path)[0]))
    cap = 1 << 16
    assert path.stat().st_size > cap
    monkeypatch.setattr(graph_module, "_SCRATCH_CAP", cap)

    def parse():
        g, hint = read_graph(path)
        return g, hint, _retained()

    g, hint, kept = _in_thread(parse)
    assert _arrays(g) == want and hint is None
    assert g == line_parse_graph(path.read_text(encoding="utf-8"))[0]
    assert sum(buf.nbytes for buf in kept.values()) <= cap


def test_cli_input_errors_exit_2(tmp_path: Path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"split-hc v1 3 1\n0 1\xff\n")
    with pytest.raises(ParseError, match="byte 0xff at offset 19 is not UTF-8"):
        read_graph(bad)
    huge = tmp_path / "huge.graph"
    huge.write_text("split-hc v1 4000000000 1\n", encoding="utf-8")
    for cmd, err in ((["solve", str(bad)], "not UTF-8"), (["oracle", str(bad)], "not UTF-8"),
                     (["solve", str(tmp_path)], "Is a directory"),
                     (["recognize", str(tmp_path)], "Is a directory"),
                     (["solve", str(huge)], "2^31 - 1")):
        capsys.readouterr()
        assert main(cmd) == 2, cmd
        out = capsys.readouterr().err
        assert out.startswith("error: ") and err in out, (cmd, out)
    good = tmp_path / "k4.graph"
    write_graph(good, complete_graph(4))
    assert main(["verify", str(good), str(bad)]) == 2
    manifest = tmp_path / "m.manifest"
    manifest.write_bytes(b"k4 file k4.graph \xfe\n")
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r.txt")]) == 2


def test_vertex_count_bound():
    import tracemalloc

    # Refused before anything of size n is allocated.
    tracemalloc.start()
    try:
        for n in (2 ** 31, 4_000_000_000):
            with pytest.raises(IndexOutOfRange, match="2\\^31 - 1"):
                graph_from_edges(n, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(IndexOutOfRange):
        parse_graph("split-hc v1 4000000000 1\n0 1\n")


def test_cli_oracle_uses_pair_search_on_split_input(tmp_path: Path, capsys):
    # The vertex-order search runs out of its 60 s deadline on this ladder;
    # the pair search, given the recognized partition, fits in 5,000 nodes.
    from splithc.generators import big_delta2_instance

    g = big_delta2_instance(1101, 1100)
    gpath = tmp_path / "ladder.graph"
    write_graph(gpath, g)
    assert main(["oracle", str(gpath), "--budget", "5000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: cycle"
    order = [int(v) for v in out[1].removeprefix("certificate: cycle ").split(",")]
    assert sorted(order) == list(range(g.n))
    assert all(g.has_edge(u, v) for u, v in zip(order, order[1:] + order[:1]))
    # Non-split input keeps the vertex-order search.
    pet = tmp_path / "petersen.graph"
    write_graph(pet, petersen_graph())
    assert main(["oracle", str(pet)]) == 0
    assert capsys.readouterr().out == "verdict: no-cycle\ncertificate: exhaustive-search\n"
    # A cycle is printed by ``io.certificate_string``, as ``solve`` prints it.
    c5 = tmp_path / "c5.graph"
    write_graph(c5, cycle_graph(5))
    assert main(["oracle", str(c5)]) == 0
    assert capsys.readouterr().out == "verdict: cycle\ncertificate: cycle 0,1,2,3,4\n"


def test_cli_not_split_near_clique(tmp_path: Path, capsys):
    from conftest import assert_induced_witness

    g = graph_from_edges(80, [e for e in combinations(range(80), 2) if e not in ((0, 1), (2, 3))])
    gpath = tmp_path / "near_clique.graph"
    write_graph(gpath, g)
    assert main(["recognize", str(gpath)]) == 1
    head, kind, verts = capsys.readouterr().out.split()
    assert head == "not-split"
    assert_induced_witness(g, kind, [int(v) for v in verts.split(",")])
    assert main(["solve", str(gpath)]) == 2
    assert capsys.readouterr().err.startswith("error: not a split graph")


def test_cli_oracle_fallback_gate(tmp_path: Path):
    # 2-connected, not K_{1,4}-free: refused without the opt-in flag.
    from conftest import mk_split
    g = mk_split(6, [(0, 1), (0, 2), (0, 3)])
    gpath = tmp_path / "hard.graph"
    write_graph(gpath, g)
    assert main(["solve", str(gpath)]) == 2
    assert main(["solve", str(gpath), "--oracle-fallback"]) == 0


def test_cli_solves_delta3_gap_instance(tmp_path: Path, capsys):
    # The paper's weave misses this in-premise instance; the engine's pair
    # search on the whole graph answers it, so no oracle opt-in is needed.
    gpath = tmp_path / "gap.graph"
    assert main(["gen", "SplitDelta3InPremise", "k=12", "i=10",
                 "--seed", "0", "--out", str(gpath)]) == 0
    capsys.readouterr()
    assert main(["solve", str(gpath)]) == 0
    out = capsys.readouterr().out
    assert "verdict: cycle\n" in out
    assert "method: Delta3\n" in out


def test_cli_gen_reduce_flow(tmp_path: Path):
    out = tmp_path / "bip.graph"
    assert main(["gen", "BipartiteDeg3", "na=4", "nb=4", "plant=1",
                 "--seed", "5", "--out", str(out)]) == 0
    assert main(["reduce", str(out), "--out-prefix", str(tmp_path / "red")]) == 0
    assert (tmp_path / "red.h1.graph").exists()
    assert (tmp_path / "red.h2.graph").exists()
    # Degree histogram counted a second way: endpoints of the edge list.
    g, _ = read_graph(out)
    deg = Counter(v for e in g.edges() for v in e)
    hist = Counter(deg[v] for v in range(g.n))
    want = "degree-histogram: " + " ".join(f"{d}:{c}" for d, c in sorted(hist.items()))
    lines = (tmp_path / "red.manifest").read_text(encoding="utf-8").splitlines()
    assert lines[3] == want
    assert main(["solve", str(tmp_path / "red.h1.graph"), "--oracle-fallback"]) == 0
    # Dotted prefixes keep their tail: run.1 and run.2 must not both
    # write run.h1.graph.
    for tag in ("1", "2"):
        assert main(["reduce", str(out), "--out-prefix", str(tmp_path / f"run.{tag}")]) == 0
    names = sorted(f.name for f in tmp_path.iterdir() if f.name.startswith("run."))
    assert names == [f"run.{t}.{ext}" for t in "12" for ext in ("h1.graph", "h2.graph", "manifest")]
    lines = (tmp_path / "run.2.manifest").read_text(encoding="utf-8").splitlines()
    assert lines[-2:] == ["h1: run.2.h1.graph", "h2: run.2.h2.graph"]


def test_gen_and_manifest_share_one_parameter_reader(tmp_path: Path, capsys):
    # ``split-hc gen`` and a manifest ``gen`` line read key=value tokens
    # with one function: the same message, with the line number added in
    # a manifest, and exit code 2 on either path.
    out = tmp_path / "gen.graph"
    for token, message in (("k=x", "bad parameter value 'k=x' (expected a number)"),
                           ("k", "bad parameter 'k' (expected key=value)")):
        assert main(["gen", "SplitDelta2", token, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(ParseError, match=rf"^{re.escape(message)} \(line 2\)$"):
            parse_manifest(f"# corpus\nx gen SplitDelta2 {token} seed=1\n")
        manifest = tmp_path / "m.manifest"
        manifest.write_text(f"x gen SplitDelta2 {token} seed=1\n", encoding="utf-8")
        assert main(["batch", str(manifest), "--out", str(tmp_path / "r.txt")]) == 2
        assert capsys.readouterr().err == f"error: {message} (line 1)\n"
    assert parse_params(["k=12", "p3=0.5", "i=8", "k=9"]) == {"k": 9, "p3": 0.5, "i": 8}
    assert type(parse_params(["k=12"])["k"]) is int
    (entry,) = parse_manifest("x gen SplitDelta2 k=12 seed=3 i=8\n")
    assert entry.spec == GenSpec("SplitDelta2", {"k": 12, "i": 8}, 3)


def test_manifest_parsing_and_batch(tmp_path: Path):
    write_graph(tmp_path / "k4.graph", complete_graph(4))
    manifest = tmp_path / "m.manifest"
    manifest.write_text(
        "# smoke corpus\n"
        "b-k4 file k4.graph\n"
        "a-d2 gen SplitDelta2 k=6 i=4 seed=9\n"
        "c-cf gen ClawFreeSplit k=6 i=2 seed=4\n",
        encoding="utf-8",
    )
    entries = parse_manifest(manifest.read_text(encoding="utf-8"))
    assert [e.instance_id for e in entries] == ["b-k4", "a-d2", "c-cf"]
    res = run_batch(manifest)
    assert res.discrepancies == 0
    lines = res.report.strip().splitlines()
    # Records sorted by id, six tab-separated fields each.
    assert [ln.split("\t")[0] for ln in lines] == ["a-d2", "b-k4", "c-cf"]
    assert all(len(ln.split("\t")) == 6 for ln in lines)
    assert pretty_report(res.report).startswith("id")


def test_manifest_errors():
    with pytest.raises(ParseError):
        parse_manifest("x file\n")
    with pytest.raises(ParseError):
        parse_manifest("x gen SplitRandom k=3 i=1\n")  # no seed
    with pytest.raises(ParseError):
        parse_manifest("x file a.graph\nx file b.graph\n")
    # An id names its replay file, so it must be a plain file name.
    for bad in ("../escaped", "/tmp/escaped", "sub/x", ".", ".."):
        with pytest.raises(ParseError, match=rf"^instance id {re.escape(repr(bad))} is not "
                                             r"a plain file name \(line 2\)$"):
            parse_manifest(f"ok file a.graph\n{bad} file a.graph\n")


def test_nul_byte_in_manifest_is_a_parse_error(tmp_path: Path, capsys):
    # A NUL in a ``file`` path, or in an id that names a replay file, once
    # reached ``open`` and ended in a ValueError traceback.
    manifest = tmp_path / "m.manifest"
    report = tmp_path / "r.txt"
    for line in ("a file x\0y.graph", "a\0b gen SplitDelta2 k=12 i=8 seed=1"):
        manifest.write_text(line + "\n", encoding="utf-8")
        assert main(["batch", str(manifest), "--out", str(report)]) == 2
        assert capsys.readouterr().err == "error: NUL byte in manifest line (line 1)\n"
        assert not report.exists()


def test_replay_dir_dumps_the_anomalous_instance(tmp_path: Path, monkeypatch, capsys):
    # A node cap of 1 makes the delta-3 route fall through to the exact
    # search, an anomaly that ``--replay-dir`` dumps as a replayable file.
    from splithc import delta3

    monkeypatch.setattr(delta3, "_NODE_CAP", 1)
    spec = "gen SplitDelta3InPremise k=10 i=8 seed=3"
    replay = tmp_path / "replay"
    manifest = tmp_path / "m.manifest"
    manifest.write_text(f"d3 {spec}\n", encoding="utf-8")
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r.txt"),
                 "--replay-dir", str(replay)]) == 0
    assert "anomaly: d3: CaseFallthrough:delta3-cap" in capsys.readouterr().err
    dumped = replay / "d3.graph"
    assert [p.name for p in replay.iterdir()] == ["d3.graph"]
    text = dumped.read_text(encoding="utf-8")
    assert text.startswith("# replay d3: CaseFallthrough:delta3-cap\n")
    (entry,) = parse_manifest(manifest.read_text(encoding="utf-8"))
    assert read_graph(dumped)[0] == generate(entry.spec).graph
    # An id that would write outside the replay directory is refused.
    manifest.write_text(f"../escaped {spec}\n", encoding="utf-8")
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r2.txt"),
                 "--replay-dir", str(replay / "inner")]) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == [
        "d3.graph", "m.manifest", "r.txt", "replay"]


def test_batch_revalidation_raises_invalid_certificate(tmp_path: Path, monkeypatch):
    from splithc import io

    manifest = tmp_path / "m.manifest"
    manifest.write_text("d2 gen SplitDelta2 k=6 i=4 seed=9\n", encoding="utf-8")
    monkeypatch.setattr(io, "validate_ham_cycle", lambda g, cycle: False)
    with pytest.raises(InvalidCertificate):
        run_batch(manifest)
    assert main(["batch", str(manifest), "--out", str(tmp_path / "r.txt")]) == 2


def test_batch_cli_determinism(tmp_path: Path):
    manifest = tmp_path / "m.manifest"
    manifest.write_text(
        "d2-a gen SplitDelta2 k=7 i=5 seed=2\n"
        "d2-b gen SplitDelta2 k=6 i=4 seed=3\n"
        "hc-a gen PlantedHC n=10 seed=4\n",
        encoding="utf-8",
    )
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert main(["batch", str(manifest), "--out", str(r1)]) == 0
    assert main(["batch", str(manifest), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
