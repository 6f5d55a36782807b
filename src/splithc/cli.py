"""Command-line interface.

Exit codes: 0 = verdict produced / success; 1 = negative verdict where a
positive one was required; 2 = input error; 3 = internal discrepancy
(solver and oracle disagree - the most important signal this tool emits).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as gio
from .errors import InvalidParameter, NotSplitGraph, OracleBudgetExceeded, SplitHCError
from .generators import FAMILIES, GenSpec, generate
from .graph import _cycle_defect
from .oracle import OracleBudget, oracle_solve
from .reduction import bipartite_from_graph, reduce_to_split
from .solver import solve
from .split import NotSplit, recognize_split


def _budget(args) -> OracleBudget:
    try:
        return OracleBudget(nodes=args.budget, seconds=args.seconds)
    except ValueError as exc:
        raise InvalidParameter(f"--budget {args.budget} --seconds {args.seconds}: {exc}") from None


def _cmd_recognize(args) -> int:
    g, _ = gio.read_graph(args.graph)
    p = recognize_split(g)
    if isinstance(p, NotSplit):
        print(f"not-split {p.kind} " + ",".join(map(str, p.vertices)))
        return 1
    print("split K: " + " ".join(map(str, p.clique.tolist())))
    print("split I: " + " ".join(map(str, p.independent.tolist())))
    print(f"deltaI: {p.delta_i}")
    return 0


def _cmd_solve(args) -> int:
    g, _ = gio.read_graph(args.graph)
    try:
        outcome = solve(g, oracle_budget=_budget(args))
    except OracleBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if outcome.method == "OracleFallback" and not args.oracle_fallback:
        print("error: instance outside every polynomial premise; "
              "rerun with --oracle-fallback", file=sys.stderr)
        return 2
    print(f"verdict: {outcome.verdict}")
    print(f"method: {outcome.method}")
    print(f"certificate: {gio.certificate_string(outcome)}")
    if args.require_cycle and not outcome.has_cycle:
        return 1
    return 0


def _cmd_oracle(args) -> int:
    g, _ = gio.read_graph(args.graph)
    budget = _budget(args)
    # A split input gets the pair search; any other the vertex-order search.
    p = recognize_split(g)
    res = oracle_solve(g, budget, partition=None if isinstance(p, NotSplit) else p)
    if not res.decided:
        print(f"verdict: exhausted nodes={res.nodes}")
        return 1
    print(f"verdict: {'cycle' if res.has_cycle else 'no-cycle'}")
    print(f"certificate: {gio.certificate_string(res)}")
    return 0


def _cmd_verify(args) -> int:
    g, _ = gio.read_graph(args.graph)
    cycle = gio.parse_cycle(gio.read_text(args.cycle))
    defect = _cycle_defect(g, cycle.order)
    if defect is not None:
        print(f"invalid: {defect}")
        return 1
    print("valid")
    return 0


def _cmd_reduce(args) -> int:
    g, _ = gio.read_graph(args.graph)
    b = bipartite_from_graph(g)
    out = reduce_to_split(b)
    prefix = Path(args.out_prefix)
    h1, h2, man = (prefix.parent / (prefix.name + ext)
                   for ext in (".h1.graph", ".h2.graph", ".manifest"))
    gio.write_graph(h1, out.h1, clique=b.part_a)
    gio.write_graph(h2, out.h2, clique=b.part_b)
    hist = np.bincount(g.degrees()).tolist()
    manifest = [
        f"# reduction of {args.graph}",
        "partA: " + " ".join(map(str, b.part_a)),
        "partB: " + " ".join(map(str, b.part_b)),
        "degree-histogram: " + " ".join(f"{d}:{c}" for d, c in enumerate(hist) if c),
        f"h1: {h1.name}",
        f"h2: {h2.name}",
    ]
    man.write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"wrote {h1} and {h2}")
    return 0


def _cmd_gen(args) -> int:
    inst = generate(GenSpec(args.family, gio.parse_params(args.params), args.seed))
    gio.write_graph(args.out, inst.graph)
    print(f"wrote {args.out} (n={inst.graph.n}, m={inst.graph.m}, "
          f"attempts={inst.attempts})")
    return 0


def _cmd_batch(args) -> int:
    result = gio.run_batch(args.manifest, oracle_budget=_budget(args),
                           timing=args.timing, replay_dir=args.replay_dir)
    Path(args.out).write_text(result.report, encoding="utf-8")
    if args.pretty:
        sys.stdout.write(gio.pretty_report(result.report))
    for note in result.anomalies:
        print(f"anomaly: {note}", file=sys.stderr)
    print(f"instances: {len(result.report.splitlines())}  "
          f"discrepancies: {result.discrepancies}")
    return 3 if result.discrepancies else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="split-hc",
        description="Certified Hamiltonian-cycle solving on split graphs",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_budget(p):
        p.add_argument("--budget", default=100_000_000, type=int,
                       help="oracle node budget")
        p.add_argument("--seconds", default=60.0, type=float,
                       help="oracle time budget")

    p = sub.add_parser("recognize", help="split recognition with certificate")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("solve", help="decide Hamiltonicity with a certificate")
    p.add_argument("graph")
    p.add_argument("--oracle-fallback", action="store_true",
                   help="allow exact search on out-of-premise instances")
    p.add_argument("--require-cycle", action="store_true",
                   help="exit 1 when the verdict is no-cycle")
    add_budget(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("oracle", help="exact decision by pruned backtracking")
    p.add_argument("graph")
    add_budget(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("verify", help="validate a cycle file against a graph")
    p.add_argument("graph")
    p.add_argument("cycle")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reduce", help="emit the two split images of a "
                                      "bipartite max-degree-3 instance")
    p.add_argument("graph")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("family", help="one of " + ", ".join(FAMILIES))
    p.add_argument("params", nargs="*", help="key=value family parameters")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("batch", help="solve a manifest corpus against the oracle")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock micros (breaks byte-identical reports)")
    p.add_argument("--pretty", action="store_true",
                   help="print a human-readable table to stdout")
    p.add_argument("--replay-dir", default=None,
                   help="dump replayable instances for any anomaly")
    add_budget(p)
    p.set_defaults(fn=_cmd_batch)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NotSplitGraph as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, no permission, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplitHCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
