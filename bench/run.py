#!/usr/bin/env python3
"""Layered benchmark of ``splithc``: one closed-loop caller, one thread.

    python3 bench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0

Builds the workload's corpus from the seed (several times, to time the
set-up), then makes whole passes over it until ``--seconds`` have passed.
Each operation gets a never-touched input and is timed from input to
certificate; every certificate is then checked by ``check.py`` outside
the timed region.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer self times and counts instead.  The last line of
standard output is the JSON result; the lines before it are the report.
See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
WORKLOADS = ("ladder-file", "ladder-mem", "small-mix")


def _import_package() -> None:
    """Put this checkout's ``src`` first on the path, or exit nonzero."""
    src = (ROOT / "src").resolve()
    if not (src / "splithc" / "__init__.py").is_file():
        sys.exit(f"error: no splithc package under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import splithc

    if not Path(splithc.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported splithc from {splithc.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Correctness accounting


def op_problem(item, results, verdicts: dict | None = None) -> str | None:
    """Why the operation's certificates fail to prove its verdicts, or None.

    ``verdicts`` collects, per model key, the verdict and whether its
    certificate proves it on its own, for the oracle cross-check."""
    from check import check

    found = {}
    for key, cert in results:
        c = check(item.models[key], cert)
        if c.problem:
            return f"{key}: {c.problem}"
        if c.needs_oracle and key not in item.oracle_keys:
            return f"{key}: exhaustive-search verdict with no oracle cross-check"
        found[key] = c.verdict
        found[key + ":proven"] = not c.needs_oracle
    want = {"g"} if "g" in item.models else {"h1", "h2"}
    if not want <= found.keys():
        return f"missing certificates for {sorted(want - found.keys())}"
    if item.source_key:
        # The source is a spanning subgraph of each image, and Hamiltonian
        # exactly when both images are.
        both = found["h1"] == found["h2"] == "cycle"
        found.setdefault(item.source_key, "cycle" if both else "no-cycle")
    if verdicts is not None:
        verdicts.update(found)
    return None


# Above this size the oracle can take minutes on inputs the solver answers
# in a millisecond, so verdicts proven by their own certificate skip it.
ORACLE_MAX_N = 16


def crosscheck(item, verdicts: dict) -> str | None:
    """Solver verdicts against ``oracle_solve``; bipartite sources against
    the verdict of both images.  Run once per corpus, untimed."""
    from splithc.graph import graph_from_edges
    from splithc.oracle import oracle_solve

    from workloads import BUDGET

    keys = list(item.oracle_keys) + ([item.source_key] if item.source_key else [])
    for key in keys:
        m = item.models[key]
        if m.n > ORACLE_MAX_N and verdicts.get(key + ":proven", False):
            continue
        res = oracle_solve(graph_from_edges(m.n, m.edge_list()), BUDGET)
        oracle = {"cycle": "cycle", "no_cycle": "no-cycle"}.get(res.kind, res.kind)
        if verdicts.get(key) != oracle:
            return f"{key}: solver says {verdicts.get(key)}, oracle says {oracle}"
    return None


def self_test(verbose: bool = False) -> list[str]:
    """Corrupt real certificates and check that each corruption counts as a
    failed operation; returns the corruptions that were not caught."""
    from check import Model, corruptions

    from workloads import Item, solve_op
    from splithc.graph import graph_from_edges

    cases = {
        "delta1 cycle": (6, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                         + [(0, 4), (1, 4), (2, 5), (3, 5)]),
        "cut vertex": (4, [(0, 1), (0, 2), (1, 2), (0, 3)]),
        "short cycle": (7, [(u, v) for u in range(5) for v in range(u + 1, 5)]
                        + [(0, 5), (1, 5), (0, 6), (1, 6)]),
        "C5 wheel": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] + [(v, 5) for v in range(5)]),
        "2K2": (5, [(0, 1), (2, 3), (0, 4), (1, 4)]),
    }
    missed = []
    for name, (n, edges) in cases.items():
        item = Item(name, lambda: None, solve_op, {"g": Model(n, (), edges)}, oracle_keys=("g",))
        results = solve_op(graph_from_edges(n, edges))
        genuine = op_problem(item, results)
        if genuine:
            missed.append(f"{name}: genuine certificate rejected ({genuine})")
        bad = corruptions(item.models["g"], results[0][1])
        if not bad:
            missed.append(f"{name}: no corruption for {results[0][1]!r}")
        for cert in bad:
            caught = op_problem(item, [("g", cert)])
            if verbose:
                print(f"  {name:12s} {cert[:48]:48s} -> {caught or 'NOT CAUGHT'}")
            if not caught:
                missed.append(f"{name}: corrupted {cert!r} passed")
        # A verdict the oracle contradicts also counts as failed.
        verdict = {}
        op_problem(item, results, verdict)
        if verdict.get("g") in ("cycle", "no-cycle"):
            flipped = {"g": "no-cycle" if verdict["g"] == "cycle" else "cycle"}
            if not crosscheck(item, flipped):
                missed.append(f"{name}: contradicted verdict passed the cross-check")
    return missed


# ---------------------------------------------------------------------------
# Measurement


def timed_setup(setup, seed: int, workdir: Path, tracer=None):
    t0 = time.perf_counter()
    items = tracer.root("setup", setup, seed, workdir) if tracer else setup(seed, workdir)
    return items, time.perf_counter() - t0


class Stats:
    """Operation times, verdicts and failures per corpus item."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]  # untraced passes only
        self.pass_totals: dict[bool, list[float]] = {False: [], True: []}
        self.pass_spans: list[tuple[int, int]] = []  # span range of each traced pass
        self.verdicts: dict[int, dict] = {}
        self.ops = [0] * n
        self.failed = [0] * n
        self.problems: dict[int, str] = {}

    def fail(self, idx: int, problem: str, ops: int = 1) -> None:
        self.failed[idx] = min(self.failed[idx] + ops, self.ops[idx])
        self.problems.setdefault(idx, problem)


def run_pass(items, stats: Stats, tracer=None) -> None:
    """One pass over the corpus, each operation on a fresh input."""
    first_span = len(tracer.spans) if tracer else 0
    total = 0.0
    for idx, item in enumerate(items):
        inp = item.fresh()
        t0 = time.perf_counter()
        try:
            results = tracer.root("op", item.op, inp) if tracer else item.op(inp)
            err = None
        except Exception as exc:  # every failure of an operation is counted, never raised
            results, err = [], f"{type(exc).__name__}: {str(exc)[:120]}"
        dt = time.perf_counter() - t0
        del inp
        total += dt
        if tracer is None:
            stats.times[idx].append(dt)
        verdicts = stats.verdicts.setdefault(idx, {}) if idx not in stats.verdicts else None
        stats.ops[idx] += 1
        problem = err or op_problem(item, results, verdicts)
        if problem:
            stats.fail(idx, problem)
    stats.pass_totals[tracer is not None].append(total)
    if tracer:
        stats.pass_spans.append((first_span, len(tracer.spans)))


def measure(items, seconds: float, tracer=None) -> Stats:
    """Whole passes until ``seconds`` of wall time.  With a tracer,
    untraced and traced passes alternate."""
    stats = Stats(len(items))
    start = time.perf_counter()
    while not stats.pass_totals[False] or time.perf_counter() - start < seconds:
        run_pass(items, stats)
        if tracer is not None:
            tracer.install()
            try:
                run_pass(items, stats, tracer)
            finally:
                tracer.uninstall()
    return stats


def finish_checks(items, stats: Stats) -> None:
    """Cross-check once per corpus; a contradicted item fails every one of
    its operations."""
    for idx, item in enumerate(items):
        if not (item.oracle_keys or item.source_key) or stats.failed[idx]:
            continue
        problem = crosscheck(item, stats.verdicts.get(idx, {}))
        if problem:
            stats.fail(idx, problem, stats.ops[idx])


# ---------------------------------------------------------------------------
# Per-layer metrics

LAYER_SPANS = {
    "io.read_s": "io.read", "io.parse_s": "io.parse", "io.certificate_s": "io.certificate",
    "graph.build_s": "graph.build", "graph.validate_s": "graph.validate",
    "graph.induced_s": "graph.induced",
    "split.two_connected_s": "split.two_connected", "split.star_level_s": "split.star_level",
    "split.upgrade_s": "split.upgrade",
    "paths.hc_delta2_s": "paths.hc_delta2", "paths.short_cycle_s": "paths.short_cycle",
    "paths.assemble_s": "paths.assemble",
    "delta3.prepare_s": "delta3.prepare", "delta3.construct_s": "delta3.construct",
    "oracle.solve_s": "oracle.solve",
    "reduction.reduce_s": "reduction.reduce", "reduction.map_back_s": "reduction.map_back",
    "solver.self_s": "solver", "bench.glue_s": "op",
}
LAYER_COUNTS = {
    "split.not_split": "split.recognize.not_split",
    "graph.validate_calls": "graph.validate.calls",
    "paths.insertions": "paths.assemble.insertions",
    "paths.insertions_v2": "paths.assemble.insertions_v2",
    "paths.insertions_v1": "paths.assemble.insertions_v1",
    "paths.insertions_v0": "paths.assemble.insertions_v0",
    "delta3.contexts": "delta3.prepare.contexts",
    "delta3.in_premise": "solver.in_premise",
    "delta3.fallthroughs": "solver.fallthroughs",
    "oracle.calls": "oracle.solve.calls",
    "oracle.nodes": "oracle.solve.nodes",
    "oracle.exhausted": "oracle.solve.exhausted",
}


def layer_metrics(tracer, stats: Stats) -> dict:
    """Per-layer self times and counts of the quietest traced pass."""
    traced, untraced = stats.pass_totals[True], stats.pass_totals[False]
    quiet = min(range(len(traced)), key=traced.__getitem__)
    own, counts, total, _ = tracer.aggregate("op", *stats.pass_spans[quiet])
    setup_own, setup_counts, _, _ = tracer.aggregate("setup", 0, stats.pass_spans[0][0])
    m: dict[str, tuple[float, str]] = {}
    for name, span in LAYER_SPANS.items():
        m[name] = (own.get(span, 0.0), "s")
    witness = own.get("split.recognize:not_split", 0.0)
    m["split.recognize_s"] = (own.get("split.recognize", 0.0) - witness, "s")
    m["split.witness_s"] = (witness, "s")
    for name, key in LAYER_COUNTS.items():
        m[name] = (counts.get(key, 0), "count")
    parse_total = own.get("io.parse:total", 0.0)
    m["io.parse_mb_per_s"] = (counts.get("io.parse.bytes", 0) / 1e6 / parse_total
                              if parse_total else 0.0, "MB/s")
    in_premise = counts.get("solver.in_premise", 0)
    m["delta3.fallthrough_frac"] = (counts.get("solver.fallthroughs", 0) / in_premise
                                    if in_premise else 0.0, "ratio")
    m["io.render_s"] = (setup_own.get("io.render", 0.0), "s")
    m["generators.generate_s"] = (setup_own.get("generators.generate", 0.0), "s")
    attempts = setup_counts.get("generators.generate.attempts", 0)
    instances = setup_counts.get("generators.generate.instances", 0)
    m["generators.attempts"] = (attempts, "count")
    m["generators.accept_ratio"] = (instances / attempts if attempts else 0.0, "ratio")
    m["trace.overhead_frac"] = ((min(traced) - min(untraced)) / min(untraced), "ratio")
    m["trace.glue_frac"] = (own.get("op", 0.0) / total if total else 0.0, "ratio")
    return m


def unmeasured(tracer) -> list[str]:
    """Per-layer metrics whose patch target no longer exists."""
    from spans import TARGETS

    missing = {span for mod, attr, span, _ in TARGETS if f"{mod}.{attr}" in tracer.missing}
    out = [f"{metric} ({span})" for metric, span in LAYER_SPANS.items() if span in missing]
    if "split.recognize" in missing:
        out.append("split.recognize_s, split.witness_s (split.recognize)")
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that corrupted certificates count as failed, then exit")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    _import_package()

    missed = self_test(verbose=args.self_test)
    if args.self_test:
        print("self-test: " + ("every corruption counted as failed" if not missed
                               else "MISSED: " + "; ".join(missed)))
        return 1 if missed else 0

    from spans import Tracer
    from workloads import SETUPS

    setup = SETUPS[args.workload]
    work = ROOT / "bench_out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            runs = [timed_setup(setup, args.seed, work / f"rep{r}") for r in range(SETUP_REPS)]
            items = runs[0][0]
            setup_times = [dt for _, dt in runs]
            del runs
        else:
            tracer.install()
            try:
                items, _ = timed_setup(setup, args.seed, work / "rep0", tracer)
            finally:
                tracer.uninstall()
        stats = measure(items, args.seconds, tracer)
        finish_checks(items, stats)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = sum(stats.ops), sum(stats.failed)
    passes = len(stats.pass_totals[False])
    print(f"workload {args.workload} seed {args.seed}: {len(items)} instances, {passes} "
          f"passes{' (+ as many traced)' if tracer else ''}, {attempted} operations")
    for idx, problem in sorted(stats.problems.items()):
        print(f"  FAILED {items[idx].label}: {problem}")
    if missed:
        print("  checker self-test missed: " + "; ".join(missed))
    print(f"  {'failed_frac':16s} {failed / attempted:12.4f} ratio ({failed} of {attempted} operations)")
    if tracer is None:
        # An instance's time is the fastest of its passes: the same input,
        # so the spread between passes is interference, not work.
        best = [min(t) for t in stats.times]
        n = f"n={len(best)} instances, best of {passes} passes"
        metrics = {
            "setup_s": (statistics.median(setup_times), "s",
                        f"median of {len(setup_times)} set-ups"),
            "throughput_ips": (len(best) / sum(best), "1/s", n),
            "latency_p50_ms": (statistics.median(best) * 1e3, "ms", n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        }
        for name, (val, unit, note) in metrics.items():
            print(f"  {name:16s} {val:12.4f} {unit:5s} {note}")
        if len(best) >= 100:
            p90 = statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3
            print(f"  {'latency_p90_ms':16s} {p90:12.4f} ms    {n}")
    else:
        metrics = {k: (v, u, "") for k, (v, u) in layer_metrics(tracer, stats).items()}
        for name, (val, unit, _) in sorted(metrics.items()):
            print(f"  {name:26s} {val:14.6f} {unit}")
        print("  per-layer values come from the quietest of the traced passes; "
              "split.witness_s is whole recognize_split calls that return NotSplit")
        print("  unmeasured: " + (", ".join(unmeasured(tracer)) or "none"))
        out = ROOT / "bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"  {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    result = {"correct": failed == 0 and not missed, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
