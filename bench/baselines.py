#!/usr/bin/env python3
"""One-off traced check of the ROADMAP North-star baselines.

    python3 bench/baselines.py

Traces, with the benchmark's own wrappers: ``recognize_split`` inside
``solve`` on the 6000-clique ladder; ``read_graph`` of a v1 file of about
1.1M edges (parse plus graph build) against the solve that follows; and
``assemble_paths`` inside ``solve`` at |I| = 500, 1000 and 2000 on
insertion-heavy ladders ``big_delta2_instance(2.5|I|, |I|, 0.7|I|)``.
Prints one line per baseline; NOTES.md records what was found.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from splithc import generators, solver  # noqa: E402
from splithc import io as gio  # noqa: E402

from spans import Tracer  # noqa: E402


def traced(tracer: Tracer, fn, *args):
    """Run ``fn`` under a fresh root; self seconds per span name plus the
    root's own duration."""
    start = len(tracer.spans)
    tracer.root("op", fn, *args)
    secs, _, total, _ = tracer.aggregate("op", start)
    return secs, total


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        g = generators.big_delta2_instance(6000, 2000, 0)
        secs, total = traced(tracer, solver.solve, g)
        del g
        print(f"k=6000 ladder: recognize_split {secs['split.recognize']:.2f} s "
              f"of a {secs['solver:total']:.2f} s solve")

        path = HERE.parent / "bench_out" / "baseline-1.1M.graph"
        path.parent.mkdir(exist_ok=True)
        try:
            gio.write_graph(path, generators.big_delta2_instance(1480, 500, 100))
            secs, total = traced(tracer, lambda p: solver.solve(gio.read_graph(p)[0]), path)
        finally:
            path.unlink(missing_ok=True)
        print(f"1.1M-edge file: read_graph {secs['io.read:total']:.2f} s "
              f"(parse {secs['io.parse']:.2f} s + graph build {secs['graph.build']:.2f} s), "
              f"solve {secs['solver:total']:.2f} s")

        for i in (500, 1000, 2000):
            g = generators.big_delta2_instance(5 * i // 2, i, 7 * i // 10)
            secs, total = traced(tracer, solver.solve, g)
            del g
            print(f"|I|={i}: assemble_paths {secs['paths.assemble']:.2f} s "
                  f"of a {secs['solver:total']:.2f} s solve")
    finally:
        tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
