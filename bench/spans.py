"""Span tracing from outside the package.

``Tracer.install`` replaces public ``splithc`` functions at the place their
caller looks the name up (``splithc.solver.recognize_split``,
``splithc.delta3.assemble_paths``, ...).  Each wrapper records a span with
its parent and reads counts from the returned object.  Spans stay in
memory until ``write`` dumps them as JSON lines; ``uninstall`` restores the
original functions, so untraced passes run the package untouched.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _attempts(res, args):
    return {"instances": 1, "attempts": getattr(res, "attempts", 1)}


def _recognize(res, args):
    return {"not_split": int(type(res).__name__ == "NotSplit")}


def _insertions(res, args):
    rules = [ev[0] for ev in getattr(res, "insertions", ())]
    return {"insertions": len(rules), **{f"insertions_{r.lower()}": rules.count(r)
                                         for r in ("V2", "V1", "V0")}}


def _oracle(res, args):
    return {"calls": 1, "nodes": res.nodes, "exhausted": int(res.kind == "exhausted")}


def _prepare(res, args):
    return {"contexts": int(type(res).__name__ == "Delta3Context")}


def _parse(res, args):
    return {"bytes": len(args[0]) if args else 0}


def _validate(res, args):
    return {"calls": 1}


def _solve(res, args):
    in_premise = "in-premise" in res.premise
    return {"in_premise": int(in_premise),
            "fallthroughs": int(in_premise and res.method == "OracleFallback")}


# (module whose global is patched, attribute, span name, counter).  The
# module is where the *caller* resolves the name, so one function can be
# patched in several places under one span name.
TARGETS = [
    ("splithc.io", "read_graph", "io.read", None),
    ("splithc.io", "parse_graph", "io.parse", _parse),
    ("splithc.io", "graph_from_edges", "graph.build", None),
    ("splithc.io", "render_graph", "io.render", None),
    ("splithc.io", "certificate_string", "io.certificate", None),
    ("splithc.solver", "solve", "solver", _solve),
    ("splithc.solver", "recognize_split", "split.recognize", _recognize),
    ("splithc.solver", "split_is_two_connected", "split.two_connected", None),
    ("splithc.solver", "star_free_level", "split.star_level", None),
    ("splithc.solver", "hc_delta2", "paths.hc_delta2", None),
    ("splithc.solver", "oracle_solve", "oracle.solve", _oracle),
    ("splithc.solver", "validate_ham_cycle", "graph.validate", _validate),
    ("splithc.paths", "find_short_cycle", "paths.short_cycle", None),
    ("splithc.paths", "assemble_paths", "paths.assemble", _insertions),
    ("splithc.paths", "validate_ham_cycle", "graph.validate", _validate),
    ("splithc.delta3", "prepare_context", "delta3.prepare", _prepare),
    ("splithc.delta3", "construct_cycle", "delta3.construct", None),
    ("splithc.delta3", "find_short_cycle", "paths.short_cycle", None),
    ("splithc.delta3", "assemble_paths", "paths.assemble", _insertions),
    ("splithc.delta3", "induced_subgraph", "graph.induced", None),
    ("splithc.delta3", "validate_ham_cycle", "graph.validate", _validate),
    ("splithc.oracle", "validate_ham_cycle", "graph.validate", _validate),
    ("splithc.reduction", "reduce_to_split", "reduction.reduce", None),
    ("splithc.reduction", "map_solution_back", "reduction.map_back", None),
    ("splithc.reduction", "recognize_split", "split.recognize", _recognize),
    ("splithc.reduction", "upgrade_to_maximum_clique", "split.upgrade", None),
    ("splithc.reduction", "star_free_level", "split.star_level", None),
    ("splithc.reduction", "graph_from_edges", "graph.build", None),
    ("splithc.reduction", "validate_ham_cycle", "graph.validate", _validate),
    ("splithc.generators", "generate", "generators.generate", _attempts),
    ("splithc.generators", "big_delta2_instance", "generators.generate", _attempts),
]


class Tracer:
    """Records spans of the calls made through the patched names.

    A span is ``[name, parent, root, start, duration, child_time, counts]``;
    ``root`` is the index of the enclosing ``op``/``setup`` span, which the
    benchmark opens itself with ``root()``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][2] if parent >= 0 else idx
            rec = [name, parent, root, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = {"error": type(exc).__name__}
                raise
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                rec[3], rec[4] = t0, dur
                if parent >= 0:
                    spans[parent][5] += dur
            if counter is not None:
                rec[6] = counter(res, args)
            return res

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span; returns its result."""
        return self._wrap(name, fn, None)(*args)

    def install(self) -> None:
        for mod_name, attr, span, counter in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(span, orig, counter))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def aggregate(self, root_name: str, start: int = 0,
                  end: int | None = None) -> tuple[dict, dict, float, int]:
        """Totals over ``spans[start:end]`` under roots called ``root_name``.

        Returns seconds per key (``name`` for self time, ``name:total`` for
        the whole span, ``name:not_split`` for the self time of spans whose
        result was a non-split certificate), counts per ``name.counter``,
        and the roots' summed duration and number."""
        secs: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        total, roots = 0.0, 0
        for name, _parent, root, _t0, dur, child, cnt in self.spans[start:end]:
            if self.spans[root][0] != root_name:
                continue
            cnt = cnt or {}
            secs[name] += dur - child
            secs[name + ":total"] += dur
            if cnt.get("not_split"):
                secs[name + ":not_split"] += dur - child
            if name == root_name:
                total += dur
                roots += 1
            for key, val in cnt.items():
                if key != "error":
                    counts[f"{name}.{key}"] += val
        return secs, counts, total, roots

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, parent, root, t0, dur, child, cnt) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": root, "name": name,
                                     "start": t0, "dur": dur, "self": dur - child,
                                     "counts": cnt}) + "\n")
