import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splithc"


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check in the package must raise,
    # and raise a ``SplitHCError`` that the CLI reports with exit code 2,
    # not a bare ``AssertionError``.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [f"{f.name}:{node.lineno}"
             for f in files
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found, found


def _calls_itself(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[int]:
    """Lines where ``fn`` calls its own name, or ``self.<name>``."""
    return [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == fn.name)
        or (isinstance(node.func, ast.Attribute) and node.func.attr == fn.name
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"))]


def test_package_has_no_recursion():
    # Search depth grows with the input, so a function that calls itself
    # fails with RecursionError on a large enough graph; the searches keep
    # explicit stacks instead.
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [f"{f.name}:{line} {fn.name}"
             for f in files
             for fn in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for line in _calls_itself(fn)]
    assert not found, found


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, in string annotations, or listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return used


def test_package_has_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for f in files:
        tree = ast.parse(f.read_text(encoding="utf-8"))
        used = _used_names(tree)
        found += [f"{f.name}:{line} {name}"
                  for name, line in _bound_names(tree).items() if name not in used]
    assert not found, found


def test_every_export_resolves():
    # A name left in ``__all__`` after its function is deleted breaks
    # ``from splithc import *``; the unused-import test does not see it.
    found = []
    for f in sorted(PACKAGE.glob("*.py")):
        name = "splithc" if f.stem == "__init__" else f"splithc.{f.stem}"
        mod = importlib.import_module(name)
        found += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                  if not hasattr(mod, attr)]
    assert not found, found


def test_no_private_function_without_caller():
    # A private function, method or class that nothing in the package
    # names is code that no caller uses: delete it, or move it to the
    # tests that need it.  Dunder methods are called by the language.
    trees = [(f.name, ast.parse(f.read_text(encoding="utf-8")))
             for f in sorted(PACKAGE.glob("*.py"))]
    assert trees
    named = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    found = [f"{name}:{node.lineno} {node.name}"
             for name, tree in trees
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in named]
    assert not found, found


def test_graph_module_imports_no_solver():
    # The certificate checker in graph.py must share no code with a solver.
    tree = ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "splithc"]
        elif isinstance(node, ast.ImportFrom) and (node.level or
                                                   (node.module or "").split(".")[0] == "splithc"):
            module = (node.module or "").removeprefix("splithc").lstrip(".")
            names = [module] if module else [a.name for a in node.names]
            found += [name for name in names if name != "errors"]
    assert not found, found


def test_only_graph_module_reads_raw_csr():
    # A vertex of a graph's clique block stores only its neighbours outside
    # the block, so its CSR row is not its neighbourhood: every other module
    # must go through the ``Graph`` accessors.
    found = [f"{f.name}:{node.lineno} .{node.attr}"
             for f in sorted(PACKAGE.glob("*.py")) if f.name != "graph.py"
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("indptr", "indices")]
    assert not found, found


# Modules on the solve path, where ``np.unique`` is banned: it is far
# slower than ``np.sort`` on numpy 2.4.6 (2-core VM), 0.74 ms against
# 0.04 ms on 6,000 distinct ids, and 0.35 s against 9 ms for a sort plus an
# adjacent-difference mask on the 490k keys of a 245k-edge ladder (the
# note in ``graph._from_edge_array``).
SOLVE_PATH_MODULES = ("split", "paths", "solver", "delta3", "oracle")


def test_solve_path_calls_no_np_unique():
    found = []
    for stem in SOLVE_PATH_MODULES:
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "unique"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{stem}.py:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                found += [f"{stem}.py:{node.lineno}" for a in node.names if a.name == "unique"]
    assert not found, found


def test_partitions_are_built_only_in_split():
    # ``SplitPartition`` holds what ``split._partition_from`` computes, so
    # that its fields keep one format; every other module and test builds
    # a partition through that function.
    files = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "split.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = [f"{f.name}:{node.lineno}"
             for f in files
             for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "SplitPartition" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not found, found


# Traced names that no module binds any more: the tracer reports them as
# unmeasured.  Remove a name here once the benchmark patches it again.
UNRESOLVED_TRACE_TARGETS = {
    "splithc.io.graph_from_edges",
    "splithc.solver.validate_ham_cycle",
    "splithc.delta3.prepare_context",
    "splithc.delta3.assemble_paths",
    "splithc.delta3.induced_subgraph",
    "splithc.delta3.validate_ham_cycle",
    # Deleted: the reduction reads each image's partition off its
    # construction, so ``split.upgrade`` has nothing left to time.
    "splithc.reduction.upgrade_to_maximum_clique",
}


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_trace_targets_import():
    # ``bench/run.py --trace 1`` imports every module named in
    # ``bench/spans.py``'s ``TARGETS`` to patch it; a deleted or renamed
    # module would crash the traced run.  A missing attribute is only
    # reported as unmeasured, so a change that drops a traced name would
    # silently add an unmeasured layer: every target outside the known set
    # must resolve.
    spans = _bench_spans()
    modules = sorted({target[0] for target in spans.TARGETS})
    assert "splithc.delta3" in modules
    missing = set()
    for mod_name, attr, *_ in spans.TARGETS:
        if not hasattr(importlib.import_module(mod_name), attr):
            missing.add(f"{mod_name}.{attr}")
    assert missing <= UNRESOLVED_TRACE_TARGETS, sorted(missing - UNRESOLVED_TRACE_TARGETS)


# Where the delta_i <= 2 solve looks up the stages that the tracer times
# (``paths.hc_delta2``, ``paths.short_cycle``, ``paths.assemble``,
# ``graph.validate``).
DELTA2_TRACED_CALLS = [
    ("splithc.solver", "hc_delta2"),
    ("splithc.paths", "find_short_cycle"),
    ("splithc.paths", "assemble_paths"),
    ("splithc.paths", "validate_ham_cycle"),
]


def test_delta2_solve_calls_traced_names_through_module_globals(monkeypatch):
    # The tracer replaces a module global, so a stage that its caller
    # inlines or binds under another name would drop out of the trace
    # without an error: each of these must still be called through the
    # patched name.
    from splithc.generators import big_delta2_instance
    from splithc.solver import solve

    targets = {(mod_name, attr) for mod_name, attr, *_ in _bench_spans().TARGETS}
    assert set(DELTA2_TRACED_CALLS) <= targets
    calls = set()
    for mod_name, attr in DELTA2_TRACED_CALLS:
        mod = importlib.import_module(mod_name)

        def counted(*args, _fn=getattr(mod, attr), _name=f"{mod_name}.{attr}", **kwargs):
            calls.add(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    assert solve(big_delta2_instance(40, 20, 5)).verdict == "cycle"
    assert calls == {f"{mod_name}.{attr}" for mod_name, attr in DELTA2_TRACED_CALLS}


# Where a solve and a reduction look up ``recognize_split``, which the
# tracer times as ``split.recognize`` and, for its ``NotSplit`` answers, as
# ``split.witness``.
SPLIT_TRACED_CALLS = [
    ("splithc.solver", "recognize_split"),
    ("splithc.reduction", "recognize_split"),
]


def test_recognition_is_called_through_traced_names(monkeypatch):
    # As for the delta_i <= 2 stages: a recognizer bound under another name
    # would drop the non-split witness search out of the trace.
    from splithc.errors import NotSplitGraph
    from splithc.graph import graph_from_edges
    from splithc.reduction import BipartiteInstance, reduce_to_split
    from splithc.solver import solve

    targets = {(mod_name, attr) for mod_name, attr, *_ in _bench_spans().TARGETS}
    assert set(SPLIT_TRACED_CALLS) <= targets
    calls = []
    for mod_name, attr in SPLIT_TRACED_CALLS:
        mod = importlib.import_module(mod_name)

        def counted(*args, _fn=getattr(mod, attr), _name=f"{mod_name}.{attr}", **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    with pytest.raises(NotSplitGraph):
        solve(graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert calls == ["splithc.solver.recognize_split"]
    calls.clear()
    reduce_to_split(BipartiteInstance(graph_from_edges(4, [(0, 2), (1, 3)]), (0, 1), (2, 3)))
    assert calls == ["splithc.reduction.recognize_split"] * 2
