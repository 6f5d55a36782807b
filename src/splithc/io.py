"""File formats, run reports and the batch verification harness.

Graph file format (one graph per file)::

    split-hc v1 <n> <m>
    partition K: <space-separated indices>   # optional
    <u> <v>                                  # m lines, u < v, sorted

``#`` starts a comment anywhere; blank lines are ignored.  Rendering is
canonical (edges sorted lexicographically), so parse/render round-trips
are bit-exact.  Files are UTF-8; other bytes raise ``ParseError``.  The
vertex count n is at most 2^31 - 1, because ``Graph.indices`` is int32;
a larger n raises ``IndexOutOfRange`` before anything of size n is
allocated.

Parsing takes one of two paths with the same results.  A canonical file -
the header, an optional partition line, then ``<digits> <digits>`` edge
lines, each ended by a single ``\n``, with no self-loop and no id outside
``[0, n)`` - has its edge block decoded by numpy, a window of whole
lines at a time, from a scan for the separator bytes.  Their positions
check the layout and give every id's last digit and length; one
vectorized pass per digit place, at most 18, then adds the window's ids
up in one array, int32 when none has more than 9 digits and int64
otherwise, and the ids reach the build as intp.  The ids are checked
there once (below n, no self-loop) and not again by the build.  ``read_graph`` hands the file's
bytes to the parser, so a canonical file is never decoded to text.  Any
other text (comments, blank lines, CRLF, tabs, signs or underscores in
integers, integers of more than 18 digits, bad edges) goes through the
line scanner, which decodes the bytes itself and is also the only place
that reports an error with its line number.

File ingest keeps its large buffers between files: ``read_graph`` reads
the file with ``readinto``, and the canonical decode and the build's
clique search write their line-sized arrays with ``out=``, all into one
scratch per thread (``graph._scratch_array``).  A buffer only grows, and
a thread keeps at most ``graph._SCRATCH_CAP`` bytes (64 MiB) of them; an
ingest that needs more gets fresh arrays for the rest, freed when it
ends, on the same path.  So the next file of a similar size faults in no
fresh pages.  The parsed graph owns all its arrays; what aliases the
scratch (the bytes that ``read_graph`` hands on, the canonical edge
array) is valid until the next parse on the same thread.

Both paths end in one build, ``graph._graph_from_lines``, which finds the
clique of a split graph where the edge lines come in: if the
Hammer-Simeone prefix of the line degrees has all its pairs among the
lines, it becomes the graph's implicit clique block, and its C(|K|, 2)
lines are never sorted into rows.  Any other graph is built explicitly.
The parsed graph is the same graph either way (``Graph.__eq__``).

Report records are line-delimited and tab-separated::

    id  premise  verdict  method  micros  certificate

Certificates are always printed: the cycle itself, the cut vertex,
``disconnected`` or ``too-small`` for a graph that is not 2-connected
without one, the short cycle with its excluded clique vertex, or the
exhaustive-search tag.  By default the micros column is written as 0 so
that reports are byte-identical across runs; pass ``timing=True`` for
wall-clock numbers.

Manifests list instances, one per line, as either ``<id> file <path>``
(relative to the manifest) or ``<id> gen <Family> key=val ... seed=N``,
so corpora are reproducible from seeds alone.  An id is a plain file
name (no directory part, not ``.`` or ``..``), since a replay file is
named after it.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidCertificate, NotSplitGraph, ParseError
from .generators import GenSpec, generate
from .graph import Graph, HamCycle, _graph_from_lines, _scratch_array, validate_ham_cycle
from .oracle import OracleBudget, OracleResult, oracle_solve
from .solver import SolveOutcome, solve

HEADER = "split-hc v1"


def render_graph(g: Graph, clique: Sequence[int] | None = None) -> str:
    lines = [f"{HEADER} {g.n} {g.m}"]
    if clique is not None:
        lines.append("partition K: " + " ".join(str(v) for v in sorted(clique)))
    # Each vertex is formatted once, so an edge line is one concatenation
    # of two table entries instead of a formatting of two integers.
    names = [str(v) for v in range(g.n)]
    heads = [name + " " for name in names]
    lines.extend([heads[u] + names[v] for u, v in g.edges()])
    return "\n".join(lines) + "\n"


def parse_graph(text: str | bytes) -> tuple[Graph, tuple[int, ...] | None]:
    """Parse the graph format from text or its UTF-8 bytes (any bytes-like
    object); returns (graph, clique hint or None)."""
    parsed = _parse_canonical(text)
    if parsed is None:
        parsed = _scan_lines(text if isinstance(text, str) else _decode(text))
    n, m, clique, edges = parsed
    g = _graph_from_lines(n, edges)
    if g.m != m:
        if len(edges) != m:
            raise ParseError(f"header promises {m} edges, file has {len(edges)}")
        # Duplicates were merged; warn by raising only on count mismatch.
    return g, clique


# Header and optional partition line of a canonical file (``render_graph``
# writes an empty partition as "partition K: ").  Integers are capped at
# 18 digits so that every value fits an int64.
_CANONICAL_HEAD = re.compile(
    rb"split-hc v1 ([0-9]{1,18}) ([0-9]{1,18})\n(?:partition K:((?: [0-9]{1,18})*) ?\n)?")
_NEWLINE = ord("\n")
# A space and a newline byte side by side, read as one native uint16.
_SPACE_NEWLINE = np.frombuffer(b" \n", dtype=np.uint16)[0]
# The edge block is decoded in windows of this many bytes, each cut back
# to its last whole line, so that the per-token arrays of one window
# (about 64K tokens: 512 KiB of intp separator positions) stay in a
# core's cache from one pass to the next.  np.flatnonzero has no ``out``,
# so each window's positions are a fresh array of that size.
_WINDOW = 1 << 18


def _parse_canonical(
        text: str | bytes) -> tuple[int, int, tuple[int, ...] | None, np.ndarray] | None:
    """(n, m, clique, edge array) of a canonical file, or None for any
    other text, which the line scanner then parses or rejects.  Works on
    the bytes (any bytes-like object), so text is encoded first.

    The temporaries and the intp edge array live in this thread's ingest
    scratch (``graph._scratch_array``): the edge array is valid only until
    the next parse on the same thread.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    head = _CANONICAL_HEAD.match(data)
    if head is None:
        return None
    n, m = int(head[1]), int(head[2])
    clique = None if head[3] is None else tuple(int(x) for x in head[3].split())
    raw = np.frombuffer(data, dtype=np.uint8)[head.end():]
    if raw.size == 0:
        return n, m, clique, np.empty((0, 2), dtype=np.intp)
    if raw[-1] != _NEWLINE:
        return None
    # Digit values of the block behind 18 bytes of padding, so that
    # padded[18 - p:][i] is the digit p places left of byte i.
    padded = _scratch_array("digits", raw.size + 18, np.uint8)
    padded[:18] = 0
    digit = padded[18:]
    np.subtract(raw, np.uint8(ord("0")), out=digit)
    # Every non-digit byte is a separator (so is any byte above 0x7f).
    flags = np.greater(digit, 9, out=_scratch_array("flags", raw.size, np.bool_))
    count = np.count_nonzero(flags)
    if count % 2:
        return None
    ids = _scratch_array("ids", count, np.intp)
    done = start = 0
    while start < raw.size:
        # The separators of the window's whole lines.  They must alternate
        # space, newline (checked two bytes at a time), and every token
        # between them must have 1 to 18 digits: a gap of 2 to 19 from the
        # separator before (start - 1 for the window's first token).
        seps = np.flatnonzero(flags[start:start + _WINDOW])
        t = seps.size - seps.size % 2
        if t == 0:
            return None
        seps = seps[:t]
        seps += start
        place = _scratch_array("place", t, np.uint8)
        inside = _scratch_array("inside", t, np.bool_)
        # Every index is in range: "clip", unlike "raise", writes to
        # ``out`` without an intermediate buffer.
        raw.take(seps, out=place, mode="clip")
        if np.not_equal(place.view(np.uint16), _SPACE_NEWLINE, out=inside[:t // 2]).any():
            return None
        gap = _scratch_array("gaps", t, np.int32)
        gap[0] = seps[0] - start + 1
        np.subtract(seps[1:], seps[:-1], out=gap[1:])
        width = int(gap.max()) - 1
        if gap.min() < 2 or width > 18:
            return None
        short = _scratch_array("short_gaps", t, np.uint8)
        np.copyto(short, gap, casting="unsafe")
        # Token j ends just before separator j; its digit at place p
        # (1 = ones) is digit[seps[j] - p] while p < gap[j], and 0 from
        # there on (every token has a ones digit).  One Horner step per
        # place, highest first, in place: in int32, in the gaps' buffer,
        # when no id of the window has more than 9 digits (an int32 step
        # costs half an int64 one), and in the intp ids otherwise.
        out = ids[done:done + t]
        total = gap if width <= 9 else out
        for p in range(width, 0, -1):
            np.take(padded[18 - p:], seps, out=place, mode="clip")
            if p > 1:
                np.greater(short, p, out=inside)
                place *= inside
            if p == width:
                np.copyto(total, place)
            else:
                total *= 10
                total += place
        pairs = total.reshape(-1, 2)
        if total.max() >= n or np.equal(pairs[:, 0], pairs[:, 1], out=inside[:t // 2]).any():
            return None
        if total is not out:
            np.copyto(out, total)
        done += t
        start = int(seps[-1]) + 1
    return n, m, clique, ids.reshape(-1, 2)


def _scan_lines(text: str) -> tuple[int, int, tuple[int, ...] | None, list[tuple[int, int]]]:
    """(n, m, clique, edge list) of any well-formed text, line by line;
    raises ``ParseError`` at the first bad line."""
    n = m = None
    clique: tuple[int, ...] | None = None
    edges: list[tuple[int, int]] = []
    for line_no, line in _content_lines(text):
        if n is None:
            parts = line.split()
            if len(parts) != 4 or " ".join(parts[:2]) != HEADER:
                raise ParseError(f"bad header {line!r}", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"bad header counts {line!r}", line_no) from None
            if n < 0 or m < 0:
                raise ParseError("negative counts in header", line_no)
            continue
        if line.startswith("partition K:"):
            try:
                clique = tuple(int(x) for x in line.split(":", 1)[1].split())
            except ValueError:
                raise ParseError("bad partition line", line_no) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge line, got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge {line!r}", line_no) from None
        if u == v:
            raise ParseError(f"self-loop {u}", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge {u} {v} outside [0, {n})", line_no)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing header")
    return n, m, clique, edges


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of ``text``, numbered from 1, cut
    at its ``#`` and stripped; lines that this leaves blank are skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _decode(data: bytes, where: str = "") -> str:
    """``data`` as UTF-8 text; ``ParseError`` for bytes that are not UTF-8."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{where}byte 0x{exc.object[exc.start]:02x} at offset "
                         f"{exc.start} is not UTF-8") from None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of a file; ``ParseError`` for bytes that are not UTF-8."""
    return _decode(Path(path).read_bytes(), f"{path}: ")


def read_graph(path: str | Path) -> tuple[Graph, tuple[int, ...] | None]:
    # The file is read into this thread's ingest scratch, whose pages stay
    # mapped between files, and parse_graph gets a view of its bytes: a
    # canonical file is never copied or decoded, and the line scanner
    # decodes any other.  The view is overwritten by the next read on this
    # thread; the returned graph does not alias it.
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        buf = memoryview(_scratch_array("file", size + 1, np.uint8))
        got = 0
        while got < len(buf) and (step := f.readinto(buf[got:])):
            got += step
        # One byte more than the size told means the file grew, or has no
        # size (a pipe): the rest is read as bytes.
        data = buf[:got] if got <= size else bytes(buf) + f.read()
    return parse_graph(data)


def write_graph(path: str | Path, g: Graph, clique: Sequence[int] | None = None) -> None:
    Path(path).write_text(render_graph(g, clique), encoding="utf-8")


def render_cycle(cycle: HamCycle | Sequence[int]) -> str:
    order = cycle.order if isinstance(cycle, HamCycle) else tuple(cycle)
    # One C-level format; ``%s`` gives each entry as ``str`` does.
    return ("%s " * len(order) % order)[:-1] + "\n"


def parse_cycle(text: str) -> HamCycle:
    vals: list[int] = []
    for line_no, line in _content_lines(text):
        try:
            vals.extend(int(x) for x in line.split())
        except ValueError:
            raise ParseError(f"bad cycle entry on {line!r}", line_no) from None
    if not vals:
        raise ParseError("empty cycle file")
    return HamCycle(tuple(vals))


def certificate_string(outcome: SolveOutcome | OracleResult) -> str:
    """The certificate text of a solve, or of a decided oracle search."""
    if outcome.cycle is not None:
        order = outcome.cycle.order
        return "cycle " + ("%s," * len(order) % order)[:-1]
    return outcome.certificate.render()


def parse_params(tokens: Sequence[str], line_no: int | None = None) -> dict[str, float]:
    """``key=value`` tokens as a dict, later keys winning; a value with a
    ``.`` is a float, any other an int.  Raises ``ParseError`` (at
    ``line_no`` when given) on a token with no ``=`` or a bad number."""
    params: dict[str, float] = {}
    for kv in tokens:
        if "=" not in kv:
            raise ParseError(f"bad parameter {kv!r} (expected key=value)", line_no)
        key, val = kv.split("=", 1)
        try:
            params[key] = float(val) if "." in val else int(val)
        except ValueError:
            raise ParseError(f"bad parameter value {kv!r} (expected a number)", line_no) from None
    return params


@dataclass(frozen=True)
class ManifestEntry:
    instance_id: str
    kind: str  # "file" or "gen"
    path: str = ""
    spec: GenSpec | None = None


def parse_manifest(text: str) -> list[ManifestEntry]:
    entries: list[ManifestEntry] = []
    for line_no, line in _content_lines(text):
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"manifest line too short: {line!r}", line_no)
        instance_id, kind = parts[0], parts[1]
        # ``run_batch`` opens ``file`` paths and names replay files after ids.
        if "\0" in line:
            raise ParseError("NUL byte in manifest line", line_no)
        if instance_id in (".", "..") or Path(instance_id).name != instance_id:
            raise ParseError(f"instance id {instance_id!r} is not a plain file name", line_no)
        if kind == "file":
            entries.append(ManifestEntry(instance_id, "file", path=parts[2]))
            continue
        if kind != "gen":
            raise ParseError(f"unknown manifest kind {kind!r}", line_no)
        params = parse_params(parts[3:], line_no)
        if "seed" not in params:
            raise ParseError("gen entry missing seed", line_no)
        seed = params.pop("seed")  # ``generate`` checks it with the parameters
        entries.append(ManifestEntry(instance_id, "gen", spec=GenSpec(parts[2], params, seed)))
    ids = [e.instance_id for e in entries]
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate instance ids in manifest")
    return entries


def load_manifest_instance(entry: ManifestEntry, base: Path) -> Graph:
    if entry.kind == "file":
        g, _ = read_graph(base / entry.path)
        return g
    return generate(entry.spec).graph


@dataclass(frozen=True)
class BatchResult:
    report: str
    discrepancies: int
    anomalies: tuple[str, ...]


def run_batch(manifest_path: str | Path, oracle_budget: OracleBudget | None = None,
              timing: bool = False, replay_dir: str | Path | None = None) -> BatchResult:
    """Solve every manifest instance, cross-check against the oracle, and
    emit the report; discrepancies are the tool's most important signal.

    Records are ordered by instance id.  A discrepancy is counted only for
    decided disagreements: an oracle cross-check that exhausts its budget
    is ignored, and nothing in the record marks it.  ``oracle_budget``
    (None: ``OracleBudget()``) bounds the solve and the cross-check alike.
    """
    manifest_path = Path(manifest_path)
    entries = sorted(parse_manifest(read_text(manifest_path)),
                     key=lambda e: e.instance_id)
    lines: list[str] = []
    anomalies: list[str] = []
    discrepancies = 0
    for entry in entries:
        g = load_manifest_instance(entry, manifest_path.parent)
        t0 = time.perf_counter()
        try:
            outcome = solve(g, oracle_budget=oracle_budget)
        except NotSplitGraph as exc:
            lines.append(_record(entry.instance_id, "not-split", "error",
                                 "-", 0, f"witness {exc.kind}"))
            continue
        micros = int((time.perf_counter() - t0) * 1e6) if timing else 0
        cert = certificate_string(outcome)
        if outcome.cycle is not None:
            # Round-trip the certificate and re-validate on load.
            reloaded = parse_cycle(render_cycle(outcome.cycle))
            if not validate_ham_cycle(g, reloaded):
                raise InvalidCertificate(f"certificate failed revalidation: {entry.instance_id}")
        oracle_res = oracle_solve(g, oracle_budget)
        agree = True
        if oracle_res.decided:
            agree = oracle_res.has_cycle == outcome.has_cycle
        if not agree:
            discrepancies += 1
            anomalies.append(f"{entry.instance_id}: solver={outcome.verdict} "
                             f"oracle={'cycle' if oracle_res.has_cycle else 'no-cycle'}")
            if replay_dir is not None:
                _dump_replay(Path(replay_dir), entry.instance_id, g, "verdict-mismatch")
        if outcome.anomaly:
            anomalies.append(f"{entry.instance_id}: {outcome.anomaly}")
            if replay_dir is not None:
                _dump_replay(Path(replay_dir), entry.instance_id, g, outcome.anomaly)
        lines.append(_record(entry.instance_id, outcome.premise, outcome.verdict,
                             outcome.method, micros, cert))
    return BatchResult("\n".join(lines) + "\n", discrepancies, tuple(anomalies))


def _record(instance_id: str, premise: str, verdict: str, method: str,
            micros: int, certificate: str) -> str:
    return "\t".join((instance_id, premise, verdict, method, str(micros), certificate))


def _dump_replay(replay_dir: Path, instance_id: str, g: Graph, tag: str) -> None:
    replay_dir.mkdir(parents=True, exist_ok=True)
    body = f"# replay {instance_id}: {tag}\n" + render_graph(g)
    (replay_dir / f"{instance_id}.graph").write_text(body, encoding="utf-8")


def pretty_report(report: str) -> str:
    """Human-readable table of a machine report."""
    rows = [line.split("\t") for line in report.splitlines() if line]
    if not rows:
        return "(empty report)\n"
    headers = ["id", "premise", "verdict", "method", "micros", "certificate"]
    widths = [max(len(h), *(len(r[i]) if i < len(r) else 0 for r in rows))
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in rows:
        out.append("  ".join((r[i] if i < len(r) else "").ljust(w)
                             for i, w in enumerate(widths)))
    return "\n".join(out) + "\n"
