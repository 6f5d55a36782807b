"""Exception types shared across the package.

Expected negative outcomes (a graph that is not split, a short cycle, a
budget that ran out) are returned as values, not raised.  Exceptions are
reserved for contract violations: bad input, a premise that a caller
promised but did not deliver, a certificate the package built that fails
its own check, or an exact search that ran out of budget where a verdict
was required.
"""

from __future__ import annotations


class SplitHCError(Exception):
    """Base class for all package-specific errors."""


class SelfLoop(SplitHCError):
    """An edge (v, v) was supplied."""


class IndexOutOfRange(SplitHCError):
    """A vertex index outside [0, n) was supplied."""


class NotSplitGraph(SplitHCError):
    """Raised by the solver entry point when the input is not split.

    Carries the forbidden-subgraph witness (kind, vertices).
    """

    def __init__(self, kind: str, vertices: tuple[int, ...]):
        super().__init__(f"not a split graph: induced {kind} on {vertices}")
        self.kind = kind
        self.vertices = vertices


class WitnessNotFound(SplitHCError):
    """The non-split witness search ended without an induced 2K2, C4 or C5.

    Raised in place of returning a wrong certificate; this signals a bug
    in the search, never a property of the input.
    """


class PremiseViolated(SplitHCError):
    """A constructive routine was invoked outside its stated premise."""


class InvalidCertificate(SplitHCError):
    """A cycle or reduction image built by the package failed its
    independent check (a cycle not Hamiltonian, an image not split or not
    K_{1,5}-free).

    Raised in place of emitting it; this signals a bug in a construction,
    never a property of the input.
    """


class DegreeTooHigh(SplitHCError):
    """A bipartite source vertex exceeds the maximum allowed degree."""

    def __init__(self, vertex: int, degree: int, limit: int = 3):
        super().__init__(f"vertex {vertex} has degree {degree} > {limit}")
        self.vertex = vertex
        self.degree = degree


class NotBipartite(SplitHCError):
    """The declared bipartition is invalid, or no bipartition exists.

    ``witness`` is an edge internal to a declared part, an odd closed
    walk discovered during 2-coloring, or the one vertex that the declared
    parts list twice, list outside [0, n) or leave out; ``reason`` then
    says which.
    """

    def __init__(self, witness: tuple[int, ...], reason: str | None = None):
        super().__init__(reason or f"not bipartite: witness {witness}")
        self.witness = witness


class UsesCliqueEdge(SplitHCError):
    """A mapped-back cycle uses an edge internal to the added clique."""

    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"cycle uses clique-internal edge {edge}")
        self.edge = edge


class GenerationExhausted(SplitHCError):
    """Rejection sampling gave up at the configured attempt limit."""

    def __init__(self, attempts: int, family: str):
        super().__init__(f"{family}: no accepted instance in {attempts} attempts")
        self.attempts = attempts
        self.family = family


class InvalidParameter(SplitHCError):
    """A generator was given an unknown family name, a parameter its
    family does not read, or not given one it requires; or an oracle
    budget limit given on the command line is not positive."""


class OracleBudgetExceeded(SplitHCError):
    """The exact solver ran out of budget where a verdict was required."""


class ParseError(SplitHCError):
    """A graph/cycle/manifest file is malformed."""

    def __init__(self, message: str, line_no: int | None = None):
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{message}{where}")
        self.line_no = line_no
