"""Partial colorings, b-vertex checks, greedy completion, certificates.

Colors are 1..k; an unassigned vertex holds None.  Color d+1 plays the role
of the center's color in every construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import BadInput, CompletionFailedError, ConstructionFailed
from .graph import Graph, girth, short_girth


class PartialColoring:
    """k-bounded partial color assignment with incremental properness."""

    __slots__ = ("k", "_colors")

    def __init__(self, n: int, k: int, colors: list[int | None] | None = None):
        if k < 1:
            raise BadInput("k must be positive")
        self.k = k
        self._colors: list[int | None] = list(colors) if colors is not None else [None] * n

    @property
    def n(self) -> int:
        return len(self._colors)

    def color(self, v: int) -> int | None:
        return self._colors[v]

    def colors(self) -> list[int | None]:
        return list(self._colors)

    def assign(self, v: int, color: int, g: Graph) -> None:
        """Assign a color, enforcing range and local properness.

        A clash is a ConstructionFailed: every construction assigns only
        colors its theorem proves free.
        """
        if not (1 <= color <= self.k):
            raise BadInput(f"color {color} outside [1, {self.k}]")
        for w in g.adj[v]:
            if self._colors[w] == color:
                raise ConstructionFailed(
                    f"assign: color {color} on {v} clashes with neighbor {w}"
                )
        self._colors[v] = color

    def swap(self, u: int, v: int) -> None:
        self._colors[u], self._colors[v] = self._colors[v], self._colors[u]

    def is_total(self) -> bool:
        return all(c is not None for c in self._colors)


def available_colors(c: PartialColoring, g: Graph, v: int) -> set[int]:
    """Colors of [k] absent from the closed neighborhood of v."""
    g.check_vertex(v)
    used = {c.color(w) for w in g.adj[v]}
    used.add(c.color(v))
    return {col for col in range(1, c.k + 1) if col not in used}


def is_proper(c: PartialColoring, g: Graph) -> bool:
    """No edge has the same color at both ends; uncolored ends never clash.

    The colored vertices are grouped by color, and each one's neighborhood
    is tested against its own class with one isdisjoint call.
    """
    classes: defaultdict[int, set[int]] = defaultdict(set)
    for v, col in enumerate(c._colors):
        if col is not None:
            classes[col].add(v)
    adj = g.adj
    for cls in classes.values():
        if not all(map(cls.isdisjoint, map(adj.__getitem__, cls))):
            return False
    return True


def b_vertices(c: PartialColoring, g: Graph) -> set[int]:
    """Colored vertices whose closed neighborhood carries all k colors."""
    return {
        v
        for v in range(g.n)
        if c.color(v) is not None and not available_colors(c, g, v)
    }


def is_b_coloring(c: PartialColoring, g: Graph, k: int) -> bool:
    """Proper total coloring using exactly [k], every class owning a b-vertex."""
    if not c.is_total():
        raise BadInput("b-coloring check needs a total coloring")
    if c.k != k:
        return False
    if not is_proper(c, g):
        return False
    classes = {c.color(v) for v in range(g.n)}
    if classes != set(range(1, k + 1)):
        return False
    b_by_class = {c.color(v) for v in b_vertices(c, g)}
    return b_by_class == set(range(1, k + 1))


def greedy_complete(c: PartialColoring, g: Graph) -> PartialColoring:
    """First-fit over the uncolored vertices in ascending order.

    Never recolors; raises CompletionFailedError(v) when a vertex has no
    available color (impossible for k >= max degree + 1).  First fit never
    goes above max degree + 1, so only the classes up to that color are
    built, once an uncolored vertex is met.  Each uncolored vertex takes the
    lowest color whose class misses its neighborhood and joins that class.
    The color is written directly: no neighbor holds it, so c.assign's
    clash scan could not fail.
    """
    colors = c._colors
    if None not in colors:
        return c
    adj = g.adj
    classes = {col: set() for col in range(1, min(c.k, max(map(len, adj)) + 1) + 1)}
    uncolored = []
    for v, col in enumerate(colors):
        if col is None:
            uncolored.append(v)
        elif col in classes:
            classes[col].add(v)
    for v in uncolored:
        nv = adj[v]
        for col, cls in classes.items():
            if cls.isdisjoint(nv):
                colors[v] = col
                cls.add(v)
                break
        else:
            raise CompletionFailedError(v)
    return c


@dataclass(kw_only=True)
class Certificate:
    """Replayable record of a constructed b-coloring.

    The fields are certificate JSON v1's keys after "version", in its key
    order (formats.write_certificate).  b_vertices maps each color class
    (1..k) to its claimed b-vertex.  row_order lists, for matrix-based
    strategies, the S2 vertices of each row; None for strategies without a
    row structure.
    """

    n: int
    m: int
    d: int
    girth: int
    k: int
    strategy: str
    center: int
    neighbor_order: list[int]
    row_order: list[list[int]] | None = None
    colors: list[int]
    b_vertices: dict[int, int]
    provenance: str | None = None


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(cert: Certificate, g: Graph) -> VerifyResult:
    """Accept iff fingerprint, totality, properness, class count and every
    claimed b-vertex check out; Reject carries the first failing predicate."""
    d, claim = g.regular_degree(), cert.girth
    # No cycle is longer than n, so a girth claim above n fails at once.
    if cert.n != g.n or cert.m != g.m or d is None or cert.d != d or claim > g.n:
        return VerifyResult(False, "FingerprintMismatch")
    # A claim of 3..5 is checked by the local test, which is exact there;
    # any other claim by a search that stops at the claimed length.
    actual = short_girth(g) if 3 <= claim <= 5 else girth(g, claim)
    if claim != actual:
        return VerifyResult(False, "FingerprintMismatch")
    if not (0 <= cert.center < g.n):
        return VerifyResult(False, "BadCenter")
    adj = g.adj
    if sorted(cert.neighbor_order) != sorted(adj[cert.center]):
        return VerifyResult(False, "BadNeighborOrder")
    colors = cert.colors
    if len(colors) != g.n or None in colors:
        return VerifyResult(False, "NotTotal")
    # colors is not empty: regular_degree() is None on the empty graph.
    if min(colors) < 1 or max(colors) > cert.k:
        return VerifyResult(False, "ColorOutOfRange")
    if not is_proper(PartialColoring(g.n, cert.k, colors), g):
        return VerifyResult(False, "ImproperEdge")
    # Every color lies in [1, k], so the classes are exactly [k] iff there
    # are k of them; this also bounds k by n before anything is sized by k.
    if len(set(colors)) != cert.k:
        return VerifyResult(False, "WrongColorCount")
    if sorted(cert.b_vertices) != list(range(1, cert.k + 1)):
        return VerifyResult(False, "MissingClass")
    for cls, v in cert.b_vertices.items():
        if not (0 <= v < g.n) or colors[v] != cls:
            return VerifyResult(False, "BadBVertexClass")
        # The colors on N[v] lie in [1, k]; v is a b-vertex iff all k occur.
        seen = set(map(colors.__getitem__, adj[v]))
        seen.add(cls)
        if len(seen) != cert.k:
            return VerifyResult(False, "NotABVertex")
    return VerifyResult(True)
