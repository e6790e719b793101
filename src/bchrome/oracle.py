"""Exhaustive ground truth at desk scale.

Everything here is deliberately independent of the constructive machinery:
b-colorings by complete backtracking, 6-cycle lists by pairwise path
assembly, transversals by injective search.  These are the anti-drift
oracles the property tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .coloring import PartialColoring, is_b_coloring
from .errors import BadInput
from .graph import Graph
from .transversal import SetFamily


@dataclass
class SearchLimits:
    """Budgets; exceeding one aborts with BUDGET, never a wrong answer.

    A negative node budget and a negative or NaN time budget are BadInput:
    the search would stop at once, or (NaN) never on time.
    """

    max_nodes: int = 10_000_000
    time_budget: float = 60.0

    def __post_init__(self):
        if self.max_nodes < 0:
            raise BadInput(f"node budget must be >= 0, got {self.max_nodes}")
        if not self.time_budget >= 0:
            raise BadInput(f"time budget must be a number >= 0, got {self.time_budget}")


YES = "yes"
NO = "no"
BUDGET = "budget"


@dataclass
class BColoringResult:
    status: str
    coloring: list[int] | None = None
    nodes: int = 0  # search nodes, as counted by _Budget.tick

    @property
    def exists(self) -> bool:
        return self.status == YES


class _Budget:
    def __init__(self, lim: SearchLimits):
        self.nodes = 0
        self.max_nodes = lim.max_nodes
        self.deadline = time.monotonic() + lim.time_budget

    def tick(self) -> bool:
        """True while within budget.  The one place a node is counted."""
        self.nodes += 1
        if self.nodes > self.max_nodes:
            return False
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            return False
        return True


def _candidate_sets(g: Graph, k: int):
    """Candidate b-vertex k-subsets in deterministic order.

    Star-shaped sets {v} union N(v) are tried first (they realize the
    colorings the constructive theorems build for regular graphs), then the
    plain ascending-lexicographic enumeration.  Colors are interchangeable,
    so each set is only ever tried with the identity candidate-to-color
    bijection; duplicates are skipped.
    """
    eligible = [v for v in range(g.n) if g.degree(v) >= k - 1]
    seen: set[tuple[int, ...]] = set()
    for v in range(g.n):
        star = tuple(sorted({v} | g.adj[v]))
        if len(star) == k and all(g.degree(u) >= k - 1 for u in star) and star not in seen:
            seen.add(star)
            yield star
    for comb in combinations(eligible, k):
        if comb not in seen:
            yield comb


def b_coloring_exists(g: Graph, k: int, lim: SearchLimits | None = None) -> BColoringResult:
    """Complete backtracking search for a b-coloring of g with k colors.

    Chooses k candidate b-vertices with distinct colors 1..k, forces each
    candidate's closed neighborhood to realize all k colors, and extends to
    a proper total coloring.  Finds a witness iff one exists, within budget.
    """
    if k < 1:
        raise BadInput("k must be positive")
    lim = lim or SearchLimits()
    if g.n < k:
        return BColoringResult(NO)
    budget = _Budget(lim)
    st = _Colors(g, k)
    status = NO
    for cand in _candidate_sets(g, k):
        # The candidates' colors are distinct, so they cannot clash.
        for col, v in enumerate(cand, 1):
            st.assign(v, col)
            st.is_cand[v] = 1
        # Variable order: candidate neighborhoods first, then the rest.
        nbhd = sorted({w for v in cand for w in g.adj[v]} - set(cand))
        rest = sorted(set(range(g.n)) - set(cand) - set(nbhd))
        found = _extend(st, cand, nbhd + rest, len(nbhd), budget)
        if found is None:
            status = BUDGET
            break
        if found:
            return BColoringResult(YES, list(st.colors), budget.nodes)  # type: ignore[arg-type]
        for v in cand:
            st.unassign(v)
            st.is_cand[v] = 0
    return BColoringResult(status, None, budget.nodes)


class _Colors:
    """The search's partial coloring, with the colors around each vertex
    kept up to date: nb[u][col] is the number of u's neighbours colored
    col, bit col of seen[u] is set iff nb[u][col] > 0, and free[u] is the
    number of u's uncolored neighbours.  A test of "col is free at u" or
    "u sees every color" is then one mask operation instead of a scan of
    u's neighbourhood.  is_cand[u] is 1 iff u is in the current candidate
    set; b_coloring_exists sets and clears it."""

    __slots__ = ("adj", "k", "colors", "nb", "seen", "free", "is_cand")

    def __init__(self, g: Graph, k: int):
        self.adj = g.adj
        self.k = k
        self.colors: list[int | None] = [None] * g.n
        self.nb = [[0] * (k + 1) for _ in range(g.n)]
        self.seen = [0] * g.n
        self.free = [len(a) for a in g.adj]
        self.is_cand = bytearray(g.n)

    def assign(self, v: int, col: int) -> None:
        self.colors[v] = col
        nb, seen, free, bit = self.nb, self.seen, self.free, 1 << col
        for z in self.adj[v]:
            nb[z][col] += 1
            seen[z] |= bit
            free[z] -= 1

    def unassign(self, v: int) -> None:
        col = self.colors[v]
        self.colors[v] = None
        nb, seen, free = self.nb, self.seen, self.free
        for z in self.adj[v]:
            row = nb[z]
            row[col] -= 1
            if not row[col]:
                seen[z] &= ~(1 << col)
            free[z] += 1


def _b_feasible(st: _Colors, cand) -> bool:
    """Can every candidate still see all k colors in its closed neighborhood?

    Candidate c needs, for each color missing around it, an uncolored
    neighbour w that has no neighbour of that color, and at least as many
    uncolored neighbours as missing colors.  With the masks and counts that
    is one pass over N(c) for a candidate that misses a color and none for
    one that sees them all.
    """
    adj, colors, seen, free = st.adj, st.colors, st.seen, st.free
    every = (1 << (st.k + 1)) - 2  # bits 1..k
    for c in cand:
        missing = every & ~seen[c] & ~(1 << colors[c])
        if not missing:
            continue
        if free[c] < missing.bit_count():
            return False
        blocked = every  # colors that every uncolored neighbour already sees
        for w in adj[c]:
            if colors[w] is None:
                blocked &= seen[w]
        if missing & blocked:
            return False
    return True


def _extend(st: _Colors, cand, order, checked, budget) -> bool | None:
    """DFS extension along `order`; True found (st holds the witness),
    False exhausted (st as on entry), None budget exceeded.

    Iterative, with left[i] the colors order[i] has still to try, so the
    depth is not bounded by the interpreter's recursion limit.  Nodes are
    visited (and ticked) in the order of the plain recursive search: the
    root, then one per accepted assignment.

    Only the first `checked` positions, the candidates' neighbourhood, run
    _b_feasible; the test is skipped later with the same answer.  Once
    position checked - 1 is accepted, every vertex of N[cand] is colored,
    so a missing color would have had no uncolored neighbour to take it:
    the test passed there only because every candidate sees all k colors.
    Later positions color vertices outside N[cand], which changes no
    candidate's closed neighbourhood, so the test would pass again.  When
    checked == 0 no candidate has a neighbour outside cand, and as each has
    degree >= k - 1, N[v] = cand for every candidate v: the k distinct
    candidate colors make each one a b-vertex from the start.

    Zero slack.  At those first positions v is not offered a color that
    _b_feasible would reject for lack of uncolored neighbours.  A candidate
    c adjacent to v has zero slack when its uncolored neighbours, v among
    them, are exactly as many as the colors it misses (at k = d + 1 on a
    d-regular graph every candidate starts so).  Given a color c already
    sees, v would leave c with the same missing colors and one uncolored
    neighbour fewer, and the pigeonhole test fails; given a color c
    misses, both numbers drop by one.  So v's colors are drawn from the
    intersection of the missing sets of its zero-slack candidate
    neighbours, and exactly the colors the test would reject are skipped:
    the accepted colors, their order, the node count and the witness are
    those of the unfiltered search.
    """
    adj, colors, seen, free, is_cand = st.adj, st.colors, st.seen, st.free, st.is_cand
    every = (1 << (st.k + 1)) - 2  # bits 1..k
    left = [0] * len(order)
    depth = 0
    while True:
        if not budget.tick():
            return None
        if depth == len(order):
            return True
        v = order[depth]
        allowed = every & ~seen[v]
        if depth < checked:
            for c in adj[v]:
                if is_cand[c]:
                    missing = every & ~seen[c] & ~(1 << colors[c])
                    if free[c] == missing.bit_count():
                        allowed &= missing
        left[depth] = allowed
        while True:
            v = order[depth]
            allowed = left[depth]
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                st.assign(v, bit.bit_length() - 1)
                if depth >= checked or _b_feasible(st, cand):
                    break
                st.unassign(v)
            else:
                # No color fits order[depth]: undo the one before it.
                if depth == 0:
                    return False
                depth -= 1
                st.unassign(order[depth])
                continue
            left[depth] = allowed
            depth += 1
            break


@dataclass
class BChromaticResult:
    value: int
    exact: bool  # False means LowerBoundOnly: a larger k ran out of budget
    nodes: int = 0  # search nodes over every k probed


def exact_b_chromatic(g: Graph, lim: SearchLimits | None = None) -> BChromaticResult:
    """Largest k with a b-coloring, scanning Delta+1 downward.

    b-colorings do not nest, so every k is probed independently, each with
    the full budget.  If a budget blocks some larger k the answer is a
    lower bound only.
    """
    if g.n == 0:
        raise BadInput("empty graph has no coloring")
    delta = max(g.degree(v) for v in range(g.n))
    bounded = False
    nodes = 0
    for k in range(delta + 1, 0, -1):
        res = b_coloring_exists(g, k, lim)
        nodes += res.nodes
        if res.status == YES:
            return BChromaticResult(k, not bounded, nodes)
        if res.status == BUDGET:
            bounded = True
    return BChromaticResult(1, not bounded, nodes)


def enumerate_c6_through(g: Graph, x: int) -> list[tuple[int, ...]]:
    """All distinct 6-cycles through x, assembled from neighbor pairs.

    For each unordered pair (a, b) of neighbors of x, every path
    a-u-w-z-b on fresh vertices closes a 6-cycle x-a-u-w-z-b.  Cycles are
    canonicalized by their minimal rotation/reflection so each appears once.
    """
    g.check_vertex(x)
    found: set[tuple[int, ...]] = set()
    nbrs = sorted(g.adj[x])
    for a, b in combinations(nbrs, 2):
        for u in g.adj[a]:
            if u in (x, a, b):
                continue
            for z in g.adj[b]:
                if z in (x, a, b, u):
                    continue
                for w in g.adj[u]:
                    if w in (x, a, b, u, z):
                        continue
                    if w in g.adj[z]:
                        cyc = (x, a, u, w, z, b)
                        found.add(_canonical_cycle(cyc))
    return sorted(found)


def _canonical_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest rotation over both orientations."""
    best = None
    n = len(cyc)
    for seq in (cyc, tuple(reversed(cyc))):
        for r in range(n):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


def transversal_backtrack(fam: SetFamily, max_sets: int = 10) -> dict[int, int] | None:
    """Exhaustive injective choice of representatives; None if impossible."""
    if fam.s > max_sets:
        raise BadInput(f"{fam.s} sets exceeds the desk guard of {max_sets}")
    assignment: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int) -> bool:
        if i == fam.s:
            return True
        for e in sorted(fam.sets[i]):
            if e not in used:
                used.add(e)
                assignment[i] = e
                if rec(i + 1):
                    return True
                used.discard(e)
                del assignment[i]
        return False

    return dict(assignment) if rec(0) else None


def proper_coloring_exists(g: Graph, k: int) -> bool:
    """Plain backtracking k-colorability check (chromatic-number oracle).

    Iterative, like _extend, so the depth is not bounded by the
    interpreter's recursion limit.  colors[v] is the color v holds or last
    held (0 for none), and top[pos] the largest color on order[:pos]: as
    colors are interchangeable, position pos tries none above top[pos] + 1.
    """
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    colors = [0] * g.n
    top = [0] * (g.n + 1)
    pos = 0
    while pos < g.n:
        v = order[pos]
        forbidden = {colors[w] for w in g.adj[v]}
        limit = min(k, top[pos] + 1)
        col = colors[v] + 1
        while col in forbidden:
            col += 1
        if col <= limit:
            colors[v] = col
            top[pos + 1] = max(top[pos], col)
            pos += 1
        else:
            # No color fits order[pos]: try the next one at order[pos - 1].
            colors[v] = 0
            if pos == 0:
                return False
            pos -= 1
    return True


def verify_witness(g: Graph, k: int, colors: list[int]) -> bool:
    """Convenience: does a returned witness pass is_b_coloring?"""
    return is_b_coloring(PartialColoring(g.n, k, list(colors)), g, k)
