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
from .errors import BadInput, FamilyTooLarge
from .graph import Graph
from .transversal import SetFamily


@dataclass
class SearchLimits:
    """Budgets; exceeding one aborts with BUDGET, never a wrong answer."""

    max_nodes: int = 10_000_000
    time_budget: float = 60.0


YES = "yes"
NO = "no"
BUDGET = "budget"


@dataclass
class BColoringResult:
    status: str
    coloring: list[int] | None = None

    @property
    def exists(self) -> bool:
        return self.status == YES


class _Budget:
    def __init__(self, lim: SearchLimits):
        self.nodes = 0
        self.max_nodes = lim.max_nodes
        self.deadline = time.monotonic() + lim.time_budget

    def tick(self) -> bool:
        """True while within budget."""
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
    ran_out = False

    for cand in _candidate_sets(g, k):
        colors: list[int | None] = [None] * g.n
        ok = True
        for idx, v in enumerate(cand):
            col = idx + 1
            if any(colors[w] == col for w in g.adj[v]):
                ok = False
                break
            colors[v] = col
        if not ok:
            continue
        # Variable order: candidate neighborhoods first, then the rest.
        nbhd = sorted({w for v in cand for w in g.adj[v]} - set(cand))
        rest = sorted(set(range(g.n)) - set(cand) - set(nbhd))
        order = nbhd + rest
        res = _extend(g, k, colors, cand, order, budget)
        if res is None:
            ran_out = True
            break
        if res:
            return BColoringResult(YES, [c for c in colors])  # type: ignore[misc]
    if ran_out:
        return BColoringResult(BUDGET)
    return BColoringResult(NO)


def _b_feasible(g: Graph, k: int, colors: list[int | None], cand) -> bool:
    """Can every candidate still see all k colors in its closed neighborhood?"""
    for v in cand:
        present = {colors[w] for w in g.adj[v] if colors[w] is not None}
        present.add(colors[v])
        missing = set(range(1, k + 1)) - present
        if not missing:
            continue
        uncolored = [w for w in g.adj[v] if colors[w] is None]
        if len(uncolored) < len(missing):
            return False
        for col in missing:
            if not any(
                all(colors[z] != col for z in g.adj[w]) for w in uncolored
            ):
                return False
    return True


def _extend(g, k, colors, cand, order, budget) -> bool | None:
    """DFS extension; True found, False exhausted, None budget exceeded.

    Iterative, with one frame [vertex, forbidden colors, last color tried,
    position in order] per colored vertex, so the depth is not bounded by
    the interpreter's recursion limit.  Nodes are visited (and ticked) in
    the order of the plain recursive search.
    """
    frames: list[list] = []
    pos = 0
    while True:
        if not budget.tick():
            for frame in frames:
                colors[frame[0]] = None
            return None
        while pos < len(order) and colors[order[pos]] is not None:
            pos += 1
        if pos == len(order):
            return True
        v = order[pos]
        frames.append([v, {colors[w] for w in g.adj[v] if colors[w] is not None}, 0, pos])
        while frames:
            frame = frames[-1]
            v, forbidden, last, _ = frame
            colors[v] = None
            for col in range(last + 1, k + 1):
                if col in forbidden:
                    continue
                colors[v] = col
                if _b_feasible(g, k, colors, cand):
                    break
                colors[v] = None
            else:
                frames.pop()
                continue
            frame[2] = col
            pos = frame[3] + 1
            break
        else:
            return False


@dataclass
class BChromaticResult:
    value: int
    exact: bool  # False means LowerBoundOnly: a larger k ran out of budget


def exact_b_chromatic(g: Graph, lim: SearchLimits | None = None) -> BChromaticResult:
    """Largest k with a b-coloring, scanning Delta+1 downward.

    b-colorings do not nest, so every k is probed independently.  If a
    budget blocks some larger k the answer is a lower bound only.
    """
    if g.n == 0:
        raise BadInput("empty graph has no coloring")
    delta = max(g.degree(v) for v in range(g.n))
    bounded = False
    for k in range(delta + 1, 0, -1):
        res = b_coloring_exists(g, k, lim)
        if res.status == YES:
            return BChromaticResult(k, exact=not bounded)
        if res.status == BUDGET:
            bounded = True
    return BChromaticResult(1, exact=not bounded)


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
        raise FamilyTooLarge(f"{fam.s} sets exceeds the desk guard of {max_sets}")
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
    """Plain backtracking k-colorability check (chromatic-number oracle)."""
    colors: list[int | None] = [None] * g.n
    order = sorted(range(g.n), key=lambda v: -g.degree(v))

    def rec(pos: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        forbidden = {colors[w] for w in g.adj[v] if colors[w] is not None}
        limit = min(k, max([colors[w] or 0 for w in range(g.n)], default=0) + 1)
        for col in range(1, limit + 1):
            if col not in forbidden:
                colors[v] = col
                if rec(pos + 1):
                    return True
                colors[v] = None
        return False

    return rec(0)


def verify_witness(g: Graph, k: int, colors: list[int]) -> bool:
    """Convenience: does a returned witness pass is_b_coloring?"""
    return is_b_coloring(PartialColoring(g.n, k, list(colors)), g, k)
