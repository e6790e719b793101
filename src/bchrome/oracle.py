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
    adj = g.adj
    seen: set[tuple[int, ...]] = set()
    for v in range(g.n):
        if len(adj[v]) == k - 1:
            star = tuple(sorted({v} | adj[v]))
            if all(len(adj[u]) >= k - 1 for u in star) and star not in seen:
                seen.add(star)
                yield star
    eligible = [v for v in range(g.n) if len(adj[v]) >= k - 1]
    for comb in combinations(eligible, k):
        if comb not in seen:
            yield comb


def b_coloring_exists(g: Graph, k: int, lim: SearchLimits | None = None) -> BColoringResult:
    """Complete backtracking search for a b-coloring of g with k colors.

    Chooses k candidate b-vertices with distinct colors 1..k, forces each
    candidate's closed neighborhood to realize all k colors, and extends to
    a proper total coloring.  Finds a witness iff one exists, within budget.

    Consecutive candidate sets share their colored prefix: a vertex at the
    same position of both has the same color, so only the suffix that
    changed is undone and colored again.

    Root rejection.  A set whose root _b_feasible refuses costs its one
    root node, as the search would spend on it, and is not searched: no
    proper assignment of an uncolored v makes the test pass again.  For a
    candidate c next to v, v takes one uncolored neighbour and at most one
    missing color, so too few uncolored neighbours stay too few.  A color
    missing at c that every uncolored neighbour of c already sees is not
    offered to v when v is one of them, and seen colors stay seen, so it
    stays missing and blocked.
    """
    if k < 1:
        raise BadInput("k must be positive")
    lim = lim or SearchLimits()
    if g.n < k:
        return BColoringResult(NO)
    budget = _Budget(lim)
    st = _Colors(g, k)
    adj, is_cand = g.adj, st.is_cand
    # k > Delta: every vertex always has a free color, and _extend ends first-fit.
    first_fit = k > max(map(len, adj))
    status = NO
    prev: tuple[int, ...] = ()
    for cand in _candidate_sets(g, k):
        shared = 0
        for u, v in zip(prev, cand):
            if u != v:
                break
            shared += 1
        for v in prev[shared:]:
            st.unassign(v)
            is_cand[v] = 0
        # The candidates' colors are distinct, so they cannot clash.
        for col, v in enumerate(cand[shared:], shared + 1):
            st.assign(v, col)
            is_cand[v] = 1
        prev = cand
        if not _b_feasible(st, cand):
            # Root rejection: the root is the set's only node.
            found = False if budget.tick() else None
        else:
            # Variable order: the candidates' neighbourhood, then the rest.
            nbhd = sorted({w for v in cand for w in adj[v] if not is_cand[w]})
            found = _extend(st, cand, nbhd, budget, first_fit)
        if found is None:
            status = BUDGET
            break
        if found:
            return BColoringResult(YES, list(st.colors), budget.nodes)  # type: ignore[arg-type]
    return BColoringResult(status, None, budget.nodes)


class _Colors:
    """The search's partial coloring, with the colors around each vertex
    kept up to date: nb[u][col] is the number of u's neighbours colored
    col, bit col of seen[u] is set iff nb[u][col] > 0, and free[u] is the
    number of u's uncolored neighbours.  A test of "col is free at u" or
    "u sees every color" is then one mask operation instead of a scan of
    u's neighbourhood.  is_cand[u] is 1 iff u is in the current candidate
    set; b_coloring_exists sets and clears it.  _extend inlines assign and
    unassign in its loop."""

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


def _extend(st: _Colors, cand, order, budget, first_fit) -> bool | None:
    """DFS extension of a root that _b_feasible accepts; True found (st
    holds the witness), False exhausted (st as on entry), None budget
    exceeded.  `order` lists the candidates' neighbourhood N(cand) - cand
    in ascending order.

    Iterative, with left[i] the colors order[i] has still to try, so the
    depth is not bounded by the interpreter's recursion limit.  Nodes are
    visited (and ticked) in the order of the plain recursive search: the
    root, then one per accepted assignment.

    Incremental test.  Each position of `order` runs _b_feasible,
    restricted to the candidates the assignment can fail; the state before
    it passed the test (the root did in b_coloring_exists, then every
    accepted assignment).  Coloring v with col changes the uncolored count
    and the missing colors only at v's neighbours, and elsewhere only adds
    col to the seen masks of v's neighbours.  So a candidate next to v is
    tested in full, one not next to v that misses col fails iff every
    uncolored neighbour of it now sees col, and the others still pass.

    Once the last position of `order` is accepted every vertex of N[cand]
    is colored, so a missing color would have had no uncolored neighbour
    to take it: the test passed there only because every candidate sees
    all k colors.  The other vertices lie outside N[cand], and coloring
    them changes no candidate's closed neighbourhood, so the test would
    pass again; it is not run there.  When `order` is empty no candidate
    has a neighbour outside cand, and as each has degree >= k - 1, N[v] =
    cand for every candidate v: the k distinct candidate colors make each
    one a b-vertex from the start.

    First-fit completion.  With first_fit (k > Delta) the vertices outside
    N[cand] are colored by _first_fit, not searched.  There the search
    offers each vertex its free colors lowest first and tests nothing, and
    a vertex with fewer than k neighbours always has a free color.  So the
    first color is accepted at every such position, the search never
    backtracks into them, and its witness and node count are those of
    first-fit in ascending order with one node per vertex.  With k <= Delta
    a vertex of degree >= k can run out of colors, so the search goes on
    over the uncolored vertices in ascending order, listed when it first
    gets past N[cand].

    Zero slack.  Inside N(cand) v is not offered a color that
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
    adj, colors, nb, seen, free, is_cand = st.adj, st.colors, st.nb, st.seen, st.free, st.is_cand
    every = (1 << (st.k + 1)) - 2  # bits 1..k
    # (candidate, the colors other than its own)
    targets = [(c, every ^ (1 << col)) for col, c in enumerate(cand, 1)]
    checked = len(order)
    left = [0] * checked
    tick = budget.tick
    depth = 0
    while True:
        if not tick():
            return None
        if depth == checked:
            if first_fit:
                return _first_fit(st, budget)
            if len(order) == checked:
                order = order + [v for v, col in enumerate(colors) if col is None]
                left += [0] * (len(order) - checked)
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
        # st.unassign, st.assign and the incremental test, inline.
        while True:
            col = colors[v]
            if col is not None:
                # Undo v's color: the test refused it, or every
                # extension of it has been tried.
                colors[v] = None
                bit = 1 << col
                for z in adj[v]:
                    row = nb[z]
                    row[col] -= 1
                    if not row[col]:
                        seen[z] ^= bit
                    free[z] += 1
            if not allowed:
                # No color fits order[depth]: go back to the one before it.
                if depth == 0:
                    return False
                depth -= 1
                v = order[depth]
                allowed = left[depth]
                continue
            bit = allowed & -allowed
            allowed ^= bit
            col = bit.bit_length() - 1
            colors[v] = col
            for z in adj[v]:
                nb[z][col] += 1
                seen[z] |= bit
                free[z] -= 1
            if depth >= checked:
                break
            around = adj[v]
            for c, others in targets:
                missing = others & ~seen[c]
                if not missing:
                    continue
                if c in around:
                    if free[c] < missing.bit_count():
                        break
                    blocked = every  # colors that every uncolored neighbour already sees
                    for w in adj[c]:
                        if colors[w] is None:
                            blocked &= seen[w]
                    if missing & blocked:
                        break
                elif missing & bit:
                    for w in adj[c]:
                        if colors[w] is None and not seen[w] & bit:
                            break
                    else:
                        break
            else:
                break
        left[depth] = allowed
        depth += 1


def _first_fit(st: _Colors, budget) -> bool | None:
    """Give every uncolored vertex, in ascending order, its lowest free
    color, with one node each; True done, None budget exceeded.  Needs
    fewer than k neighbours at every uncolored vertex.  The search ends
    here either way, so only `seen` is kept up to date."""
    adj, colors, seen = st.adj, st.colors, st.seen
    every = (1 << (st.k + 1)) - 2  # bits 1..k
    tick = budget.tick
    for v, col in enumerate(colors):
        if col is None:
            allowed = every & ~seen[v]
            bit = allowed & -allowed
            colors[v] = bit.bit_length() - 1
            for z in adj[v]:
                seen[z] |= bit
            if not tick():
                return None
    return True


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
    delta = max(map(len, g.adj))
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
