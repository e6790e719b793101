"""The three constructive coloring strategies and their shared machinery.

Each strategy takes a d-regular girth-5 graph with d >= 7 and a center
vertex whose local structure satisfies the strategy's hypothesis, and emits
a replayable certificate for a b-coloring with d+1 colors.  Every "choose
any" point resolves to lowest-identifier-first so runs are reproducible.
A proof step that fails raises ConstructionFailed: such inputs are
counterexample candidates and are never patched silently.  A step that
girth 5 cannot fail carries no check; the docstring of its function gives
the proof.  _checked verifies every certificate and check_bunch_matrix
every matrix, so a wrong proof cannot produce a wrong certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .coloring import (
    Certificate,
    PartialColoring,
    greedy_complete,
    verify_certificate,
)
from .errors import (
    BadInput,
    ConstructionFailed,
    NoStrategyApplies,
    PreconditionViolated,
)
from .graph import (
    Graph,
    BunchStructure,
    bunches,
    closed_bunches,
    count_c6_in_n2,
    count_c6_through_vertex,
    girth,
    short_girth,
    sphere,
)
from .transversal import color_bunch


def _require_regular_girth5(g: Graph) -> int:
    """g's common degree d; PreconditionViolated naming the first check g
    fails, in this order: d-regular, d >= 7, girth 5."""
    d = g.regular_degree()
    if d is None:
        raise PreconditionViolated("graph is not regular")
    if d < 7:
        raise PreconditionViolated(f"d = {d} < 7")
    gth = short_girth(g)
    if gth != 5:
        # short_girth is exact up to 5 and reads inf above; the message
        # names the girth, so only then does the quadratic girth() run.
        raise PreconditionViolated(f"girth = {girth(g) if gth > 5 else gth} != 5")
    return d


def _seed_center(c: PartialColoring, g: Graph, bs: BunchStructure) -> None:
    """Color the center d+1 and each ordered neighbor x_i with color i."""
    c.assign(bs.center, bs.d + 1, g)
    for i, xi in enumerate(bs.neighbor_order, start=1):
        c.assign(xi, i, g)


def _color_first_bunch(c: PartialColoring, g: Graph, bs: BunchStructure) -> None:
    """Bijection X_1 -> {2..d}: ascending colors to ascending positions."""
    for pos, v in enumerate(bs.bunches[0]):
        c.assign(v, pos + 2, g)


def lemma_extension(g: Graph, bs: BunchStructure) -> PartialColoring:
    """Proper partial (d+1)-coloring making the center x and x_1..x_4 of bs
    b-vertices.

    Works for every center of a d-regular girth->=5 graph with d >= 7,
    which the caller has checked: after seeding N[x] and the first bunch,
    bunches 2..4 extend by Hall's theorem regardless of the graph's
    structure.  Then each of the five is a b-vertex.  x sees d+1 on itself
    and 1..d on x_1..x_d.  x_t (t <= 4) sees t on itself, d+1 on x, and
    [d] \\ {t} on its bunch: 2..d on X_1 by the seed, and color_bunch's
    bijection on X_2..X_4.
    """
    c = PartialColoring(g.n, bs.d + 1)
    _seed_center(c, g, bs)
    _color_first_bunch(c, g, bs)
    for t in range(2, 5):
        color_bunch(c, g, bs, t)
    return c


def swap_repair(
    c: PartialColoring, g: Graph, bs: BunchStructure, t: int
) -> PartialColoring:
    """Remove monochromatic edges between X_t and earlier bunches by swaps.

    The caller must meet these preconditions (color_no_c6, the only library
    caller, does): X_1..X_{t-1} each carry a bijection onto [d] minus their
    index, X_t carries one onto [d] \\ {t}, and every S2 vertex has at most
    one neighbor inside S2 (the no-C6 structural condition).  The swap
    partner is found by the case ladder
      (a) a position with no backward neighbor,
      (b) a position with a neighbor in the offending bunch X_i,
      (c) two positions sharing an earlier bunch; take one whose
          neighbor's color differs from the clash color,
      (d) t = d: the position whose neighbor lies in X_k for clash color k.
    The monochromatic count strictly decreases every iteration.

    One case always applies.  Let position s of X_t clash with its neighbor
    in X_i on color k, and let (a) and (b) fail: each of the d-2 positions
    p != s has exactly one earlier neighbor, none in X_i.  These neighbors
    are distinct (one S2 neighbor each), so two of them in one bunch have
    distinct colors.  For t < d the positions fall into t-2 < d-2 bunches,
    so two share a bunch X_l, l != i, and at most one of their neighbors
    has color k: (c) finds the other.  For t = d, if (c) fails each of the
    d-2 bunches other than X_i holds exactly one position.  X_d's colors are
    1..d-1, so k <= d-1, and k != i as X_i does not use color i; so X_k holds
    one position and (d) finds it.  Swaps keep every bijection, so this
    holds at every iteration.
    """
    bunch = bs.bunches[t - 1]
    earlier = {v for b in bs.bunches[: t - 1] for v in b}
    # swaps move colors, never edges: each position's earlier neighbors and
    # their (0-based) bunch indices hold for the whole call
    back = [[w for w in g.adj[v] if w in earlier] for v in bunch]
    back_bunch = [[bs.position[w][0] for w in ws] for ws in back]

    def clashes() -> list[tuple[int, int]]:
        """(earlier bunch position, X_t position) of each monochromatic edge."""
        return [
            (bs.position[w], s)
            for s, v in enumerate(bunch)
            for w in back[s]
            if c.color(w) == c.color(v)
        ]

    current = clashes()
    while current:
        (i, _), s = min(current)
        k = c.color(bunch[s])

        def first(ok) -> int | None:
            return next((p for p in range(len(bunch)) if p != s and ok(p)), None)

        partner = first(lambda p: not back[p])  # (a)
        if partner is None:  # (b)
            partner = first(lambda p: i in back_bunch[p])
        if partner is None:
            # (c); when every position has a distinct earlier bunch this
            # finds nothing and case (d) takes over (only possible at t = d)
            by_bunch: dict[int, list[int]] = {}
            for p in range(len(bunch)):
                if p != s:
                    for ell in back_bunch[p]:
                        by_bunch.setdefault(ell, []).append(p)
            partner = next(
                (
                    p
                    for ell, ps in sorted(by_bunch.items())
                    if ell != i and len(ps) > 1
                    for p in ps
                    if c.color(back[p][0]) != k
                ),
                None,
            )
        if partner is None and t == bs.d:  # (d)
            partner = first(lambda p: k - 1 in back_bunch[p])
        c.swap(bunch[partner], bunch[s])
        before, current = len(current), clashes()
        if len(current) >= before:
            raise ConstructionFailed(
                f"swap-repair: swap did not decrease the monochromatic count at bunch {t}"
            )
    return c


def _bijective_bunch_fill(
    c: PartialColoring, bs: BunchStructure, t: int
) -> None:
    """Assign [d] \\ {t} to bunch t ascending, ignoring properness (the
    repair loop removes any clashes)."""
    cols = [col for col in range(1, bs.d + 1) if col != t]
    for v, col in zip(bs.bunches[t - 1], cols):
        c._colors[v] = col  # deliberate raw write; may clash until repaired


def color_no_c6(g: Graph, x: int) -> Certificate:
    """b-coloring with d+1 colors around a center on no 6-cycle."""
    d = _require_regular_girth5(g)
    bs = bunches(g, x)
    if bs.c6_through(g) != 0:
        raise PreconditionViolated(f"vertex {x} lies on a 6-cycle")
    # This also leaves every S2 vertex v at most one neighbor in S2, as
    # swap_repair needs: at girth 5 two such neighbors w1, w2 lie in
    # different bunches B_i, B_j (else x_i-w1-v-w2 is a 4-cycle), and
    # x-x_i-w1-v-w2-x_j-x is a 6-cycle.
    c = PartialColoring(g.n, d + 1)
    _seed_center(c, g, bs)
    _color_first_bunch(c, g, bs)
    for t in range(2, d + 1):
        _bijective_bunch_fill(c, bs, t)
        swap_repair(c, g, bs, t)
    greedy_complete(c, g)
    cert = _make_certificate(g, "no-c6", x, bs.neighbor_order, c)
    return _checked(cert, g)


def order_by_degree_sequences(bs: BunchStructure, s2deg: dict[int, int]) -> list[int]:
    """Neighbor order for the bounded-C6 strategy, from the S2-degrees
    (``bs.s2_degrees``) of the center's bunches.

    Each neighbor gets the non-ascending S2-degree sequence of its bunch;
    neighbors are sorted with larger sequences first (reverse
    lexicographic), ties broken by ascending identifier.
    """
    # the negated degrees ascending are the sequence negated, so an
    # ascending sort puts larger sequences first
    ranked = sorted(
        (tuple(sorted(-s2deg[v] for v in bunch)), xi)
        for xi, bunch in zip(bs.neighbor_order, bs.bunches)
    )
    return [xi for _, xi in ranked]


def color_bounded_c6(g: Graph, x: int) -> Certificate:
    """b-coloring with d+1 colors when x lies on at most five 6-cycles
    inside G[N2[x]]."""
    d = _require_regular_girth5(g)
    bs = bunches(g, x)
    cnt = bs.c6_in_n2(g)
    if cnt > 5:
        raise PreconditionViolated(f"{cnt} > 5 six-cycles through {x} in N2[x]")
    bs = bunches(g, x, order_by_degree_sequences(bs, bs.s2_degrees(g)))
    c = lemma_extension(g, bs)
    for t in range(5, d + 1):
        color_bunch(c, g, bs, t)
    greedy_complete(c, g)
    cert = _make_certificate(g, "bounded-c6", x, bs.neighbor_order, c)
    return _checked(cert, g)


def _make_certificate(
    g: Graph,
    strategy: str,
    x: int,
    neighbor_order: Iterable[int],
    c: PartialColoring,
    dict_extra_b: dict[int, int] | None = None,
    row_order: list[list[int]] | None = None,
) -> Certificate:
    """Certificate claiming x for class d+1 and the i-th ordered neighbor
    x_i for class i; strategies that replace some neighbor claims pass them
    in dict_extra_b."""
    order = list(neighbor_order)
    d = len(order)
    b_vertices = {d + 1: x}
    for i, xi in enumerate(order, start=1):
        b_vertices[i] = xi
    b_vertices.update(dict_extra_b or {})
    return Certificate(
        n=g.n,
        m=g.m,
        d=d,
        girth=5,  # every strategy starts from _require_regular_girth5
        k=d + 1,
        strategy=strategy,
        center=x,
        neighbor_order=order,
        row_order=row_order,
        colors=c.colors(),
        b_vertices=b_vertices,
    )


def _checked(cert: Certificate, g: Graph) -> Certificate:
    res = verify_certificate(cert, g)
    if not res:
        raise ConstructionFailed(
            f"self-verify: constructed certificate rejected: {res.reason}"
        )
    return cert


SUBCASE_ONE = "one"
SUBCASE_TWO = "two"
SUBCASE_TWO_NO_ROW2 = "two-no-row2-neighbor"


@dataclass
class BunchMatrix:
    """(d-1) x d layout of S2(x) satisfying the four ordering requirements.

    ``cells[r][c]`` is the vertex in paper row r+1, column c+1.  Column 1
    and column d are the two closed bunches; ``col_attach[c]`` is the
    neighbor of x owning column c+1.
    """

    center: int
    col_attach: list[int]
    cells: list[list[int]]
    independent_set: list[int]
    subcase: str

    @property
    def d(self) -> int:
        return len(self.col_attach)

    def row_order(self) -> list[list[int]]:
        return [list(row) for row in self.cells]


def order_two_bunch(g: Graph, x: int) -> BunchMatrix:
    """Order S2(x) into the row/column matrix of the two-bunch theorem.

    Columns 1 and d are the bunches A and B of the two lowest neighbors of
    x whose bunches are closed.  At girth 5 a closed bunch A meets every
    other bunch X_i in a bijection: a vertex of A has its d-1 neighbors
    besides its attachment in N2[x] (A is closed), none in A or N[x] (a 3-
    or 4-cycle) and at most one in X_i (a 4-cycle through x_i), so exactly
    one in each X_i; and two vertices of A share no neighbor in X_i (a
    4-cycle).  So ``nb[v][xi]``, the neighbor of v in the bunch of xi for v
    in A or B, and ``to_a[w]``, ``to_b[w]``, the A- and B-vertex next to w,
    are maps, built once.

    Row j is x_1^j with its S2 neighbors x_i^j (x_i^j in X_i), so the rows
    partition S2, and to_a[x_d^j] = x_1^j.  A vertex other than x_1^j has at
    most one neighbor in row j (else a triangle or a 4-cycle through x_1^j).

    B-permutation lemma: for r in A, every X_d vertex other than to_b[r] has
    exactly one neighbor in row r, a middle cell (columns 2..d-1), and the
    map from it to that cell's column is a bijection onto the d-2 middle
    columns.  Proof: each middle cell w_i of row r has one B-neighbor, as B
    meets X_i in a bijection.  to_b[w_i] = to_b[w_j] would close the 4-cycle
    r-w_i-beta-w_j and to_b[w_i] = to_b[r] a triangle, so these d-2 vertices
    and to_b[r] are distinct: all of B.  An X_d vertex other than to_b[r]
    is adjacent neither to r nor to to_b[r] (B is independent).
    ``row1_nb`` and ``row2_nb`` map each X_d vertex to its neighbor in row
    1 and row 2; phi below is the row-2 map to columns.

    Only requirements-check can fail.  Girth 5 rules out the rest:

    - Step 3 always picks X_3.  Its d-3 candidate bunches give distinct x1v
      (two S2 neighbors of x_d^2 with one A-neighbor close a 4-cycle), none
      of them x_1^2 (a triangle with x_d^2).  At most one x1v is x_1^1, and
      at most one has to_b[x1v] ~ x_2^1, as x_2^1 has one B-neighbor and
      to_b is a bijection from A onto B.  d-3 >= 4 > 2.
    - Each row look-up is of an X_d vertex other than the row's own: x_d^3
      is neither x_d^1 nor x_d^2 (step 3 skips used anchors), and the other
      look-ups are of the X_d vertices of rows d-2 and 4..d-3, which are not
      x_d^2 (last bullet).
    - x_d^3's row-2 neighbor w lies in X_3 when its bunch is ordered: phi is
      injective and phi(x_d^1) = X_2.  So subcase 2 has w = x_3^2.
    - In subcase 2, x_d^3's row-1 neighbor x_4^1 has an unordered bunch:
      not X_2 (step 3 chose X_3 with x_d^3 not~ x_2^1) and not X_3
      (x_d^3-x_3^1-x_3-x_3^2 would close a 4-cycle).  Its neighbors in row
      2 are middle cells (x_4^1 ~ x_1^2 closes a 4-cycle through x_1; the
      one B-neighbor of x_4^1 is x_d^3), so its row-2 neighbor z, if any,
      is unique.  z's bunch is unordered: X_4 closes a triangle through
      x_4, X_3 (z = w) one through x_d^3, and X_2 (z = x_2^2) the 4-cycle
      z-x_d^1-x_1^1-x_4^1.
    - Every row takes an X_d vertex not yet placed, so no two rows share an
      anchor, and every column claimed after step 4 is unordered.  Row 2's
      anchor is not x_1^1 (else x_1^1-x_2^2-x_d^1 is a triangle), and step
      3 skips used anchors.  After step 4 the ordered middle columns are
      X_2 = phi(x_d^1) and X_3, X_4, which are phi(x_d^3) and
      phi(x_d^{d-1}): x_d^{d-1} is the X_d neighbor of the row-2 cell of
      whichever of X_3, X_4 does not hold w.  So x_d^{d-1} is new (phi is
      injective, and it is not x_d^2 by the lemma).  Row d-2 takes to_b[z]
      in subcase 2, new as phi(to_b[z]) is z's unordered column, and
      otherwise an X_d vertex not yet placed, whose column under phi is
      unordered as phi is injective.  Rows 4..d-3 take the d-6 X_d
      vertices left, each with the column phi gives it, unordered for the
      same reason; so every index is written once.
    """
    d = _require_regular_girth5(g)
    bs = bunches(g, x)
    closed = bs.closed_bunch_indices(g)
    if len(closed) < 2:
        raise PreconditionViolated(f"vertex {x} has {len(closed)} closed bunches, need 2")

    log: list[str] = []
    a, b = bs.neighbor_order[closed[0]], bs.neighbor_order[closed[1]]
    A, B = set(bs.bunches[closed[0]]), set(bs.bunches[closed[1]])
    col_of = {v: bs.neighbor_order[i] for v, (i, _) in bs.position.items()}
    nb = {v: {col_of[w]: w for w in g.adj[v] if w in col_of} for v in A | B}
    to_a = {w: v for v in A for w in nb[v].values()}
    to_b = {w: v for v in B for w in nb[v].values()}

    col_attach: list[int | None] = [None] * d
    col_attach[0], col_attach[d - 1] = a, b
    row_x1: list[int | None] = [None] * (d - 1)  # x_1^j per paper row j
    i1: list[int] = []

    def set_row(j: int, x1v: int, step: str) -> None:
        row_x1[j - 1] = x1v
        log.append(f"{step}: row {j} anchored at X_1 vertex {x1v}")

    def used_b() -> set[int]:
        return {to_b[r] for r in row_x1 if r is not None}

    # Step 1: x_d^1 = lowest vertex of X_d; row 1 via its X_1 neighbor.
    xd1 = min(B)
    set_row(1, to_a[xd1], "step1")

    # Step 2: X_2 = lowest unordered bunch; x_2^2 = neighbor of x_d^1 there.
    col_attach[1] = min(set(g.adj[x]) - {a, b})
    x22 = nb[xd1][col_attach[1]]
    set_row(2, to_a[x22], "step2")
    i1.append(x22)
    # the neighbor in rows 1 and 2 of each X_d vertex but the row's own
    # (the B-permutation lemma)
    row1_nb, row2_nb = ({to_b[w]: w for w in nb[r].values() if w not in B} for r in row_x1[:2])

    # Step 3: pick X_3 with x_d^2 ~ x_3^3 and x_d^3 not~ x_2^1 (one always
    # qualifies: docstring).
    xd2, x21 = to_b[row_x1[1]], nb[row_x1[0]][col_attach[1]]
    for cand in sorted(set(g.adj[x]).difference(col_attach)):
        v = nb[xd2][cand]
        x1v = to_a[v]
        if x1v not in row_x1 and not g.has_edge(to_b[x1v], x21):
            col_attach[2] = cand
            set_row(3, x1v, "step3")
            i1.append(v)
            break

    # Step 4: choose X_4 and X_{d-1} by the subcase of where the row-2
    # neighbor of x_d^3 lives.
    xd3 = to_b[row_x1[2]]
    w = row2_nb[xd3]
    if col_of[w] not in col_attach:
        subcase, label = SUBCASE_ONE, "subcase1"
        col_attach[3] = col_of[w]
        i1.append(w)  # x_4^2
    else:
        # Subcase 2: w is x_3^2, and X_4 is the bunch of x_d^3's row-1
        # neighbor, which is unordered (docstring).
        label = "subcase2"
        w1 = row1_nb[xd3]
        col_attach[3] = col_of[w1]
        i1.append(w1)  # x_4^1
        zs = sorted(g.adj[w1].intersection(row2_nb.values()))
        subcase = SUBCASE_TWO if zs else SUBCASE_TWO_NO_ROW2
    # x_d^{d-1} is the X_d neighbor of x_3^2 (subcase 1) or x_4^2 (subcase 2)
    xdd1 = to_b[nb[row_x1[1]][col_attach[2 if subcase == SUBCASE_ONE else 3]]]
    set_row(d - 1, to_a[xdd1], label)
    # x_d^{d-2}; its row-2 neighbor's bunch becomes X_{d-1}
    xdd2 = to_b[zs[0]] if subcase == SUBCASE_TWO else min(B - used_b())
    set_row(d - 2, to_a[xdd2], label)
    col_attach[d - 2] = col_of[row2_nb[xdd2]]

    # Step 5: remaining X_d vertices fill rows 4..d-3 ascending; the bunch
    # holding each one's row-2 neighbor becomes the next column.
    for j, xdj in enumerate(sorted(B - used_b()), start=4):  # paper row j
        set_row(j, to_a[xdj], "step5")
        col_attach[j] = col_of[row2_nb[xdj]]
        i1.append(row2_nb[xdj])  # x_{j+1}^2

    cells = [[r, *(nb[r][c] for c in col_attach[1:-1]), to_b[r]] for r in row_x1]
    bm = BunchMatrix(
        center=x,
        col_attach=[int(c) for c in col_attach],
        cells=cells,
        independent_set=i1,
        subcase=subcase,
    )
    ok, reason = check_bunch_matrix(g, x, bm)
    if not ok:
        raise ConstructionFailed(f"requirements-check: {reason}", log)
    return bm


def check_bunch_matrix(g: Graph, x: int, bm: BunchMatrix) -> tuple[bool, str | None]:
    """Independent validator for the matrix requirements.

    Checks cell bijectivity onto S2(x), column membership, the closedness
    of columns 1 and d, the row structure, the placement and independence
    of the marked set, and the row-2 anchoring of column d-1.
    """
    d = bm.d
    if sorted(bm.col_attach) != sorted(g.adj[x]):
        return False, "columns are not the bunches of x"
    if len(bm.cells) != d - 1 or any(len(r) != d for r in bm.cells):
        return False, "matrix shape is not (d-1) x d"
    flat = [v for row in bm.cells for v in row]
    s2 = sphere(g, x, 2)
    if len(set(flat)) != len(flat) or set(flat) != s2:
        return False, "cells do not biject onto S2(x)"
    for cidx, xi in enumerate(bm.col_attach):
        for r in range(d - 1):
            if not g.has_edge(bm.cells[r][cidx], xi):
                return False, f"cell ({r + 1},{cidx + 1}) not in bunch of {xi}"
    n2 = (set(g.adj[x]) | s2) | {x}
    for cidx in (0, d - 1):
        for r in range(d - 1):
            if not (g.adj[bm.cells[r][cidx]] <= n2):
                return False, f"requirement 1 fails at column {cidx + 1}"
    for r in range(d - 1):
        anchor = bm.cells[r][0]
        expected = set(g.adj[anchor]) - {bm.col_attach[0]}
        if set(bm.cells[r][1:]) != expected:
            return False, f"requirement 2 fails at row {r + 1}"
    marked = []
    for j in range(1, d - 2):  # paper j in [d-3]
        hits = sorted(g.adj[bm.cells[j - 1][d - 1]] & {row[j] for row in bm.cells})
        if len(hits) != 1:
            return False, f"requirement 3 fails: x_d^{j} column-{j + 1} neighbor"
        v = hits[0]
        row = next(r for r in range(d - 1) if bm.cells[r][j] == v)
        if row > 2:
            return False, f"requirement 3 fails: marked vertex of column {j + 1} in row {row + 1}"
        marked.append(v)
    if sorted(marked) != sorted(bm.independent_set):
        return False, "marked set differs from the stored independent set"
    for i, u in enumerate(marked):
        for v in marked[i + 1:]:
            if g.has_edge(u, v):
                return False, "marked set is not independent"
    hits = sorted(g.adj[bm.cells[d - 3][d - 1]] & {row[d - 2] for row in bm.cells})
    if hits != [bm.cells[1][d - 2]]:
        return False, "requirement 4 fails"
    return True, None


def color_two_bunch(g: Graph, x: int) -> Certificate:
    """b-coloring with d+1 colors around a center with two closed bunches.

    In step 6 each cell outside column d has one X_d neighbor, and the
    cells of one column have distinct ones: B is closed, so it meets every
    other bunch in a bijection (order_two_bunch).
    """
    bm = order_two_bunch(g, x)  # checks the graph's preconditions first
    d = bm.d
    k = d + 1
    c = PartialColoring(g.n, k)
    c.assign(x, k, g)
    for i, xi in enumerate(bm.col_attach, start=1):
        c.assign(xi, i, g)
    for j in range(1, d):  # step 3: c(x_1^j) = j+1
        c.assign(bm.cells[j - 1][0], j + 1, g)
    for v in bm.independent_set:  # step 4
        c.assign(v, 1, g)
    for j in range(4, d):  # step 5: c(x_d^j) = d+1
        c.assign(bm.cells[j - 1][d - 1], k, g)
    # step 6: color by the row of the unique X_d neighbor
    xd_set = {bm.cells[r][d - 1]: r + 1 for r in range(d - 1)}
    for cidx in range(d - 1):
        rows = range(d - 1) if cidx < d - 2 else range(3, d - 1)
        for r in rows:
            wv = bm.cells[r][cidx]
            if c.color(wv) is None:
                row = next(xd_set[u] for u in g.adj[wv] if u in xd_set)
                c.assign(wv, row + 1, g)
    # step 7: the six top-right cells, first fit
    for cidx in (d - 2, d - 1):
        for r in range(3):
            wv = bm.cells[r][cidx]
            if c.color(wv) is None:
                used = {c.color(u) for u in g.adj[wv]}
                col = next(col for col in range(1, k + 1) if col not in used)
                c.assign(wv, col, g)
    greedy_complete(c, g)
    extra = {
        d - 1: bm.cells[d - 3][0],  # x_1^{d-2}
        d: bm.cells[d - 2][0],  # x_1^{d-1}
    }
    cert = _make_certificate(
        g, "two-bunch", x, bm.col_attach, c, dict_extra_b=extra, row_order=bm.row_order()
    )
    return _checked(cert, g)


_STRATEGY_FN = {
    "no-c6": color_no_c6,
    "bounded-c6": color_bounded_c6,
    "two-bunch": color_two_bunch,
}
STRATEGIES = tuple(_STRATEGY_FN)


@dataclass
class VertexReport:
    vertex: int
    c6_through: int
    c6_in_n2: int | None
    closed_bunch_count: int | None
    strategies: list[str] = field(default_factory=list)


@dataclass
class HypothesisReport:
    n: int
    m: int
    d: int | None  # None when not regular
    girth: float
    has_c6: bool
    flags: dict[str, bool]
    per_vertex: list[VertexReport]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "girth": None if self.girth == float("inf") else int(self.girth),
            "has_c6": self.has_c6,
            "flags": dict(self.flags),
            "per_vertex": [
                {
                    "vertex": vr.vertex,
                    "c6_through": vr.c6_through,
                    "c6_in_n2": vr.c6_in_n2,
                    "closed_bunches": vr.closed_bunch_count,
                    "strategies": list(vr.strategies),
                }
                for vr in self.per_vertex
            ],
        }


def _listed(c6_through: int, c6_in_n2: int, closed_bunch_count: int) -> list[str]:
    """The strategies whose hypothesis a center with these numbers meets,
    in STRATEGIES order, once the graph is d-regular with d >= 7 and girth 5."""
    listed = []
    if c6_through == 0:
        listed.append("no-c6")
    if c6_in_n2 <= 5:
        listed.append("bounded-c6")
    if closed_bunch_count >= 2:
        listed.append("two-bunch")
    return listed


def vertex_census(g: Graph, x: int, d: int | None, gth: float) -> VertexReport:
    """The hypotheses the strategies need at x, for a graph whose common
    degree (None if irregular) and girth the caller has computed."""
    girth_ok = gth >= 5
    c6t = count_c6_through_vertex(g, x)
    c6n2 = count_c6_in_n2(g, x) if girth_ok else None
    cb = len(closed_bunches(g, x)) if girth_ok else None
    vr = VertexReport(x, c6t, c6n2, cb)
    if d is not None and d >= 7 and gth == 5:
        vr.strategies = _listed(c6t, c6n2, cb)
    return vr


def _local_census(g: Graph, x: int) -> VertexReport:
    """vertex_census at x for a graph already known to be d-regular with
    d >= 7 and girth 5: the same numbers and strategies, read off one
    bunches(g, x) without girth() or a cycle search."""
    bs = bunches(g, x)
    c6t, c6n2, cb = bs.c6_through(g), bs.c6_in_n2(g), len(bs.closed_bunch_indices(g))
    return VertexReport(x, c6t, c6n2, cb, _listed(c6t, c6n2, cb))


def hypothesis_report(g: Graph) -> HypothesisReport:
    """Per-vertex census of the hypotheses the strategies need, plus the
    scope flags of the d >= 7 regime (including the n <= 2d^3-2d^2+2d-1
    bound below which the conjecture is still open)."""
    d = g.regular_degree()
    gth = girth(g)
    per_vertex = [vertex_census(g, x, d, gth) for x in range(g.n)]
    has_c6 = any(vr.c6_through > 0 for vr in per_vertex)
    flags = {
        "regular": d is not None,
        "d_ge_7": d is not None and d >= 7,
        "girth_5": gth == 5,
        "contains_c6": has_c6,
        "n_within_bound": d is not None and g.n <= 2 * d**3 - 2 * d**2 + 2 * d - 1,
    }
    return HypothesisReport(
        n=g.n, m=g.m, d=d, girth=gth, has_c6=has_c6, flags=flags, per_vertex=per_vertex
    )


def auto_color(
    g: Graph, strategy: str | None = None, vertex: int | None = None
) -> Certificate:
    """Certificate from the first (vertex, strategy) pair the census
    accepts: vertices ascending (only ``vertex`` when given), each vertex's
    strategies in STRATEGIES order (only ``strategy`` when given).  The
    scan stops at that vertex, and censuses each vertex locally
    (_local_census), by the same rule as hypothesis_report.  With both
    arguments there is nothing to choose: the strategy runs at the vertex
    and its own guard decides.

    The graph-level preconditions are checked once, before any census; a
    graph that fails them raises PreconditionViolated naming the failed
    check, in every mode.  When no pair is found on a graph that passes, a
    given strategy raises PreconditionViolated and auto mode
    NoStrategyApplies with a reason per scanned vertex.
    ConstructionFailed propagates: an applicable vertex where a proof step
    fails is exactly what this tool exists to surface.
    """
    if strategy is not None and strategy not in _STRATEGY_FN:
        raise BadInput(f"unknown strategy {strategy!r}")
    if strategy is not None and vertex is not None:
        return _STRATEGY_FN[strategy](g, vertex)
    _require_regular_girth5(g)
    reasons: dict[int, str] = {}
    for x in range(g.n) if vertex is None else [vertex]:
        vr = _local_census(g, x)
        listed = [s for s in vr.strategies if strategy in (None, s)]
        if listed:
            return _STRATEGY_FN[listed[0]](g, x)
        reasons[x] = (
            f"c6_through = {vr.c6_through}, c6_in_n2 = {vr.c6_in_n2}, "
            f"closed_bunches = {vr.closed_bunch_count}"
        )
    if strategy is not None:
        raise PreconditionViolated(f"strategy {strategy} applies to no vertex")
    raise NoStrategyApplies(reasons)
