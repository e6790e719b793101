"""The three coloring strategies, the matrix orderer and its checker."""

import ast
import copy
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from bchrome import construct
from bchrome.coloring import (
    PartialColoring,
    available_colors,
    b_vertices,
    is_proper,
    verify_certificate,
)
from bchrome.construct import (
    auto_color,
    check_bunch_matrix,
    color_bounded_c6,
    color_no_c6,
    color_two_bunch,
    hypothesis_report,
    lemma_extension,
    order_by_degree_sequences,
    order_two_bunch,
    swap_repair,
)
from bchrome.errors import (
    BadInput,
    ConstructionFailed,
    NoStrategyApplies,
    PreconditionViolated,
)
from bchrome.generators import GenSpec, cycle, petersen, random_regular_girth
from bchrome.graph import bunches, count_c6_through_vertex, relabel

from conftest import CountingColoring, swap_repair_run, synthetic_bunch_graph


def test_guards_reject_small_degree(pet):
    for fn in (color_no_c6, color_bounded_c6, color_two_bunch):
        with pytest.raises(PreconditionViolated):
            fn(pet, 0)


def test_guards_reject_irregular():
    from bchrome.graph import build_graph

    g = build_graph(3, [(0, 1)])
    # lemma_extension leaves the graph check to color_bounded_c6, its caller
    for fn in (color_no_c6, color_bounded_c6, color_two_bunch):
        with pytest.raises(PreconditionViolated, match="graph is not regular"):
            fn(g, 0)


def test_lemma_extension_hs(hs, random_d7_n400):
    c = lemma_extension(hs, bunches(hs, 0))
    assert is_proper(c, hs)
    bv = b_vertices(c, hs)
    assert 0 in bv
    order = sorted(hs.adj[0])
    for xi in order[:4]:
        assert xi in bv
    # the seed coloring: center d+1, neighbors 1..d in order
    assert c.color(0) == 8
    for i, xi in enumerate(order, start=1):
        assert c.color(xi) == i
    # the center and x_1..x_4 are b-vertices at every center: of HS in the
    # default order, and of the n = 400 graph in color_bounded_c6's order
    for g, by_s2_degree in ((hs, False), (random_d7_n400, True)):
        for x in range(g.n):
            bs = bunches(g, x)
            if by_s2_degree:
                bs = bunches(g, x, order_by_degree_sequences(bs, bs.s2_degrees(g)))
            c = lemma_extension(g, bs)
            for v in (x, *bs.neighbor_order[:4]):
                assert not available_colors(c, g, v), (x, v)


def test_swap_repair_clears_clashes_and_decreases():
    # swap_repair_run asserts per call: no clash left, swaps <= clashes
    for d in (7, 9):
        for seed in range(10):
            g, c, calls = swap_repair_run(d, seed)
            assert len(calls) == d - 1
            assert is_proper(c, g)


# Swaps per synthetic_bunch_graph(d, seed) run, seeds 0..39, and a digest of
# the final colorings of all 160 runs.  The 1,200 swap_repair calls make 549
# swaps: 382 by case (a), 107 by (b), 59 by (c) and 1 by (d).
PINNED_REPAIR_SWAPS = {
    7: [0, 1, 4, 2, 2, 4, 2, 3, 3, 2, 5, 2, 0, 3, 2, 4, 3, 1, 3, 0,
        4, 4, 0, 3, 3, 3, 5, 2, 5, 1, 3, 4, 4, 4, 2, 4, 2, 4, 2, 4],
    8: [2, 4, 1, 3, 3, 3, 4, 1, 5, 3, 7, 3, 2, 4, 5, 3, 2, 3, 4, 1,
        3, 3, 3, 3, 0, 3, 2, 1, 4, 2, 4, 4, 3, 7, 1, 2, 5, 1, 7, 2],
    9: [4, 4, 3, 5, 1, 5, 2, 7, 5, 4, 1, 7, 6, 1, 3, 4, 6, 3, 4, 7,
        3, 4, 1, 6, 5, 4, 2, 5, 8, 4, 3, 3, 1, 3, 1, 7, 4, 5, 4, 3],
    10: [4, 4, 2, 1, 4, 8, 4, 6, 5, 1, 6, 5, 3, 3, 2, 2, 3, 4, 5, 7,
         3, 5, 2, 1, 7, 0, 4, 4, 7, 3, 6, 4, 4, 3, 3, 9, 5, 3, 4, 3],
}
PINNED_REPAIR_DIGEST = "66367188b320a84d"


def _digest(obj) -> str:
    """First 16 hex digits of the sha256 of obj as JSON."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def test_swap_repair_is_pinned():
    colorings, swaps, calls = [], {}, []
    for d, pinned in PINNED_REPAIR_SWAPS.items():
        swaps[d] = []
        for seed in range(len(pinned)):
            _, c, run = swap_repair_run(d, seed)
            colorings.append(c.colors())
            swaps[d].append(c.swaps)
            calls.extend(run)
    assert swaps == PINNED_REPAIR_SWAPS
    assert len(calls) == 1200
    assert sum(1 for clashes, _ in calls if clashes) == 433
    assert sum(n for _, n in calls) == 549
    assert _digest(colorings) == PINNED_REPAIR_DIGEST


def test_swap_repair_stops_when_a_swap_does_not_help(monkeypatch):
    # the count check is the loop's termination: with swaps that change
    # nothing, the first swap of a run that needs one must raise, not spin
    tried = []

    def stuck(self, u, v):
        tried.append((u, v))
        assert len(tried) < 100, "swap_repair does not stop"

    monkeypatch.setattr(PartialColoring, "swap", stuck)
    assert PINNED_REPAIR_SWAPS[7][1] == 1
    with pytest.raises(
        ConstructionFailed, match="swap did not decrease the monochromatic count"
    ):
        swap_repair_run(7, 1)
    assert len(tried) == 1


def test_swap_repair_noop_when_clean(hs):
    bs = bunches(hs, 0)
    c = lemma_extension(hs, bs)
    # bunch 2 is already properly colored; repairing it must not touch it
    before = c.colors()
    counted = CountingColoring(hs.n, c.k, before)
    swap_repair(counted, hs, bs, 2)
    assert counted.swaps == 0
    assert counted.colors() == before


def test_order_by_degree_sequences_petersen(pet):
    # every S2 vertex of Petersen has induced degree 2, so all sequences tie
    # and the order falls back to ascending identifiers
    bs = bunches(pet, 0)
    assert order_by_degree_sequences(bs, bs.s2_degrees(pet)) == [1, 4, 5]


def test_order_by_degree_sequences_puts_busy_bunches_first():
    g = synthetic_bunch_graph(7, 3)
    bs = bunches(g, 0)
    order = order_by_degree_sequences(bs, bs.s2_degrees(g))
    s2 = {v for xi in g.adj[0] for v in g.adj[xi] if v != 0}

    def seq(xi):
        return sorted(
            (sum(1 for w in g.adj[v] if w in s2) for v in g.adj[xi] if v != 0),
            reverse=True,
        )

    seqs = [seq(xi) for xi in order]
    assert seqs == sorted(seqs, reverse=True)


def test_color_no_c6_end_to_end(no_c6_instance):
    g = no_c6_instance
    cert = color_no_c6(g, 0)
    assert cert.k == 8
    assert cert.strategy == "no-c6"
    assert verify_certificate(cert, g).ok


def test_color_no_c6_rejects_vertex_on_c6(no_c6_instance):
    g = no_c6_instance
    busy = next(v for v in range(g.n) if count_c6_through_vertex(g, v) > 0)
    with pytest.raises(PreconditionViolated):
        color_no_c6(g, busy)


def _random_girth5_graphs():
    for n, d in ((24, 3), (30, 3), (30, 4), (36, 4)):
        for seed in (0, 1):
            yield random_regular_girth(GenSpec(n=n, d=d, girth_min=5, seed=seed))


def test_two_s2_neighbors_put_the_center_on_a_6_cycle(hs, no_c6_instance):
    """color_no_c6 relies on this: at girth 5, an S2 vertex with two
    neighbors in S2 closes a 6-cycle through the center."""
    premises = 0
    for g in (hs, no_c6_instance, *_random_girth5_graphs()):
        for x in range(g.n):
            if max(bunches(g, x).s2_degrees(g).values()) > 1:
                premises += 1
                assert count_c6_through_vertex(g, x) > 0, x
    assert premises > 400


def test_color_bounded_c6_end_to_end(no_c6_instance):
    g = no_c6_instance
    cert = color_bounded_c6(g, 0)
    assert cert.k == 8
    assert cert.strategy == "bounded-c6"
    assert verify_certificate(cert, g).ok


def test_color_bounded_c6_rejects_busy_center(hs):
    # every Hoffman-Singleton vertex sits on far more than five 6-cycles
    with pytest.raises(PreconditionViolated):
        color_bounded_c6(hs, 0)


def test_order_two_bunch_requirements(hs):
    for x in (0, 17, 42):
        bm = order_two_bunch(hs, x)
        ok, reason = check_bunch_matrix(hs, x, bm)
        assert ok, reason
        assert bm.d == 7
        assert len(bm.independent_set) == bm.d - 3


def _hs_and_relabelled(hs):
    perm = list(range(hs.n))
    random.Random(1).shuffle(perm)
    return hs, relabel(hs, perm)


# Digests over every center of HS and of HS relabelled by random.Random(1):
# the matrices, and the (step, log) of the failure raised when the
# requirements check refuses each matrix (what a counterexample dump holds).
# Both were recorded with the search-based ordering the row maps replaced.
ORDER_TWO_BUNCH_DIGEST = "8f47ca5d12597196"
ORDER_TWO_BUNCH_FAILURE_DIGEST = "50329cba3568b25b"


def test_order_two_bunch_is_pinned(hs):
    matrices = [vars(order_two_bunch(g, x)) for g in _hs_and_relabelled(hs) for x in range(g.n)]
    assert _digest(matrices) == ORDER_TWO_BUNCH_DIGEST


def test_order_two_bunch_failure_log_is_pinned(hs, monkeypatch):
    monkeypatch.setattr(construct, "check_bunch_matrix", lambda g, x, bm: (False, "refused"))
    dumps = []
    for g in _hs_and_relabelled(hs):
        for x in range(g.n):
            with pytest.raises(ConstructionFailed) as exc:
                order_two_bunch(g, x)
            dumps.append([exc.value.step, exc.value.log])
    assert dumps[0][0] == "requirements-check: refused"
    assert _digest(dumps) == ORDER_TWO_BUNCH_FAILURE_DIGEST


def test_b_permutation_lemma(hs):
    """order_two_bunch's B-permutation lemma, read off g.adj alone at every
    center, ordered pair (A, B) of closed bunches and anchor r in A of HS and
    one relabelling: r's B-neighbor and the B-neighbors of r's middle cells
    are all of B, and every other B vertex has exactly one neighbor in row r,
    a middle cell, one per middle column."""
    checked = 0
    for g in _hs_and_relabelled(hs):
        for x in range(g.n):
            bunch = {xi: g.adj[xi] - {x} for xi in g.adj[x]}
            s2 = set().union(*bunch.values())
            n2 = s2 | g.adj[x] | {x}
            closed = [xi for xi in bunch if all(g.adj[v] <= n2 for v in bunch[xi])]
            for a in closed:
                for b in closed:
                    if a == b:
                        continue
                    B = bunch[b]
                    middle_cols = g.adj[x] - {a, b}
                    for r in bunch[a]:
                        (rb,) = g.adj[r] & B
                        middle = (g.adj[r] & s2) - B
                        b_nbs = [g.adj[w] & B for w in middle]
                        assert all(len(nbs) == 1 for nbs in b_nbs)
                        assert sorted([rb, *(v for nbs in b_nbs for v in nbs)]) == sorted(B)
                        cols = []
                        for beta in B - {rb}:
                            (w,) = g.adj[beta] & (middle | {r, rb})
                            assert w in middle
                            (col,) = g.adj[w] & middle_cols
                            cols.append(col)
                        assert sorted(cols) == sorted(middle_cols)
                        checked += 1
    assert checked == 2 * 50 * 42 * 6


def test_two_bunch_needs_two_closed_bunches(no_c6_instance):
    # the planted graph passes the graph checks; its vertex 0 has no closed
    # bunch, because every S2(0) vertex has neighbors outside N2[0]
    with pytest.raises(PreconditionViolated, match="^vertex 0 has 0 closed bunches, need 2$"):
        order_two_bunch(no_c6_instance, 0)


def test_color_two_bunch_all_centers(hs):
    for x in range(0, 50, 11):
        cert = color_two_bunch(hs, x)
        assert cert.k == 8
        assert verify_certificate(cert, hs).ok
        # the certificate claims x for class 8 and two first-bunch vertices
        assert cert.b_vertices[8] == x
        assert cert.row_order is not None


def test_checker_rejects_cell_swap(hs):
    bm = order_two_bunch(hs, 0)
    mutated = copy.deepcopy(bm)
    mutated.cells[0][1], mutated.cells[3][1] = (
        mutated.cells[3][1],
        mutated.cells[0][1],
    )
    ok, reason = check_bunch_matrix(hs, 0, mutated)
    assert not ok and reason


def test_checker_rejects_foreign_vertex(hs):
    bm = order_two_bunch(hs, 0)
    mutated = copy.deepcopy(bm)
    mutated.cells[2][4] = 0
    ok, _ = check_bunch_matrix(hs, 0, mutated)
    assert not ok


def test_checker_names_first_cell_outside_its_bunch(hs):
    # Swapping two cells of one row keeps the cells a bijection onto S2, so
    # the column-membership check is the first to fail.  Its reason names
    # the first failing cell, column by column, as a per-cell scan finds it.
    import random

    rng = random.Random(26)
    for x in (0, 17, 49):
        bm = order_two_bunch(hs, x)
        for _ in range(20):
            mutated = copy.deepcopy(bm)
            r = rng.randrange(bm.d - 1)
            c1, c2 = rng.sample(range(bm.d), 2)
            row = mutated.cells[r]
            row[c1], row[c2] = row[c2], row[c1]
            want = next(f"cell ({i + 1},{c + 1}) not in bunch of {xi}"
                        for c, xi in enumerate(mutated.col_attach)
                        for i, cells in enumerate(mutated.cells)
                        if not hs.has_edge(cells[c], xi))
            assert check_bunch_matrix(hs, x, mutated) == (False, want)


def test_checker_rejects_wrong_columns(hs):
    bm = order_two_bunch(hs, 0)
    mutated = copy.deepcopy(bm)
    mutated.col_attach[0], mutated.col_attach[1] = (
        mutated.col_attach[1],
        mutated.col_attach[0],
    )
    ok, _ = check_bunch_matrix(hs, 0, mutated)
    assert not ok


def test_hypothesis_report_petersen(pet):
    rep = hypothesis_report(pet)
    assert rep.d == 3
    assert rep.girth == 5
    assert rep.has_c6
    assert not rep.flags["d_ge_7"]
    assert all(not vr.strategies for vr in rep.per_vertex)


def test_hypothesis_report_hs(hs):
    rep = hypothesis_report(hs)
    assert rep.d == 7
    assert rep.flags["d_ge_7"] and rep.flags["girth_5"]
    assert rep.flags["n_within_bound"]
    for vr in rep.per_vertex:
        assert vr.strategies == ["two-bunch"]
        assert vr.c6_in_n2 == 630
        assert vr.closed_bunch_count == 7


def test_auto_color_hs(hs):
    cert = auto_color(hs)
    assert cert.strategy == "two-bunch"
    assert cert.center == 0
    assert verify_certificate(cert, hs).ok


def test_auto_color_no_strategy(pet):
    # A graph-level refusal names its reason; NoStrategyApplies and its
    # per-vertex reasons are for graphs that pass the graph check
    # (tests/test_first_applicable.py, random-d7-n120).
    with pytest.raises(PreconditionViolated, match="^d = 3 < 7$") as exc:
        auto_color(pet)
    assert not isinstance(exc.value, NoStrategyApplies)


def test_auto_color_unknown_strategy(hs):
    for vertex in (None, 0):
        with pytest.raises(BadInput, match="unknown strategy 'nope'"):
            auto_color(hs, strategy="nope", vertex=vertex)


def test_auto_color_deterministic(hs):
    a = auto_color(hs)
    b = auto_color(hs)
    assert a == b


FAILURE_CLASSES = {"ConstructionFailed", "HallFailure", "CompletionFailedError"}


def _step_template(node) -> str:
    """A step string as written, each f-string field as {source}."""
    if isinstance(node, ast.Constant):
        return node.value
    return "".join(
        v.value if isinstance(v, ast.Constant) else "{" + ast.unparse(v.value) + "}"
        for v in node.values
    )


def _called(node) -> str | None:
    """The name a call goes to: f(...) and m.f(...) both give f."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def _failure_sites(tree) -> list[str]:
    """The step string of each failure site: a raise of the ConstructionFailed
    family (its class name when it passes no string)."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and _called(node.exc) in FAILURE_CLASSES:
            steps = [a for a in node.exc.args if isinstance(a, (ast.Constant, ast.JoinedStr))]
            sites.append(_step_template(steps[0]) if steps else _called(node.exc))
    return sites


def test_failure_ledger_lists_every_site():
    src = Path(construct.__file__).parent
    sites = [s for p in sorted(src.glob("*.py")) for s in _failure_sites(ast.parse(p.read_text()))]
    assert len(sites) == len(set(sites)), "two sites share a step string"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ledger = readme.split("## Failure ledger")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \|.*\|(.*)\|$", ledger, re.M)
    assert sorted(step for step, _ in rows) == sorted(sites)
    tests = Path(__file__).parent
    for step, status in rows:
        witnesses = re.findall(r"`tests/(\w+\.py)::(\w+)`", status)
        assert witnesses, f"{step} has no witness"
        for file, name in witnesses:
            assert f"def {name}(" in (tests / file).read_text(), (step, name)
