"""Acceptance gate: ten end-to-end criteria, one test (and one pass/fail
line) per criterion.  Each test prints a [criterion N] PASS line on success;
pytest -v shows one PASSED/FAILED row per criterion."""

import copy
import random
import time

from bchrome.coloring import b_vertices, verify_certificate
from bchrome.construct import (
    auto_color,
    check_bunch_matrix,
    color_two_bunch,
    hypothesis_report,
    lemma_extension,
    order_two_bunch,
)
from bchrome.errors import MalformedDimacs, MalformedGraph6
from bchrome.formats import parse_dimacs, parse_graph6, write_dimacs, write_graph6
from bchrome.generators import (
    GenSpec,
    cycle,
    hoffman_singleton,
    petersen,
    random_regular_girth,
)
from bchrome.graph import (
    bunches,
    count_c6_in_n2,
    girth,
    induced_subgraph,
    relabel,
    sphere,
)
from bchrome.coloring import is_proper
from bchrome.oracle import (
    b_coloring_exists,
    enumerate_c6_through,
    exact_b_chromatic,
    transversal_backtrack,
)
from bchrome.transversal import SetFamily, find_transversal

from conftest import swap_repair_run


def _corpus():
    """Shared generated corpus: girth >= 5, d in {3, 4, 7}, n <= 60.

    d = 7 girth-5 graphs below 50 vertices do not exist and random
    generation at 50-60 is impractical, so that slice is Hoffman-Singleton
    under seeded vertex relabelings.
    """
    graphs = []
    for d, sizes in ((3, (14, 20, 26)), (4, (24, 26, 32))):
        for n in sizes:
            for seed in range(30):
                graphs.append(
                    random_regular_girth(GenSpec(n=n, d=d, girth_min=5, seed=seed))
                )
    hs = hoffman_singleton()
    graphs.append(hs)
    for seed in range(24):
        rng = random.Random(seed)
        perm = list(range(50))
        rng.shuffle(perm)
        graphs.append(relabel(hs, perm))
    return graphs


_CORPUS_CACHE = None


def corpus():
    global _CORPUS_CACHE
    if _CORPUS_CACHE is None:
        _CORPUS_CACHE = _corpus()
    return _CORPUS_CACHE


def test_criterion_01_petersen_ground_truth():
    start = time.monotonic()
    res = exact_b_chromatic(petersen())
    elapsed = time.monotonic() - start
    assert res.value == 3 and res.exact
    assert elapsed < 10
    print(f"\n[criterion 1] PASS: b-chromatic number of Petersen = 3 in {elapsed:.2f}s")


def test_criterion_02_c5_ground_truth():
    start = time.monotonic()
    res = exact_b_chromatic(cycle(5))
    elapsed = time.monotonic() - start
    assert res.value == 3 and res.exact
    assert elapsed < 1
    print(f"\n[criterion 2] PASS: b-chromatic number of C5 = 3 = d+1 in {elapsed:.2f}s")


def test_criterion_03_two_bunch_every_center(hs):
    start = time.monotonic()
    for x in range(50):
        cert = color_two_bunch(hs, x)
        assert cert.k == 8
        assert verify_certificate(cert, hs).ok
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\n[criterion 3] PASS: 50/50 centers, k=8 certificates accepted in {elapsed:.1f}s")


def test_criterion_04_requirements_checker(hs):
    for x in range(50):
        bm = order_two_bunch(hs, x)
        ok, reason = check_bunch_matrix(hs, x, bm)
        assert ok, (x, reason)
    base = order_two_bunch(hs, 0)
    rng = random.Random(0)
    cases = 0
    for _ in range(100):  # replace one cell with a different vertex
        mutated = copy.deepcopy(base)
        r = rng.randrange(len(base.cells))
        c = rng.randrange(base.d)
        mutated.cells[r][c] = rng.choice(
            [v for v in range(hs.n) if v != base.cells[r][c]]
        )
        ok, _ = check_bunch_matrix(hs, 0, mutated)
        assert not ok
        cases += 1
    for _ in range(26):  # swap two cells within one column
        mutated = copy.deepcopy(base)
        c = rng.randrange(base.d)
        r1, r2 = rng.sample(range(len(base.cells)), 2)
        mutated.cells[r1][c], mutated.cells[r2][c] = (
            mutated.cells[r2][c],
            mutated.cells[r1][c],
        )
        ok, _ = check_bunch_matrix(hs, 0, mutated)
        assert not ok
        cases += 1
    assert cases >= 100
    print(f"\n[criterion 4] PASS: 50 valid matrices accepted, {cases} mutations rejected")


def test_criterion_05_c6_formula_oracle_equivalence():
    graphs = corpus()
    assert len(graphs) >= 200
    checked = 0
    for g in graphs:
        assert girth(g) >= 5 and g.n <= 60
        for x in range(g.n):
            n2 = {x} | set(g.adj[x]) | sphere(g, x, 2)
            sub, idx = induced_subgraph(g, n2)
            brute = len(enumerate_c6_through(sub, idx[x]))
            assert count_c6_in_n2(g, x) == brute, (g, x)
            checked += 1
    print(
        f"\n[criterion 5] PASS: formula = brute force on {len(graphs)} graphs, "
        f"{checked} vertices, zero mismatches"
    )


def test_criterion_06_hall_solver_equivalence():
    rng = random.Random(123)
    agree = 0
    for _ in range(10_000):
        s = rng.randint(1, 8)
        universe = rng.randint(1, 8)
        density = rng.random()
        fam = SetFamily.of(
            [
                {e for e in range(1, universe + 1) if rng.random() < density}
                for _ in range(s)
            ],
            universe,
        )
        res = find_transversal(fam)
        oracle = transversal_backtrack(fam)
        assert res.found == (oracle is not None)
        if not res.found:
            union = set().union(*(fam.sets[i] for i in res.violator))
            assert len(res.violator) > len(union)
        agree += 1
    print(f"\n[criterion 6] PASS: solver and oracle agree on {agree} random families")


def test_criterion_07_lemma_extension_seed(hs):
    for x in range(50):
        c = lemma_extension(hs, bunches(hs, x))
        bv = b_vertices(c, hs)
        expected = {x} | set(sorted(hs.adj[x])[:4])
        assert expected <= bv
        assert len(bv) >= 5
    print("\n[criterion 7] PASS: >= 5 b-vertices at all 50 centers")


def test_criterion_08_swap_repair_trials():
    calls = 0
    nontrivial = 0
    for d in (7, 8, 9, 10):
        for seed in range(40):
            # swap_repair_run asserts per call: no clash left, and at most
            # one swap per clash
            g, c, run = swap_repair_run(d, seed)
            calls += len(run)
            nontrivial += sum(1 for clashes, _ in run if clashes)
            assert is_proper(c, g)
    assert calls >= 1000
    print(
        f"\n[criterion 8] PASS: {calls} repair runs, {nontrivial} with clashes, "
        "each cleared with at most one swap per clash"
    )


def test_criterion_09_applicable_implies_oracle_confirmed():
    confirmed = 0
    applicable_graphs = 0
    for g in corpus():
        report = hypothesis_report(g)
        if not any(vr.strategies for vr in report.per_vertex):
            continue
        applicable_graphs += 1
        cert = auto_color(g)  # ConstructionFailed would propagate and fail
        assert cert.k == report.d + 1
        assert verify_certificate(cert, g).ok
        # d+1 equals max degree + 1, the hard upper bound, so an oracle YES
        # at k = d+1 confirms the construction is maximal
        res = b_coloring_exists(g, report.d + 1)
        assert res.exists
        confirmed += 1
    assert applicable_graphs >= 25
    print(
        f"\n[criterion 9] PASS: {confirmed}/{applicable_graphs} applicable instances "
        "oracle-confirmed at k = d+1, zero construction failures"
    )


def test_criterion_10_format_round_trips_and_fuzz():
    for g in corpus():
        assert parse_graph6(write_graph6(g)) == g
        assert parse_dimacs(write_dimacs(g)) == g
    rng = random.Random(42)
    fuzzed = 0
    for _ in range(100_000):
        s = "".join(chr(rng.randint(0, 255)) for _ in range(rng.randint(0, 10)))
        try:
            parse_graph6(s)
        except MalformedGraph6:
            pass
        try:
            parse_dimacs(s)
        except MalformedDimacs:
            pass
        fuzzed += 1
    print(
        f"\n[criterion 10] PASS: {len(corpus())} graphs round-trip in both formats, "
        f"{fuzzed} fuzz inputs without a crash"
    )
