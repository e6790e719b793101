"""Exhaustive oracles: b-colorings, six-cycle enumeration, budgets."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrome import oracle
from bchrome.coloring import PartialColoring, is_b_coloring
from bchrome.errors import BadInput
from bchrome.generators import (
    GenSpec,
    cycle,
    hoffman_singleton,
    petersen,
    random_regular_girth,
    robertson,
)
from bchrome.graph import build_graph, count_c6_through_vertex, relabel
from bchrome.oracle import (
    BUDGET,
    NO,
    YES,
    SearchLimits,
    b_coloring_exists,
    enumerate_c6_through,
    exact_b_chromatic,
    proper_coloring_exists,
    transversal_backtrack,
)
from bchrome.transversal import SetFamily


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_k1_always_exists_on_nonempty():
    g = build_graph(3, [])
    res = b_coloring_exists(g, 1)
    assert res.exists
    assert is_b_coloring(PartialColoring(g.n, 1, res.coloring), g, 1)


def test_too_few_vertices():
    g = build_graph(2, [(0, 1)])
    assert b_coloring_exists(g, 3).status == NO


def test_c5_values(c5):
    assert b_coloring_exists(c5, 3).exists
    assert b_coloring_exists(c5, 4).status == NO
    res = exact_b_chromatic(c5)
    assert res.value == 3 and res.exact


def test_petersen_values(pet):
    assert b_coloring_exists(pet, 3).exists
    assert b_coloring_exists(pet, 4).status == NO
    res = exact_b_chromatic(pet)
    assert res.value == 3 and res.exact


def test_star_has_low_b_chromatic():
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    res = exact_b_chromatic(star)
    assert res.value == 2


def test_budget_reports_budget(pet):
    res = b_coloring_exists(pet, 4, SearchLimits(max_nodes=3, time_budget=60))
    assert res.status == BUDGET


@pytest.mark.parametrize(
    "limits", [{"max_nodes": -1}, {"time_budget": -1.0}, {"time_budget": float("nan")}]
)
def test_unmeetable_budgets_are_bad_input(limits):
    with pytest.raises(BadInput):
        SearchLimits(**limits)


def test_zero_node_budget_is_a_budget_answer(pet):
    res = b_coloring_exists(pet, 3, SearchLimits(max_nodes=0))
    assert (res.status, res.nodes) == (BUDGET, 1)


@pytest.mark.parametrize(
    "graph, k, nodes, status",
    [
        (petersen, 4, 551, NO),
        (hoffman_singleton, 8, 43, YES),
        # k > Delta: the last 350 nodes are the first-fit completion
        pytest.param("no_c6_instance", 8, 393, YES, id="planted-8-393-yes"),
    ],
)
def test_node_count_is_pinned(request, graph, k, nodes, status):
    # --node-budget counts these nodes: the search needs exactly `nodes`
    g = request.getfixturevalue(graph) if isinstance(graph, str) else graph()
    assert b_coloring_exists(g, k, SearchLimits(max_nodes=nodes)).status == status
    assert b_coloring_exists(g, k, SearchLimits(max_nodes=nodes - 1)).status == BUDGET


@pytest.mark.parametrize("max_nodes", [43, 100, 392])
def test_budget_runs_out_inside_first_fit(no_c6_instance, monkeypatch, max_nodes):
    # The first star set is feasible: its root and the 42 vertices of its
    # neighbourhood are nodes 1..43, then first-fit ticks one node per
    # vertex of the other 350 and stops at the first tick over budget.
    entered = []

    def spy(st, budget):
        entered.append(budget.nodes)
        return first_fit(st, budget)

    first_fit = oracle._first_fit
    monkeypatch.setattr(oracle, "_first_fit", spy)
    res = b_coloring_exists(no_c6_instance, 8, SearchLimits(max_nodes=max_nodes))
    assert (res.status, res.nodes, res.coloring) == (BUDGET, max_nodes + 1, None)
    assert entered == [43]


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


# (graph, k, status, nodes, first 16 hex digits of the sha256 of the
# witness as JSON).  Recorded before the search kept incremental colour
# counts (HS relabellings 2-6, the Petersen relabellings and Robertson at
# k = 4 before it skipped the colours a zero-slack candidate cannot use): a
# faster search must visit the same nodes and return the same witness.
PINNED_SEARCHES = [
    ("petersen", 3, YES, 8, "c9020f868f566ad6"),
    ("petersen", 4, NO, 551, None),
    ("c5", 3, YES, 3, "bb2c0153cd679df4"),
    ("c5", 4, NO, 0, None),
    ("hs", 8, YES, 43, "ecc388d7a2987460"),
    ("hs-relabel-1", 8, YES, 1421, "b1c72f450fba471a"),
    ("hs-relabel-2", 8, YES, 950, "2dddc162dac367fc"),
    ("hs-relabel-3", 8, YES, 46, "902bf332b8b77779"),
    ("hs-relabel-4", 8, YES, 770, "7a984946609bd376"),
    ("hs-relabel-5", 8, YES, 168, "650d3277e0c35c28"),
    ("hs-relabel-6", 8, YES, 430, "27b565e4e674e308"),
    ("petersen-relabel-1", 4, NO, 555, None),
    ("petersen-relabel-2", 4, NO, 544, None),
    ("robertson", 4, YES, 16, "a0f6370a983d2dd2"),
    ("robertson", 5, YES, 15, "c8966fa623b3ba45"),
    ("planted", 8, YES, 393, "b8a31175ac77c7af"),
]


@pytest.fixture(scope="module")
def pinned_graphs(no_c6_instance):
    return {
        "petersen": petersen(),
        "c5": cycle(5),
        "hs": hoffman_singleton(),
        **{f"hs-relabel-{s}": _relabelled(hoffman_singleton(), s) for s in range(1, 7)},
        **{f"petersen-relabel-{s}": _relabelled(petersen(), s) for s in (1, 2)},
        "robertson": robertson(),
        "planted": no_c6_instance,
    }


@pytest.mark.parametrize("name, k, status, nodes, witness", PINNED_SEARCHES)
def test_search_is_pinned(pinned_graphs, name, k, status, nodes, witness):
    g = pinned_graphs[name]
    res = b_coloring_exists(g, k)
    assert (res.status, res.nodes) == (status, nodes)
    digest = None
    if res.coloring is not None:
        digest = hashlib.sha256(json.dumps(res.coloring).encode()).hexdigest()[:16]
        assert is_b_coloring(PartialColoring(g.n, k, res.coloring), g, k)
    assert digest == witness


def test_random_searches_are_pinned():
    # One sha256 over (status, nodes, witness) of 600 seeded random
    # (graph, k) searches, 197 of them YES; recorded as the pins above.
    rows = []
    for seed in range(150):
        g = random_graph(5 + seed % 6, (0.3, 0.45, 0.6)[seed % 3], seed)
        for k in range(2, 6):
            res = b_coloring_exists(g, k)
            rows.append([res.status, res.nodes, res.coloring])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == "29834641d5ae1409"


def test_exact_b_chromatic_reports_nodes(pet):
    # k = 4 proves NO in 551 nodes, then k = 3 finds a witness in 8
    res = exact_b_chromatic(pet)
    assert (res.value, res.exact, res.nodes) == (3, True, 551 + 8)


def _proper_colourings(g, k):
    """Every proper colouring with colours 1..k: all of k^n, except that a
    vertex is not given a colour an earlier neighbour holds."""
    cols = [0] * g.n

    def rec(v):
        if v == g.n:
            yield list(cols)
            return
        for col in range(1, k + 1):
            if all(cols[u] != col for u in g.adj[v] if u < v):
                cols[v] = col
                yield from rec(v + 1)
        cols[v] = 0

    return rec(0)


def _brute_force_exists(g, k):
    """Some proper colouring, judged by is_b_coloring (a b-colouring is
    proper, so the other colourings of k^n cannot be one)."""
    return any(
        is_b_coloring(PartialColoring(g.n, k, cols), g, k)
        for cols in _proper_colourings(g, k)
    )


def _cross_check_graphs():
    """Seeded random graphs with n <= 7, plus graphs with isolated vertices
    and a component that is K_k: the star of a K_k vertex is a candidate
    set with no neighbour outside it, the search's empty-neighbourhood
    case.  Then regular graphs with Delta <= 3, so that k = 1..4 covers
    both sides of the search's first-fit test (k > Delta) at k = Delta and
    Delta + 1: cycles, K4, K3,3, relabelled Petersens and seeded 3-regular
    graphs with n <= 8 (short cycles allowed)."""
    graphs = [random_graph(n, p, seed) for n in (4, 5, 6, 7)
              for p in (0.3, 0.5, 0.7) for seed in range(3)]
    for k in range(1, 5):
        clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
        graphs.append(build_graph(k + 2, clique))  # K_k and two isolated vertices
        graphs.append(build_graph(k + 3, clique + [(k, k + 1), (k + 1, k + 2)]))  # K_k + P_3
    graphs.append(build_graph(6, [(0, 1), (2, 3)]))
    graphs.append(build_graph(5, []))
    graphs += [cycle(5), cycle(6), cycle(7)]
    graphs.append(build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))  # K4
    graphs.append(build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)]))  # K3,3
    graphs += [_relabelled(petersen(), s) for s in range(3)]
    graphs += [random_regular_girth(GenSpec(n=n, d=3, girth_min=3, seed=s))
               for n in (6, 8) for s in range(3)]
    return graphs


def test_status_matches_brute_force():
    for g in _cross_check_graphs():
        for k in range(1, 5):
            res = b_coloring_exists(g, k)
            assert res.exists == _brute_force_exists(g, k), (g.edges(), k)
            if res.exists:
                assert is_b_coloring(PartialColoring(g.n, k, res.coloring), g, k)


def test_search_depth_not_bounded_by_recursion_limit():
    res = exact_b_chromatic(cycle(1200))
    assert res.value == 3 and res.exact


def test_witnesses_verify_on_random_graphs():
    for seed in range(25):
        g = random_graph(8, 0.4, seed)
        for k in range(1, 5):
            res = b_coloring_exists(g, k)
            if res.exists:
                assert is_b_coloring(PartialColoring(g.n, k, res.coloring), g, k)


def test_enumerate_c6_matches_counter():
    # The dense graphs have 3-paths x-a-b-w and x-a'-b'-w to a common end
    # that share interior vertices in each of the four ways: a = a', b = b',
    # a = b' and b = a'.
    specs = [(9, 0.35, seed) for seed in range(30)]
    specs += [(n, p, seed) for n in (8, 10, 12) for p in (0.5, 0.8) for seed in range(2)]
    for n, p, seed in specs:
        g = random_graph(n, p, seed)
        for x in range(g.n):
            assert len(enumerate_c6_through(g, x)) == count_c6_through_vertex(g, x)


def test_enumerate_c6_on_c6():
    g = cycle(6)
    cycles = enumerate_c6_through(g, 0)
    assert len(cycles) == 1
    assert set(cycles[0]) == set(range(6))


def test_transversal_backtrack_guard():
    fam = SetFamily.of([{1}] * 11, universe=1)
    with pytest.raises(BadInput, match="11 sets exceeds the desk guard of 10"):
        transversal_backtrack(fam)


def test_proper_coloring_oracle():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not proper_coloring_exists(tri, 2)
    assert proper_coloring_exists(tri, 3)
    assert proper_coloring_exists(cycle(6), 2)
    assert not proper_coloring_exists(cycle(5), 2)


def test_proper_coloring_depth_not_bounded_by_recursion_limit():
    path = build_graph(1200, [(v, v + 1) for v in range(1199)])
    assert proper_coloring_exists(path, 2)
    assert not proper_coloring_exists(cycle(1201), 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_b_chromatic_between_proper_needs_and_delta(seed):
    g = random_graph(7, 0.45, seed)
    if g.n == 0:
        return
    res = exact_b_chromatic(g)
    delta = max(g.degree(v) for v in range(g.n))
    assert 1 <= res.value <= delta + 1
    assert res.exact
    # any b-coloring is a proper coloring, so the chromatic number is a
    # lower bound on the b-chromatic number
    chi = next(k for k in range(1, g.n + 1) if proper_coloring_exists(g, k))
    assert chi <= res.value
    assert b_coloring_exists(g, res.value).exists
