"""Exhaustive oracles: b-colorings, six-cycle enumeration, budgets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrome.errors import FamilyTooLarge
from bchrome.generators import cycle, hoffman_singleton, petersen
from bchrome.graph import build_graph, count_c6_through_vertex
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
    verify_witness,
)
from bchrome.transversal import SetFamily


def random_graph(n, p, seed):
    import random

    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_k1_always_exists_on_nonempty():
    g = build_graph(3, [])
    res = b_coloring_exists(g, 1)
    assert res.exists
    assert verify_witness(g, 1, res.coloring)


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
    "graph, k, nodes, status",
    [(petersen, 4, 551, NO), (hoffman_singleton, 8, 43, YES)],
)
def test_node_count_is_pinned(graph, k, nodes, status):
    # --node-budget counts these nodes: the search needs exactly `nodes`
    g = graph()
    assert b_coloring_exists(g, k, SearchLimits(max_nodes=nodes)).status == status
    assert b_coloring_exists(g, k, SearchLimits(max_nodes=nodes - 1)).status == BUDGET


def test_search_depth_not_bounded_by_recursion_limit():
    res = exact_b_chromatic(cycle(1200))
    assert res.value == 3 and res.exact


def test_witnesses_verify_on_random_graphs():
    for seed in range(25):
        g = random_graph(8, 0.4, seed)
        for k in range(1, 5):
            res = b_coloring_exists(g, k)
            if res.exists:
                assert verify_witness(g, k, res.coloring)


def test_enumerate_c6_matches_counter():
    for seed in range(30):
        g = random_graph(9, 0.35, seed)
        for x in range(g.n):
            assert len(enumerate_c6_through(g, x)) == count_c6_through_vertex(g, x)


def test_enumerate_c6_on_c6():
    g = cycle(6)
    cycles = enumerate_c6_through(g, 0)
    assert len(cycles) == 1
    assert set(cycles[0]) == set(range(6))


def test_transversal_backtrack_guard():
    fam = SetFamily.of([{1}] * 11, universe=1)
    with pytest.raises(FamilyTooLarge):
        transversal_backtrack(fam)


def test_proper_coloring_oracle():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not proper_coloring_exists(tri, 2)
    assert proper_coloring_exists(tri, 3)
    assert proper_coloring_exists(cycle(6), 2)
    assert not proper_coloring_exists(cycle(5), 2)


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
