"""Hall solver: agreement with exhaustive search, violator guarantees."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrome.coloring import PartialColoring
from bchrome.errors import BadInput, HallFailure
from bchrome.generators import hoffman_singleton
from bchrome.graph import bunches
from bchrome.oracle import transversal_backtrack
from bchrome.transversal import (
    SetFamily,
    build_bunch_lists,
    color_bunch,
    find_transversal,
)


def test_family_rejects_out_of_universe():
    with pytest.raises(ValueError):
        SetFamily.of([{1, 9}], universe=3)


def test_transversal_simple_success():
    fam = SetFamily.of([{1, 2}, {2, 3}, {1, 3}], universe=3)
    res = find_transversal(fam)
    assert res.found
    vals = sorted(res.assignment.values())
    assert vals == [1, 2, 3]
    for i, e in res.assignment.items():
        assert e in fam.sets[i]


def test_transversal_violator():
    # three sets crammed into two elements
    fam = SetFamily.of([{1, 2}, {1, 2}, {1, 2}], universe=3)
    res = find_transversal(fam)
    assert not res.found
    union = set().union(*(fam.sets[i] for i in res.violator))
    assert len(res.violator) > len(union)


def test_empty_set_is_an_immediate_violator():
    fam = SetFamily.of([{1}, set()], universe=2)
    res = find_transversal(fam)
    assert not res.found
    assert 1 in res.violator


def random_family(rng):
    s = rng.randint(1, 8)
    universe = rng.randint(1, 8)
    sets = [
        {e for e in range(1, universe + 1) if rng.random() < rng.random()}
        for _ in range(s)
    ]
    return SetFamily.of(sets, universe)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_matches_backtracking_oracle(seed):
    rng = random.Random(seed)
    fam = random_family(rng)
    res = find_transversal(fam)
    oracle = transversal_backtrack(fam)
    assert res.found == (oracle is not None)
    if res.found:
        assert len(set(res.assignment.values())) == fam.s
        for i, e in res.assignment.items():
            assert e in fam.sets[i]
    else:
        union = set().union(*(fam.sets[i] for i in res.violator))
        assert len(res.violator) > len(union)


def test_build_bunch_lists_first_bunch_unconstrained():
    g = hoffman_singleton()
    bs = bunches(g, 0)
    d = bs.d
    c = PartialColoring(g.n, d + 1)
    c.assign(0, d + 1, g)
    for i, xi in enumerate(bs.neighbor_order, start=1):
        c.assign(xi, i, g)
    fam = build_bunch_lists(c, g, bs, 1)
    full = frozenset(range(2, d + 1))
    assert all(a == full for a in fam.sets)


def test_build_bunch_lists_excludes_neighbor_colors():
    g = hoffman_singleton()
    bs = bunches(g, 0)
    d = bs.d
    c = PartialColoring(g.n, d + 1)
    c.assign(0, d + 1, g)
    for i, xi in enumerate(bs.neighbor_order, start=1):
        c.assign(xi, i, g)
    for pos, v in enumerate(bs.bunches[0]):
        c.assign(v, pos + 2, g)
    fam = build_bunch_lists(c, g, bs, 2)
    for v, lst in zip(bs.bunches[1], fam.sets):
        nbr_cols = {c.color(w) for w in g.adj[v] if c.color(w) is not None}
        assert lst == frozenset(range(1, d + 1)) - {2} - nbr_cols


def test_build_bunch_lists_order_guard():
    g = hoffman_singleton()
    bs = bunches(g, 0)
    c = PartialColoring(g.n, bs.d + 1)
    with pytest.raises(BadInput, match="bunch 1 not fully colored"):
        build_bunch_lists(c, g, bs, 2)  # bunch 1 not yet colored


def test_color_bunch_is_bijection():
    g = hoffman_singleton()
    bs = bunches(g, 0)
    d = bs.d
    c = PartialColoring(g.n, d + 1)
    c.assign(0, d + 1, g)
    for i, xi in enumerate(bs.neighbor_order, start=1):
        c.assign(xi, i, g)
    for pos, v in enumerate(bs.bunches[0]):
        c.assign(v, pos + 2, g)
    for t in range(2, 5):
        color_bunch(c, g, bs, t)
        got = sorted(c.color(v) for v in bs.bunches[t - 1])
        assert got == [col for col in range(1, d + 1) if col != t]


def test_color_bunch_raises_hall_failure():
    # an engineered dead end: both vertices of bunch 2 end up with list {3}
    from bchrome.graph import build_graph

    g = build_graph(
        9,
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8),
         (4, 6), (4, 7)],
    )
    bs = bunches(g, 0)
    c = PartialColoring(g.n, 4)
    c.assign(0, 4, g)
    c.assign(1, 3, g)
    c.assign(2, 2, g)
    c.assign(3, 1, g)
    c.assign(4, 1, g)
    c.assign(5, 1, g)
    with pytest.raises(HallFailure) as exc:
        color_bunch(c, g, bs, 2)
    # both lists are {3}, so the violator must be the full index pair
    assert exc.value.violator == frozenset({0, 1})
