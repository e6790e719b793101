"""Named families and the seeded random regular generator."""

import pytest

from bchrome.errors import BadInput, GenerationFailed
from bchrome.generators import (
    GenSpec,
    cycle,
    hoffman_singleton,
    moore_bound,
    petersen,
    random_regular_girth,
    robertson,
)
from bchrome.graph import closed_bunches, count_c6_in_n2, distances, girth


def test_cycle_basics():
    g = cycle(5)
    assert (g.n, g.m) == (5, 5)
    assert g.regular_degree() == 2
    assert girth(g) == 5
    with pytest.raises(ValueError):
        cycle(2)


def test_petersen_invariants(pet):
    assert (pet.n, pet.m) == (10, 15)
    assert pet.regular_degree() == 3
    assert girth(pet) == 5
    assert max(distances(pet, 0)) == 2


def test_hoffman_singleton_invariants(hs):
    assert (hs.n, hs.m) == (50, 175)
    assert hs.regular_degree() == 7
    assert girth(hs) == 5
    # Moore graph: diameter 2, so every bunch at every vertex is closed
    for x in range(0, 50, 7):
        assert max(distances(hs, x)) == 2
        assert closed_bunches(hs, x) == list(range(7))


def test_hoffman_singleton_c6_census(hs):
    # vertex-transitive, so one census value suffices to spot-check a few
    vals = {count_c6_in_n2(hs, x) for x in (0, 13, 26, 49)}
    assert len(vals) == 1


def test_robertson_is_the_4_5_cage():
    g = robertson()
    assert (g.n, g.regular_degree()) == (19, 4)
    assert girth(g) == 5


def test_random_regular_deterministic():
    spec = GenSpec(n=24, d=3, girth_min=5, seed=11)
    assert random_regular_girth(spec).edges() == random_regular_girth(spec).edges()


@pytest.mark.parametrize("n,d", [(20, 3), (30, 3), (24, 4), (30, 4)])
def test_random_regular_meets_spec(n, d):
    for seed in range(3):
        g = random_regular_girth(GenSpec(n=n, d=d, girth_min=5, seed=seed))
        assert g.n == n
        assert g.regular_degree() == d
        assert girth(g) >= 5


def test_random_regular_girth4():
    g = random_regular_girth(GenSpec(n=12, d=3, girth_min=4, seed=0))
    assert girth(g) >= 4


def test_parity_guard():
    with pytest.raises(ValueError):
        random_regular_girth(GenSpec(n=9, d=3))


def test_degree_guard():
    with pytest.raises(ValueError):
        random_regular_girth(GenSpec(n=4, d=4))


def test_impossible_spec_fails_cleanly():
    # the Moore bound admits 18 vertices for d = 4, girth 5, but the smallest
    # such graph (the Robertson graph) has 19, so the search runs and fails
    with pytest.raises(GenerationFailed):
        random_regular_girth(GenSpec(n=18, d=4, girth_min=5, max_attempts=3, swap_budget=50))


@pytest.mark.parametrize(
    "d, girth_min, bound",
    [(3, 5, 10), (7, 5, 50), (3, 6, 14), (3, 10, 62), (4, 5, 17)]
    + [(2, g, g) for g in range(3, 12)],
)
def test_moore_bound_values(d, girth_min, bound):
    assert moore_bound(d, girth_min) == bound


def test_moore_graphs_meet_the_bound(pet, hs, heawood):
    for g in (pet, hs, heawood, cycle(7), cycle(8)):
        assert moore_bound(g.regular_degree(), girth(g)) == g.n


@pytest.mark.parametrize("n, d, girth_min", [(8, 3, 5), (12, 3, 6), (48, 7, 5), (60, 3, 10), (6, 2, 7)])
def test_spec_below_moore_bound_is_bad_input(n, d, girth_min):
    with pytest.raises(BadInput, match="below the Moore bound"):
        random_regular_girth(GenSpec(n=n, d=d, girth_min=girth_min))


def test_spec_at_moore_bound_is_searched():
    # Petersen meets the bound, so n = 10 must reach the search
    try:
        random_regular_girth(GenSpec(n=10, d=3, girth_min=5, max_attempts=1, swap_budget=1))
    except GenerationFailed:
        pass


def test_huge_girth_min_is_rejected_at_once():
    with pytest.raises(BadInput):
        random_regular_girth(GenSpec(n=1000, d=999, girth_min=10**9))
