"""Named families and the seeded random regular generator."""

import hashlib
import itertools
import random

import pytest

from bchrome.errors import BadInput, GenerationFailed
from bchrome.generators import (
    GenSpec,
    _pairing,
    _scored_swap,
    _short_cycle_score,
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


# sha256 of repr(edges()), first 16 hex digits, per (n, d, girth_min, seed).
# The desk-oracle benchmark sizes over three seeds, girth_min 4 and 6, and
# one n = 120, d = 7 graph from the open range of the conjecture.  Swap repair
# must keep every accepted swap and every RNG draw, so these never move.
PINNED_GRAPHS = [
    (16, 3, 5, 0, 'd585bdd28056a153'),
    (16, 3, 5, 1, 'bf86a7c2b0027037'),
    (16, 3, 5, 2, '534eab2945bdc497'),
    (20, 3, 5, 0, '78ba3852436b77c7'),
    (20, 3, 5, 1, 'e03cb24d39eae908'),
    (20, 3, 5, 2, 'ffd8602517024b25'),
    (24, 3, 5, 0, 'bd5c7ed6d123e3b3'),
    (24, 3, 5, 1, 'e842a633c8f97729'),
    (24, 3, 5, 2, '105368dbb71b877e'),
    (32, 3, 5, 0, 'f4db496cc4568eed'),
    (32, 3, 5, 1, 'c2866ac45a95419f'),
    (32, 3, 5, 2, 'c5c68680f6b69fba'),
    (24, 4, 5, 0, 'd0761eded07b6fa1'),
    (24, 4, 5, 1, 'eb7ebb99a6b3674d'),
    (24, 4, 5, 2, 'b2ab2a90fc2dae75'),
    (26, 4, 5, 0, '0ec0961ae488f875'),
    (26, 4, 5, 1, '7fb3649d498e0709'),
    (26, 4, 5, 2, '6bbf067fca9680be'),
    (28, 4, 5, 0, 'b02d59f62d4b6505'),
    (28, 4, 5, 1, '6d249d27114d1a4e'),
    (28, 4, 5, 2, '3dae0c21582fd275'),
    (30, 4, 5, 0, 'f4ca493ae282d478'),
    (30, 4, 5, 1, '56dad03771836ede'),
    (30, 4, 5, 2, '587823dc683ac13a'),
    (32, 4, 5, 0, 'ac72f81e1f58458e'),
    (32, 4, 5, 1, '970ee29c9b1ea28c'),
    (32, 4, 5, 2, '6643ace69a29cc1c'),
    (12, 3, 4, 0, 'c0204b2291279d3d'),
    (12, 3, 4, 1, '8b0cda71116ee278'),
    (20, 4, 4, 0, '3167c5800e1e3e4d'),
    (20, 4, 4, 1, '9d1de479e81589e8'),
    (30, 5, 4, 0, '76a41110625a3bc3'),
    (30, 5, 4, 1, '9a1c50c0a203b377'),
    (20, 3, 6, 0, '71b30289ba974fcd'),
    (20, 3, 6, 1, '6459f0f013fe3c72'),
    (26, 3, 6, 0, 'd60f8b6b967a1a6b'),
    (26, 3, 6, 1, '920a6c54e3af1179'),
    (30, 3, 6, 0, '23446765cc2c5f4a'),
    (30, 3, 6, 1, '632637e2d7ea3b9c'),
    (40, 3, 6, 0, '8f39e3f385c264e2'),
    (40, 3, 6, 1, '625152938cf1912d'),
    (120, 7, 5, 1, '9888afa08888a4cb'),
]


def _edges_digest(g):
    return hashlib.sha256(repr(g.edges()).encode()).hexdigest()[:16]


@pytest.mark.parametrize("n, d, girth_min, seed, digest", PINNED_GRAPHS)
def test_random_regular_output_is_pinned(n, d, girth_min, seed, digest):
    g = random_regular_girth(GenSpec(n=n, d=d, girth_min=girth_min, seed=seed))
    assert _edges_digest(g) == digest


def test_robertson_is_pinned():
    assert _edges_digest(robertson()) == "5192728d1deb2705"


def _seeded_pairing(n, d, seed):
    rng = random.Random(seed)
    while (g := _pairing(n, d, rng)) is None:
        pass
    return g


def _swap_is_valid(g, u, v, a, b):
    return (
        len({u, v, a, b}) == 4
        and v in g.adj[u]
        and b in g.adj[a]
        and a not in g.adj[u]
        and b not in g.adj[v]
    )


@pytest.mark.parametrize("girth_min", [3, 4, 5, 6])
@pytest.mark.parametrize("n, d, seed", [(12, 4, 0), (16, 5, 1), (10, 3, 2), (14, 9, 3)])
def test_short_cycle_score_matches_enumeration(n, d, seed, girth_min):
    # 3 per triangle and 1 per 4-cycle, each length counted only below
    # girth_min; every 4-set of vertices holds up to three 4-cycles.
    g = _seeded_pairing(n, d, seed)
    adj = g.adj
    tri = sum(
        b in adj[a] and c in adj[a] and c in adj[b]
        for a, b, c in itertools.combinations(range(n), 3)
    )
    quad = sum(
        all(q in adj[p] for p, q in zip(cyc, cyc[1:] + cyc[:1]))
        for a, b, c, e in itertools.combinations(range(n), 4)
        for cyc in ((a, b, c, e), (a, b, e, c), (a, c, b, e))
    )
    assert tri > 0 and quad > 0
    expected = 3 * tri * (girth_min > 3) + quad * (girth_min > 4)
    assert _short_cycle_score(g, girth_min) == expected


@pytest.mark.parametrize("girth_min", [4, 5, 6])
@pytest.mark.parametrize("n, d, seed", [(12, 4, 0), (16, 5, 1), (10, 3, 2), (24, 6, 3)])
def test_scored_swap_matches_full_recount(n, d, seed, girth_min):
    # Raw pairings are full of triangles and 4-cycles; random valid swaps
    # must keep the running score equal to a full recount.
    g = _seeded_pairing(n, d, seed)
    rng = random.Random(seed)
    score = _short_cycle_score(g, girth_min)
    assert score > 0
    done = 0
    while done < 60:
        edges = g.edges()
        (u, v), (a, b) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            a, b = b, a
        if not _swap_is_valid(g, u, v, a, b):
            continue
        score += _scored_swap(g, u, v, a, b, girth_min)
        assert score == _short_cycle_score(g, girth_min)
        done += 1


@pytest.mark.parametrize("girth_min", [4, 5, 6])
@pytest.mark.parametrize("n, d, seed", [(12, 4, 0), (16, 5, 1)])
def test_scored_swap_on_a_4_cycle_u_v_a_b(n, d, seed, girth_min):
    # The swap of two opposite edges of a 4-cycle u-v-a-b-u, where the lost
    # edges share that cycle and the won edges share u-a-v-b-u.
    g = _seeded_pairing(n, d, seed)
    score = _short_cycle_score(g, girth_min)
    swaps = 0
    for u in range(n):
        for v in sorted(g.adj[u]):
            for a in sorted(g.adj[v]):
                for b in sorted(g.adj[a] & g.adj[u]):
                    if not _swap_is_valid(g, u, v, a, b):
                        continue
                    score += _scored_swap(g, u, v, a, b, girth_min)
                    assert score == _short_cycle_score(g, girth_min)
                    swaps += 1
    assert swaps > 0
