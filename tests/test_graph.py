"""Structural queries: distances, girth, bunches, six-cycle censuses."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrome.errors import BadInput, PreconditionViolated
from bchrome.generators import cycle, petersen, random_regular_girth, robertson, GenSpec
from bchrome import graph as graph_mod
from bchrome.graph import (
    MASK_MAX_N,
    _short_girth_masks,
    _short_girth_sets,
    build_graph,
    bunches,
    closed_bunches,
    count_c6_in_n2,
    count_c6_through_vertex,
    distances,
    girth,
    relabel,
    s2_degree,
    short_girth,
    sphere,
)
from bchrome.oracle import enumerate_c6_through


def random_graph(n, p, seed):
    import random

    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_build_rejects_self_loop():
    with pytest.raises(BadInput, match="self-loop at vertex 0"):
        build_graph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(BadInput, match=r"edge \(0,5\) outside 0\.\.2"):
        build_graph(3, [(0, 5)])


def test_build_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_distances_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert distances(g, 0) == [0, 1, 2, 3]


def test_distances_disconnected():
    g = build_graph(3, [(0, 1)])
    assert distances(g, 0)[2] == math.inf


def test_girth_path_is_infinite():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert girth(g) == math.inf


def test_girth_known_graphs(pet):
    assert girth(cycle(5)) == 5
    assert girth(cycle(9)) == 9
    assert girth(pet) == 5
    assert girth(build_graph(3, [(0, 1), (1, 2), (0, 2)])) == 3
    k4_minus = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert girth(k4_minus) == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_girth_matches_networkx(seed):
    import networkx as nx

    g = random_graph(10, 0.3, seed)
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    assert girth(g) == nx.girth(h)


def test_girth_on_disjoint_unions_matches_networkx():
    """girth() reuses one set of BFS lists for all roots, so each root's
    search meets vertices an earlier root reached: cycles C3-C12 in either
    order, a tree, isolated vertices and a C7 hung from a path whose
    vertices come first, with and without shuffled labels."""
    import random

    import networkx as nx

    cycles = [nx.cycle_graph(n) for n in range(3, 13)]
    forest = [nx.balanced_tree(2, 2), nx.empty_graph(3)]
    lollipop = nx.Graph([(i, i + 1) for i in range(5)]
                        + [(5 + i, 5 + (i + 1) % 7) for i in range(7)])
    cases = [cycles, cycles[::-1], cycles[2:] + forest, forest + cycles[:2:-1], forest,
             [cycles[-1], forest[0]], [lollipop], [lollipop, cycles[6]]]
    for i, parts in enumerate(cases):
        h = nx.disjoint_union_all(parts)
        want = nx.girth(h)
        for seed in (None, 1, 2):
            label = list(range(len(h)))
            if seed is not None:
                random.Random(seed).shuffle(label)
            g = build_graph(len(h), [(label[u], label[v]) for u, v in h.edges()])
            assert girth(g) == want, (i, seed)
            for upto in range(-1, 14):
                assert girth(g, upto) == (want if want <= upto else math.inf), (i, seed, upto)


def _short(gth):
    """What short_girth must read for a graph of girth gth."""
    return gth if gth <= 5 else math.inf


def test_short_girth_named_graphs(pet, hs, heawood):
    k4 = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    path = build_graph(5, [(i, i + 1) for i in range(4)])
    named = [(f"C{n}", cycle(n)) for n in range(3, 10)]
    named += [("K4", k4), ("Petersen", pet), ("HS", hs), ("Heawood", heawood),
              ("path", path), ("empty", build_graph(0, []))]
    for name, g in named:
        want = _short(girth(g))
        assert short_girth(g) == want, name
        assert _short_girth_masks(g) == _short_girth_sets(g) == want, name
    assert short_girth(heawood) == math.inf and girth(heawood) == 6


def _mixed_graph(seed):
    """Seeded graphs of every girth class: sparse G(n, p), random cubic
    graphs of girth >= 5 and >= 6, and a cycle with one chord."""
    import random

    rng = random.Random(seed)
    kind = seed % 5
    n = rng.randrange(8, 25)
    if kind < 2:
        return random_graph(n, 1.6 / n, seed)
    if kind < 4:
        return random_regular_girth(GenSpec(n=2 * n, d=3, girth_min=kind + 3, seed=seed))
    a = rng.randrange(2, n - 1)
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, a)])


def test_girth_upto_is_girth_up_to_the_bound(pet, hs, heawood):
    """girth(g, upto) is girth(g) when that is at most upto, else inf;
    bounds below 3 read inf, as no cycle is that short."""
    tree = build_graph(7, [(i, (i - 1) // 2) for i in range(1, 7)])
    named = [("Petersen", pet), ("HS", hs), ("Heawood", heawood),
             ("Robertson", robertson()), ("tree", tree)]
    named += [(f"C{n}", cycle(n)) for n in range(3, 13)]
    randoms = [(f"mixed-{seed}", _mixed_graph(seed)) for seed in range(40)]
    for name, g in named + randoms:
        full = girth(g)
        for upto in range(-1, 9):
            assert girth(g, upto) == (full if full <= upto else math.inf), (name, upto)
    assert {3, 4, 5, 6} <= {girth(g) for _, g in randoms}


def _small_gnp(seed):
    """Seeded G(n, p) with n <= 14, mostly sparse, so every girth class
    turns up, not only triangles."""
    import random

    rng = random.Random(seed)
    n = rng.randint(0, 14)
    return random_graph(n, rng.choice((0.1, 0.15, 0.2, 0.3, 0.5)), seed)


def test_short_girth_random_graphs():
    graphs = [(("mixed", s), _mixed_graph(s)) for s in range(50)]
    graphs += [(("gnp", s), _small_gnp(s)) for s in range(2000)]
    seen = set()
    for key, g in graphs:
        gth = girth(g)
        seen.add(gth)
        assert short_girth(g) == _short(gth), key
        assert _short_girth_masks(g) == _short_girth_sets(g) == _short(gth), key
    assert {3, 4, 5, 6, math.inf} <= seen


@pytest.mark.parametrize("n, test", [(MASK_MAX_N, "masks"), (MASK_MAX_N + 1, "sets")])
def test_short_girth_drops_the_masks_above_mask_max_n(monkeypatch, n, test):
    # A cycle with shuffled labels: edges join far-apart labels, where the
    # masks cost n^2/8 bytes.
    import random

    label = list(range(n))
    random.Random(n).shuffle(label)
    g = build_graph(n, [(label[i], label[(i + 1) % n]) for i in range(n)])
    ran = []
    for name in ("masks", "sets"):
        real = getattr(graph_mod, f"_short_girth_{name}")
        monkeypatch.setattr(graph_mod, f"_short_girth_{name}",
                            lambda g, real=real, name=name: ran.append(name) or real(g))
    assert short_girth(g) == math.inf
    assert ran == [test]


def _cycle_edges(vs):
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


@pytest.mark.parametrize(
    "n, edges, expected",
    [
        # A shorter cycle seen later must still win over one seen earlier.
        (7, _cycle_edges([0, 1, 2, 3]) + _cycle_edges([4, 5, 6]), 3),
        (9, _cycle_edges([0, 1, 2, 3]) + [(3, 4), (4, 5)] + _cycle_edges([6, 7, 8]), 3),
        (9, _cycle_edges([0, 1, 2, 3, 4]) + _cycle_edges([5, 6, 7, 8]), 4),
        (8, _cycle_edges([0, 1, 2, 3, 4]) + _cycle_edges([5, 6, 7]), 3),
        (12, _cycle_edges(list(range(6))) + _cycle_edges([6, 7, 8, 9, 10]) + [(5, 11)], 5),
        # Isolated vertices, alone or beside a cycle.
        (6, [], math.inf),
        (8, _cycle_edges([2, 3, 4, 5, 6]), 5),
        (7, _cycle_edges([3, 4, 5, 6]), 4),
        (5, [(0, 4), (4, 2), (2, 0)], 3),
        # Several components.
        (13, _cycle_edges([0, 1, 2, 3, 4, 5]) + _cycle_edges([6, 7, 8, 9, 10, 11, 12]), math.inf),
        (11, _cycle_edges([0, 1, 2, 3, 4, 5, 6]) + _cycle_edges([7, 8, 9, 10]), 4),
        # Irregular degrees: a star, K_{2,3}, a wheel, a tree, C5 with pendants.
        (6, [(0, v) for v in range(1, 6)], math.inf),
        (5, [(u, v) for u in (0, 1) for v in (2, 3, 4)], 4),
        (6, _cycle_edges([1, 2, 3, 4, 5]) + [(0, v) for v in range(1, 6)], 3),
        (7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)], math.inf),
        (8, _cycle_edges([0, 1, 2, 3, 4]) + [(0, 5), (0, 6), (3, 7)], 5),
        # d = 0 and d = 1.
        (1, [], math.inf),
        (8, [(0, 1), (2, 3), (4, 5), (6, 7)], math.inf),
    ],
    ids=["c4-then-triangle", "c4-path-triangle", "c5-then-c4", "c5-then-triangle",
         "c6-c5-pendant", "isolated-only", "isolated-c5", "isolated-c4",
         "isolated-triangle", "c6-c7", "c7-c4", "star", "k23", "wheel", "tree",
         "c5-pendants", "d0", "d1"],
)
def test_short_girth_scan_order_cases(n, edges, expected):
    g = build_graph(n, edges)
    assert _short(girth(g)) == expected
    assert short_girth(g) == expected
    assert _short_girth_masks(g) == _short_girth_sets(g) == expected


def test_bunch_s2_matches_bfs_sphere(pet, hs, heawood):
    for g in (pet, hs, heawood, random_graph(30, 0.1, 4)):
        for x in range(g.n):
            try:
                bs = bunches(g, x)
            except PreconditionViolated:  # a triangle or 4-cycle at x
                continue
            assert bs.s2 == sphere(g, x, 2)
            assert bs.s2_degrees(g) == {v: s2_degree(g, x, v) for v in bs.s2}


def test_closed_bunches_match_a_bfs_reference(pet, hs, no_c6_instance):
    # N2[x] from a BFS sphere, not from the bunches the library reads it off.
    # Robertson has bunches with some vertices closed and some not.
    for g in (pet, hs, robertson(), no_c6_instance):
        for x in range(0, g.n, 7):
            n2 = sphere(g, x, 2) | g.adj[x] | {x}
            order = sorted(g.adj[x])
            ref = [i for i, xi in enumerate(order)
                   if all(g.adj[v] <= n2 for v in g.adj[xi] - {x})]
            assert closed_bunches(g, x) == ref, (g, x)


def test_sphere_petersen(pet):
    assert sphere(pet, 0, 0) == {0}
    assert sphere(pet, 0, 1) == {1, 4, 5}
    assert sphere(pet, 0, 2) == {2, 3, 6, 7, 8, 9}


def test_bunches_petersen_default_order(pet):
    bs = bunches(pet, 0)
    assert bs.neighbor_order == (1, 4, 5)
    assert bs.bunches == [[2, 6], [3, 9], [7, 8]]
    assert bs.d == 3
    assert bs.position[9] == (1, 1)


def test_bunches_reject_triangle():
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    with pytest.raises(PreconditionViolated, match="two bunches of 0; girth < 5"):
        bunches(g, 0)


def test_bunches_reject_four_cycle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(PreconditionViolated, match="two bunches of 0; girth < 5"):
        bunches(g, 0)


def test_bunches_custom_order_must_be_permutation(pet):
    with pytest.raises(ValueError):
        bunches(pet, 0, [1, 4, 4])


def test_s2_degree_petersen(pet):
    # S2(0) = {2,3,6,7,8,9} induces the 6-cycle 2-3 ... check two vertices
    assert s2_degree(pet, 0, 2) == 2
    assert s2_degree(pet, 0, 7) == 2
    with pytest.raises(BadInput, match="vertex 1 is not at distance 2 from 0"):
        s2_degree(pet, 0, 1)


def test_count_c6_formula_needs_girth5():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(PreconditionViolated, match="C6-in-N2 formula needs girth >= 5"):
        count_c6_in_n2(g, 0)


def test_c6_counts_petersen(pet):
    for x in range(10):
        assert count_c6_through_vertex(pet, x) == 6
        assert count_c6_in_n2(pet, x) == 6


def test_c6_through_matches_enumeration(pet):
    for x in range(10):
        assert count_c6_through_vertex(pet, x) == len(enumerate_c6_through(pet, x))


def test_c6_through_zero_on_large_cycle():
    g = cycle(9)
    assert count_c6_through_vertex(g, 0) == 0


def test_closed_bunches_petersen(pet):
    # diameter 2, so every bunch is closed at every vertex
    for x in range(10):
        assert closed_bunches(pet, x) == [0, 1, 2]


def test_closed_bunches_open_case():
    # a 7-cycle: the bunches of 0 reach distance 3, so none is closed
    g = cycle(7)
    assert closed_bunches(g, 0) == []


def test_relabel_preserves_structure(pet):
    perm = [(v + 3) % 10 for v in range(10)]
    h = relabel(pet, perm)
    assert h.m == pet.m
    assert girth(h) == 5
    assert h.regular_degree() == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_girth5_regular_bunches_partition_s2(seed):
    g = random_regular_girth(GenSpec(n=24, d=3, girth_min=5, seed=seed))
    for x in range(0, g.n, 5):
        bs = bunches(g, x)
        flat = [v for b in bs.bunches for v in b]
        assert len(flat) == len(set(flat))
        assert set(flat) == sphere(g, x, 2)
        assert all(len(b) == 2 for b in bs.bunches)
