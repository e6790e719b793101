"""Partial colorings, b-vertex predicates, greedy completion, verifier."""

import pytest

from bchrome.coloring import (
    Certificate,
    PartialColoring,
    available_colors,
    b_vertices,
    greedy_complete,
    is_b_coloring,
    is_proper,
    verify_certificate,
)
from bchrome.errors import BadInput, CompletionFailedError, ConstructionFailed
from bchrome.generators import cycle, hoffman_singleton, petersen
from bchrome.graph import build_graph


def test_assign_rejects_out_of_range(pet):
    c = PartialColoring(10, 3)
    with pytest.raises(ValueError):
        c.assign(0, 4, pet)


def test_assign_rejects_clash(pet):
    c = PartialColoring(10, 3)
    c.assign(0, 1, pet)
    with pytest.raises(ConstructionFailed):
        c.assign(1, 1, pet)


def test_available_colors(pet):
    c = PartialColoring(10, 4)
    assert available_colors(c, pet, 0) == {1, 2, 3, 4}
    c.assign(0, 4, pet)
    c.assign(1, 1, pet)
    c.assign(4, 2, pet)
    assert available_colors(c, pet, 0) == {3}
    c.assign(5, 3, pet)
    assert available_colors(c, pet, 0) == set()
    assert 0 in b_vertices(c, pet)


def test_is_proper(pet):
    c = PartialColoring(10, 3)
    assert is_proper(c, pet)
    c.assign(0, 1, pet)
    assert is_proper(c, pet)
    c._colors[1] = 1  # bypass the guarded assign
    assert not is_proper(c, pet)


def _random_graph(rng, n, p):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


def _proper_by_edges(colors, g):
    """Properness from its definition: no edge has two equal colours."""
    return not any(colors[u] is not None and colors[u] == colors[v]
                   for u, v in g.edges())


def test_is_proper_matches_edge_definition():
    import random

    rng = random.Random(11)
    seen = set()
    for _ in range(1500):
        g = _random_graph(rng, rng.randint(0, 12), rng.random())
        k = rng.randint(1, 4)
        colors = [None if rng.random() < 0.4 else rng.randint(1, k) for _ in range(g.n)]
        want = _proper_by_edges(colors, g)
        assert is_proper(PartialColoring(g.n, k, colors), g) == want
        seen.add(want)
        for u, v in g.edges()[:3]:
            # None at one end or at both ends never clashes; two equal
            # colours on the ends always do, wherever the edge lies.
            for cu, cv, proper in ((None, 1, True), (1, None, True), (None, None, True),
                                   (1, 1, False), (1, 2, True)):
                trial = [None] * g.n
                trial[u], trial[v] = cu, cv
                assert is_proper(PartialColoring(g.n, 2, trial), g) == proper
            trial = list(colors)
            trial[u] = trial[v] = k
            assert not is_proper(PartialColoring(g.n, k, trial), g)
    assert seen == {True, False}


def test_greedy_complete_is_first_fit():
    import random

    rng = random.Random(12)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(1, 12), rng.random() * 0.6)
        k = max(len(a) for a in g.adj) + 1
        c = PartialColoring(g.n, k)
        for v in rng.sample(range(g.n), rng.randint(0, g.n)):
            free = [col for col in range(1, k + 1)
                    if all(c.color(w) != col for w in g.adj[v])]
            c.assign(v, rng.choice(free), g)
        want = c.colors()
        for v in range(g.n):
            if want[v] is None:
                want[v] = min(set(range(1, k + 1)) - {want[w] for w in g.adj[v]})
        assert greedy_complete(c, g) is c
        assert c.colors() == want


def _first_fit_by_neighbors(colors, g, k):
    """First fit from its definition, one neighbor at a time: the completed
    colors, or (v, colors so far) when vertex v has no free color."""
    out = list(colors)
    for v in range(g.n):
        if out[v] is None:
            free = [col for col in range(1, k + 1)
                    if all(out[w] != col for w in g.adj[v])]
            if not free:
                return v, out
            out[v] = free[0]
    return out


def _partial_colorings(g, rng, count):
    """Seeded partial colorings of g: a proper first-fit coloring with a
    random share of its vertices uncolored and, half of the time, one
    vertex recolored at random (which may or may not clash), and fully
    random ones with None entries and k from 1 to max degree + 2."""
    delta = max(len(a) for a in g.adj)
    base = _first_fit_by_neighbors([None] * g.n, g, delta + 1)
    for _ in range(count):
        if rng.random() < 0.5:
            k = delta + 1
            colors = [None if rng.random() < rng.random() else col for col in base]
            if rng.random() < 0.5:
                colors[rng.randrange(g.n)] = rng.randint(1, k)
        else:
            k = rng.randint(1, delta + 2)
            colors = [None if rng.random() < 0.3 else rng.randint(1, k) for _ in range(g.n)]
        yield k, colors


def test_whole_coloring_passes_match_per_neighbor_definitions(pet, hs, no_c6_instance):
    import random

    rng = random.Random(26)
    graphs = [pet, hs, no_c6_instance] + [
        _random_graph(rng, rng.randint(1, 40), rng.random() * 0.3) for _ in range(12)]
    verdicts, failures = set(), 0
    for g in graphs:
        for k, colors in _partial_colorings(g, rng, 20):
            want = _proper_by_edges(colors, g)
            assert is_proper(PartialColoring(g.n, k, colors), g) == want
            verdicts.add(want)
            c = PartialColoring(g.n, k, colors)
            ref = _first_fit_by_neighbors(colors, g, k)
            if isinstance(ref, tuple):
                with pytest.raises(CompletionFailedError) as exc:
                    greedy_complete(c, g)
                assert exc.value.vertex == ref[0]
                assert c.colors() == ref[1]
                failures += 1
            else:
                assert greedy_complete(c, g).colors() == ref
    assert verdicts == {True, False}
    assert failures > 0


def test_is_b_coloring_requires_total(c5):
    c = PartialColoring(5, 3)
    with pytest.raises(BadInput, match="b-coloring check needs a total coloring"):
        is_b_coloring(c, c5, 3)


def test_is_b_coloring_c5():
    g = cycle(5)
    # 1-2-3-1-2 around the cycle leaves every class with a b-vertex
    c = PartialColoring(5, 3, [1, 2, 3, 1, 2])
    assert is_b_coloring(c, g, 3)
    # a proper 3-coloring where color 3 appears once at a vertex whose
    # neighborhood misses color 3 entirely for the other classes
    c2 = PartialColoring(5, 3, [1, 2, 1, 2, 3])
    # vertex colors: 0:1 1:2 2:1 3:2 4:3; class-1 b-vertex needs nbrs {2,3}
    # vertex 0 has nbrs 1 (2) and 4 (3): b-vertex. class 2: vertex 3 has
    # nbrs 2 (1) and 4 (3): b-vertex. class 3: vertex 4 has nbrs 3 (2) and
    # 0 (1): b-vertex. So this is also a b-coloring.
    assert is_b_coloring(c2, g, 3)


def test_is_b_coloring_rejects_class_without_b_vertex():
    g = cycle(6)
    c = PartialColoring(6, 3, [1, 2, 1, 2, 1, 3])
    # class 2 vertices (1 and 3) both have two distinctly colored nbrs?
    # vertex 1: nbrs 0 (1), 2 (1) -> sees only color 1, not a b-vertex
    # vertex 3: nbrs 2 (1), 4 (1) -> same. So not a b-coloring.
    assert not is_b_coloring(c, g, 3)


def test_greedy_complete_fills_everything(pet):
    c = PartialColoring(10, 4)
    greedy_complete(c, pet)
    assert c.is_total()
    assert is_proper(c, pet)


def test_greedy_complete_failure():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    c = PartialColoring(3, 2)
    with pytest.raises(CompletionFailedError) as exc:
        greedy_complete(c, g)
    assert exc.value.vertex == 2


def make_cert(g, strategy="two-bunch", **overrides):
    from bchrome.construct import color_two_bunch

    cert = color_two_bunch(g, 0)
    for key, val in overrides.items():
        setattr(cert, key, val)
    return cert


def test_verify_accepts_constructed(hs):
    cert = make_cert(hs)
    assert verify_certificate(cert, hs).ok


@pytest.mark.parametrize(
    "field,value,reason",
    [
        ("n", 49, "FingerprintMismatch"),
        ("m", 170, "FingerprintMismatch"),
        ("d", 6, "FingerprintMismatch"),
        ("girth", 6, "FingerprintMismatch"),
        ("center", 99, "BadCenter"),
        ("neighbor_order", list(range(7)), "BadNeighborOrder"),
        ("k", 10**30, "WrongColorCount"),  # must not size anything by k
        ("girth", 4, "FingerprintMismatch"),
        ("girth", 3, "FingerprintMismatch"),
        ("girth", 0, "FingerprintMismatch"),
    ],
)
def test_verify_rejects_bad_fields(hs, field, value, reason):
    cert = make_cert(hs, **{field: value})
    res = verify_certificate(cert, hs)
    assert not res.ok
    assert res.reason == reason


def test_verify_rejects_improper(hs):
    cert = make_cert(hs)
    u, v = hs.edges()[0]
    cert.colors[u] = cert.colors[v]
    res = verify_certificate(cert, hs)
    assert res.reason in ("ImproperEdge", "WrongColorCount")


def test_verify_rejects_wrong_b_vertex(hs):
    cert = make_cert(hs)
    # point class d+1 at a vertex of another color
    other = next(v for v in range(hs.n) if cert.colors[v] != cert.k)
    cert.b_vertices[cert.k] = other
    assert verify_certificate(cert, hs).reason == "BadBVertexClass"


def test_verify_rejects_non_b_vertex(hs):
    cert = make_cert(hs)
    claimed = cert.b_vertices[1]
    others = [
        v
        for v in range(hs.n)
        if cert.colors[v] == 1 and v != claimed
    ]
    from bchrome.coloring import PartialColoring as PC

    c = PC(hs.n, cert.k, list(cert.colors))
    non_b = [v for v in others if available_colors(c, hs, v)]
    if not non_b:
        pytest.skip("every class-1 vertex happens to be a b-vertex")
    cert.b_vertices[1] = non_b[0]
    assert verify_certificate(cert, hs).reason == "NotABVertex"


def test_verify_rejects_missing_class(hs):
    cert = make_cert(hs)
    del cert.b_vertices[3]
    assert verify_certificate(cert, hs).reason == "MissingClass"


def _witness_cert(g, k, gth):
    """Certificate for the oracle's b-coloring of g with k colors, each class
    claiming its lowest b-vertex, with the given girth claim."""
    from bchrome.oracle import b_coloring_exists

    res = b_coloring_exists(g, k)
    assert res.exists
    c = PartialColoring(g.n, k, res.coloring)
    claims = {cls: min(v for v in b_vertices(c, g) if c.color(v) == cls)
              for cls in range(1, k + 1)}
    return Certificate(
        strategy="oracle", center=claims[1], neighbor_order=sorted(g.adj[claims[1]]),
        colors=list(res.coloring), b_vertices=claims, n=g.n, m=g.m,
        d=g.regular_degree(), girth=gth, k=k,
    )


def test_verify_girth_claims_on_girth_6_graph(heawood):
    # The local test covers claims 3..5 and must still see girth 6 as
    # "none of them"; a claim of 6 or more takes the BFS bounded by the
    # claim, and a claim above n = 14 is refused before any search.
    assert verify_certificate(_witness_cert(heawood, 4, 6), heawood).ok
    for claim in (-1, 0, 2, 3, 4, 5, 7, 8, 14, 15, 10**30):
        res = verify_certificate(_witness_cert(heawood, 4, claim), heawood)
        assert res.reason == "FingerprintMismatch", claim


def _cycle_cert(g, claim):
    """Certificate for the 3-coloring 1, 2, 3, 1, ... along the cycle g
    (n divisible by 3, any labels), in which every vertex is a b-vertex."""
    colors = [0] * g.n
    prev, v = None, 0
    for i in range(g.n):
        colors[v] = i % 3 + 1
        prev, v = v, next(w for w in g.adj[v] if w != prev)
    return Certificate(
        strategy="none", center=0, neighbor_order=sorted(g.adj[0]), colors=colors,
        b_vertices={cls: colors.index(cls) for cls in (1, 2, 3)},
        n=g.n, m=g.m, d=2, girth=claim, k=3,
    )


def test_verify_cycle_girth_claims():
    c12 = cycle(12)
    assert verify_certificate(_cycle_cert(c12, 12), c12).ok
    for claim in (6, 7, 11, 13):
        assert verify_certificate(_cycle_cert(c12, claim), c12).reason == "FingerprintMismatch"


def test_verify_claim_above_n_runs_no_girth_search(heawood, monkeypatch):
    import bchrome.coloring as coloring_mod

    def spy(*args):
        raise AssertionError("girth search ran")

    monkeypatch.setattr(coloring_mod, "girth", spy)
    monkeypatch.setattr(coloring_mod, "short_girth", spy)
    for claim in (15, 10**30):
        res = verify_certificate(_witness_cert(heawood, 4, claim), heawood)
        assert res.reason == "FingerprintMismatch", claim


def test_verify_girth_7_claim_on_shuffled_3000_cycle():
    # The search stops at the claimed length: a few BFS levels per vertex,
    # where girth() without the bound walks the whole cycle from each one.
    import random

    from bchrome.graph import relabel

    n = 3000
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    g = relabel(cycle(n), perm)
    assert verify_certificate(_cycle_cert(g, 7), g).reason == "FingerprintMismatch"
