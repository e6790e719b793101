"""Shared fixtures and builders for structured test graphs."""

import random
from collections import deque

import pytest

from bchrome.coloring import PartialColoring
from bchrome.construct import (
    _bijective_bunch_fill,
    _color_first_bunch,
    _seed_center,
    swap_repair,
)
from bchrome.graph import Graph, bunches
from bchrome.generators import GenSpec, cycle, hoffman_singleton, petersen, random_regular_girth


@pytest.fixture(scope="module")
def girth_once_per_graph():
    """girth() memoised per graph object.  The census calls it twice per
    vertex, so a full census of the n = 400 graph takes about 20 s without
    this; the values are girth()'s own."""
    from bchrome import construct, graph as graph_mod

    girth = graph_mod.girth
    seen = []  # (graph, girth) pairs; graphs are unhashable

    def memo(g):
        for h, value in seen:
            if h is g:
                return value
        value = girth(g)
        seen.append((g, value))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "girth", memo)
        mp.setattr(construct, "girth", memo)
        yield


@pytest.fixture(scope="session")
def pet():
    return petersen()


@pytest.fixture(scope="session")
def hs():
    return hoffman_singleton()


@pytest.fixture(scope="session")
def c5():
    return cycle(5)


@pytest.fixture(scope="session")
def random_d7_n400():
    """`bchrome gen --family random-regular --n 400 --d 7 --seed 1`: girth 5,
    no center off every 6-cycle or with two closed bunches, and 299 centers
    with 1 to 5 six-cycles in N2, where bounded-c6 does real work."""
    return random_regular_girth(GenSpec(n=400, d=7, girth_min=5, seed=1))


def projective_plane_incidence(q: int) -> Graph:
    """Point-line incidence graph of PG(2, q), q prime: (q+1)-regular on
    2(q^2+q+1) vertices, girth 6.  Points and lines are the nonzero vectors
    of GF(q)^3 whose first nonzero entry is 1; point p (vertex i) lies on
    line l (vertex N + j) when p . l = 0 mod q."""
    vecs = [
        (a, b, c)
        for a in range(q) for b in range(q) for c in range(q)
        if (a, b, c) != (0, 0, 0) and next(e for e in (a, b, c) if e) == 1
    ]
    n = len(vecs)
    adj = [set() for _ in range(2 * n)]
    for i, p in enumerate(vecs):
        for j, l in enumerate(vecs):
            if sum(x * y for x, y in zip(p, l)) % q == 0:
                adj[i].add(n + j)
                adj[n + j].add(i)
    return Graph(2 * n, adj)


@pytest.fixture(scope="session")
def heawood():
    """The (3,6)-cage: 3-regular, girth 6, 14 vertices."""
    return projective_plane_incidence(2)


@pytest.fixture(scope="session")
def pg27():
    """Incidence graph of PG(2,7): 8-regular, girth 6, 114 vertices."""
    return projective_plane_incidence(7)


def synthetic_bunch_graph(d: int, seed: int, match_prob: float = 0.9) -> Graph:
    """Star of d bunches around vertex 0 plus a random partial matching on
    the union of the bunches, so every vertex has at most one neighbor at
    distance 2 from the center (the no-six-cycle structural condition)."""
    rng = random.Random(seed)
    n = 1 + d + d * (d - 1)
    adj = [set() for _ in range(n)]

    def link(u, v):
        adj[u].add(v)
        adj[v].add(u)

    owner = {}
    nxt = 1 + d
    for i in range(d):
        link(0, 1 + i)
        for v in range(nxt, nxt + d - 1):
            link(1 + i, v)
            owner[v] = i
        nxt += d - 1
    s2 = list(owner)
    rng.shuffle(s2)
    free = set(s2)
    for v in s2:
        if v not in free:
            continue
        cands = [w for w in free if w != v and owner[w] != owner[v]]
        if cands and rng.random() < match_prob:
            w = rng.choice(cands)
            link(v, w)
            free.discard(v)
            free.discard(w)
    return Graph(n, adj)


class CountingColoring(PartialColoring):
    """PartialColoring that counts its swaps."""

    __slots__ = ("swaps",)

    def __init__(self, n: int, k: int, colors=None):
        super().__init__(n, k, colors)
        self.swaps = 0

    def swap(self, u: int, v: int) -> None:
        self.swaps += 1
        super().swap(u, v)


def back_clashes(c, g, bs, t: int) -> int:
    """Monochromatic edges between bunch t and the bunches before it."""
    earlier = {v for bunch in bs.bunches[: t - 1] for v in bunch}
    return sum(
        1
        for v in bs.bunches[t - 1]
        for w in g.adj[v]
        if w in earlier and c.color(w) == c.color(v)
    )


def swap_repair_run(d: int, seed: int):
    """Center 0 of synthetic_bunch_graph(d, seed): seed the center and the
    first bunch, then fill and swap-repair bunches t = 2..d in turn.

    Returns the graph, the coloring and one (clashes after the fill, swaps)
    pair per swap_repair call.  Asserts that each call leaves bunch t with
    no clash and swaps at most once per clash (each swap must lower the
    count)."""
    g = synthetic_bunch_graph(d, seed)
    bs = bunches(g, 0)
    c = CountingColoring(g.n, d + 1)
    _seed_center(c, g, bs)
    _color_first_bunch(c, g, bs)
    calls = []
    for t in range(2, d + 1):
        _bijective_bunch_fill(c, bs, t)
        clashes, start = back_clashes(c, g, bs, t), c.swaps
        swap_repair(c, g, bs, t)
        swaps = c.swaps - start
        assert back_clashes(c, g, bs, t) == 0
        assert swaps <= clashes
        calls.append((clashes, swaps))
    return g, c, calls


def protected_no_c6_graph(d=7, s3=350, seed=0, max_steps=60_000):
    """d-regular girth-5 graph in which vertex 0 lies on no 6-cycle.

    N2[0] is wired as a rigid star of bunches; the rest is filled by greedy
    linking of deficit vertices at distance >= 4 (keeps girth >= 5), with an
    edge-rotation move when the greedy step is stuck.  No vertex outside
    S2(0) ever takes two S2(0) neighbors and S2(0) stays independent, which
    together keep vertex 0 off every 6-cycle.
    """
    rng = random.Random(seed)
    n = 1 + d + d * (d - 1) + s3
    adj = [set() for _ in range(n)]

    def link(u, v):
        adj[u].add(v)
        adj[v].add(u)

    s2_lo, s2_hi = 1 + d, 1 + d + d * (d - 1)
    for i in range(d):
        link(0, 1 + i)
        for j in range(d - 1):
            link(1 + i, s2_lo + i * (d - 1) + j)

    def is_s2(v):
        return s2_lo <= v < s2_hi

    has_s2_nb = [False] * n

    def ball3(u):
        dist = {u: 0}
        q = deque([u])
        while q:
            w = q.popleft()
            if dist[w] >= 3:
                continue
            for z in adj[w]:
                if z not in dist:
                    dist[z] = dist[w] + 1
                    q.append(z)
        return set(dist)

    def allowed(u, v):
        if is_s2(u) and is_s2(v):
            return False
        if is_s2(u) and has_s2_nb[v]:
            return False
        if is_s2(v) and has_s2_nb[u]:
            return False
        return v > d or v == 0

    def note(u, v):
        if is_s2(u):
            has_s2_nb[v] = True
        if is_s2(v):
            has_s2_nb[u] = True

    deficit = [v for v in range(n) if len(adj[v]) < d]
    steps = 0
    while deficit and steps < max_steps:
        steps += 1
        u = max(deficit, key=lambda v: (d - len(adj[v]), rng.random()))
        forb = ball3(u)
        cands = [v for v in deficit if v not in forb and allowed(u, v)]
        if cands:
            v = rng.choice(cands)
            link(u, v)
            note(u, v)
        else:
            pool = [
                a
                for a in range(n)
                if a not in forb and allowed(u, a) and adj[a] and a > d
            ]
            if not pool:
                return None
            a = rng.choice(pool)
            movable = [b for b in adj[a] if b > d]
            if not movable:
                continue
            b = rng.choice(movable)
            adj[a].discard(b)
            adj[b].discard(a)
            if is_s2(a):
                has_s2_nb[b] = False
            if is_s2(b):
                has_s2_nb[a] = False
            link(u, a)
            note(u, a)
        deficit = [v for v in range(n) if len(adj[v]) < d]
    if deficit:
        return None
    return Graph(n, adj)


@pytest.fixture(scope="session")
def no_c6_instance():
    from bchrome.graph import count_c6_through_vertex, girth

    for seed in range(10):
        g = protected_no_c6_graph(seed=seed)
        if g is None:
            continue
        if girth(g) == 5 and count_c6_through_vertex(g, 0) == 0:
            return g
    pytest.fail("could not build a no-C6 instance")
