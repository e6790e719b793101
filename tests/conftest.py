"""Shared fixtures and builders for structured test graphs."""

import importlib.util
import random
from pathlib import Path

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


@pytest.fixture(scope="session")
def no_c6_instance():
    """The planted d = 7 graph on 400 vertices with vertex 0 on no 6-cycle,
    from the first seed that yields one.  The builder is loaded from
    bench/planted.py, so the tests run on the graph the benchmark runs on."""
    from bchrome.graph import count_c6_through_vertex, girth

    path = Path(__file__).resolve().parents[1] / "bench" / "planted.py"
    spec = importlib.util.spec_from_file_location("planted", path)
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    for seed in range(10):
        adj = planted.protected_no_c6_adj(7, 350, seed)
        if adj is None:
            continue
        g = Graph(len(adj), adj)
        if girth(g) == 5 and count_c6_through_vertex(g, 0) == 0:
            return g
    pytest.fail("could not build a no-C6 instance")
