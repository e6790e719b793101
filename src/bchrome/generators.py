"""Named graph constructions and a seeded random regular generator."""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass

from .errors import BadInput, GenerationFailed
from .graph import Graph, build_graph

# random_regular_girth's budgets: pairings drawn before GenerationFailed,
# and swap rounds per pairing in _try_swap_repair.
MAX_ATTEMPTS = 200
SWAP_BUDGET = 20_000


@dataclass
class GenSpec:
    """Parameters for random_regular_girth; deterministic per seed.

    The swap repair's score counts only 3- and 4-cycles, so above
    girth_min 5 its hill-climb is blind to the cycles it must remove and
    can spend every attempt's SWAP_BUDGET: n=40, d=4, girth_min 6, seed 0
    with one attempt raises GenerationFailed after 2.9 s.
    """

    n: int
    d: int
    girth_min: int = 5
    seed: int = 0


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadInput("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    """Outer 5-cycle 0-4, spokes i <-> i+5, inner pentagram 5-7-9-6-8-5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def hoffman_singleton() -> Graph:
    """The 7-regular girth-5 Moore graph on 50 vertices.

    Five pentagons P_0..P_4 (vertices 5h+j, edges j ~ j+-1 mod 5), five
    pentagrams Q_0..Q_4 (vertices 25+5i+j, edges j ~ j+-2 mod 5), and
    P_h vertex j adjacent to Q_i vertex (h*i + j) mod 5.
    """
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
    for i in range(5):
        for j in range(5):
            edges.append((25 + 5 * i + j, 25 + 5 * i + (j + 2) % 5))
    for h in range(5):
        for i in range(5):
            for j in range(5):
                edges.append((5 * h + j, 25 + 5 * i + (h * i + j) % 5))
    return build_graph(50, edges)


# The unique 4-regular girth-5 graph on 19 vertices (the (4,5)-cage): the
# edge set that random_regular_girth(GenSpec(n=19, d=4, girth_min=5,
# seed=7)) produced with 500 attempts.  It is kept as data, in this order,
# so that a change to the generator's draws cannot relabel it.
_ROBERTSON_EDGES = (
    (0, 16), (0, 1), (0, 18), (0, 5), (1, 9), (1, 2), (1, 14), (2, 3),
    (2, 4), (2, 13), (3, 10), (3, 12), (3, 5), (4, 8), (4, 16), (4, 6),
    (5, 6), (5, 15), (6, 9), (6, 7), (7, 12), (7, 13), (7, 14), (8, 17),
    (8, 18), (8, 14), (9, 10), (9, 17), (10, 11), (10, 18), (11, 16),
    (11, 14), (11, 15), (12, 16), (12, 17), (13, 18), (13, 15), (15, 17),
)


def robertson() -> Graph:
    return build_graph(19, _ROBERTSON_EDGES)


def _pairing(n: int, d: int, rng: random.Random) -> Graph | None:
    """One configuration-model draw, pairing stubs while dodging loops and
    multi-edges; None when the leftover stubs admit no simple pairing."""
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    adj: list[set[int]] = [set() for _ in range(n)]
    while stubs:
        u = stubs.pop()
        choices = [i for i, v in enumerate(stubs) if v != u and v not in adj[u]]
        if not choices:
            return None
        i = choices[rng.randrange(len(choices))]
        v = stubs.pop(i)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, adj)


def _short_cycle(g: Graph, below: int) -> list[tuple[int, int]] | None:
    """Edge list of some cycle shorter than `below`, or None.

    BFS from every vertex; the first closing edge found at a root whose
    closed walk is short enough is reconstructed into a cycle.
    """
    dist = [0] * g.n
    parent = [-1] * g.n
    stamp = [-1] * g.n  # w is reached from root when stamp[w] == root
    for root in range(g.n):
        stamp[root] = root
        dist[root] = 0
        parent[root] = -1  # ends the walks up the BFS tree
        q = deque([root])
        while q:
            u = q.popleft()
            if 2 * dist[u] + 1 >= below:
                break
            for w in g.adj[u]:
                if stamp[w] != root:
                    stamp[w] = root
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w and dist[u] + dist[w] + 1 < below:
                    path_u = []
                    a = u
                    while a != -1:
                        path_u.append(a)
                        a = parent[a]
                    path_w = []
                    a = w
                    while a != -1:
                        path_w.append(a)
                        a = parent[a]
                    common = set(path_u) & set(path_w)
                    # The prefixes up to the lowest common ancestor are
                    # disjoint, so this is a cycle of length at most
                    # dist[u] + dist[w] + 1 < below.
                    meet = next(a for a in path_u if a in common)
                    iu = path_u.index(meet)
                    iw = path_w.index(meet)
                    verts = path_u[:iu] + [meet] + list(reversed(path_w[:iw]))
                    return [
                        (verts[i], verts[(i + 1) % len(verts)])
                        for i in range(len(verts))
                    ]
    return None


def _short_cycle_score(g: Graph, girth_min: int) -> int:
    """Weighted count of cycles shorter than girth_min (lengths 3 and 4)."""
    score = 0
    if girth_min > 3:
        tri = sum(len(g.adj[u] & g.adj[v]) for u, v in g.edges()) // 3
        score += 3 * tri
    if girth_min > 4:
        # co[v] counts the 2-paths u-w-v, that is the common neighbours of u
        # and v; each pair of them closes a 4-cycle with u and v opposite,
        # and each 4-cycle has two such opposite pairs.
        quad = 0
        for u in range(g.n):
            co = Counter(v for w in g.adj[u] for v in g.adj[w] if v > u)
            quad += sum(c * (c - 1) // 2 for c in co.values())
        score += quad // 2
    return score


def _edge_score(g: Graph, x: int, y: int, girth_min: int) -> int:
    """The share of _short_cycle_score held by cycles through edge xy: 3 per
    triangle xyz, 1 per 4-cycle x-y-z-w-x (w runs over N(z) & N(x) minus y).
    Only called with girth_min > 3, where the triangle term always counts."""
    nx = g.adj[x]
    score = 3 * len(nx & g.adj[y])
    if girth_min > 4:
        score += sum(len(g.adj[z] & nx) - 1 for z in g.adj[y] if z != x)
    return score


def _apply_swap(g: Graph, u: int, v: int, a: int, b: int) -> None:
    g.adj[u].discard(v)
    g.adj[v].discard(u)
    g.adj[a].discard(b)
    g.adj[b].discard(a)
    g.adj[u].add(a)
    g.adj[a].add(u)
    g.adj[v].add(b)
    g.adj[b].add(v)


def _scored_swap(g: Graph, u: int, v: int, a: int, b: int, girth_min: int) -> int:
    """Apply the swap (u,v),(a,b) -> (u,a),(v,b) and return the exact change
    in _short_cycle_score (girth_min > 3).

    Only cycles through a removed or an added edge change: the ones lost
    through uv and ab, and the ones won through ua and vb.  A triangle holds
    no two disjoint edges; a is not adjacent to u before the swap, and uv and
    ab are gone after it, so the one cycle on both lost edges is the 4-cycle
    u-v-a-b-u and the one on both won edges is u-a-v-b-u.  The two edge
    scores count such a cycle twice.
    """
    lost = _edge_score(g, u, v, girth_min) + _edge_score(g, a, b, girth_min)
    if girth_min > 4 and a in g.adj[v] and b in g.adj[u]:
        lost -= 1
    _apply_swap(g, u, v, a, b)
    won = _edge_score(g, u, a, girth_min) + _edge_score(g, v, b, girth_min)
    if girth_min > 4 and v in g.adj[a] and b in g.adj[u]:
        won -= 1
    return won - lost


def _try_swap_repair(g: Graph, girth_min: int, rng: random.Random) -> bool:
    """Remove short cycles by degree-preserving 2-swaps.

    Hill-climbs on the short-cycle count, accepting plateau moves; one edge
    of a shortest short cycle is always an endpoint of the swap so plateau
    moves still shuffle the offending structure.  The count covers lengths
    3 and 4 only, so a zero count ends the search only when girth_min <= 5;
    above that, the search runs until no cycle shorter than girth_min is left.

    Each tentative swap is scored by _scored_swap from the four edges it
    touches, not by a full recount.  At most SWAP_BUDGET rounds run.
    """
    if girth_min <= 3:
        return True
    score = _short_cycle_score(g, girth_min)
    for _ in range(SWAP_BUDGET):
        if score == 0 and girth_min <= 5:
            return True
        cyc = _short_cycle(g, girth_min)
        if cyc is None:
            return True
        u, v = cyc[rng.randrange(len(cyc))]
        edges = g.edges()
        for _ in range(60):
            a, b = edges[rng.randrange(len(edges))]
            if rng.random() < 0.5:
                a, b = b, a
            if len({u, v, a, b}) < 4:
                continue
            # (u,v),(a,b) -> (u,a),(v,b); keep the graph simple
            if a in g.adj[u] or b in g.adj[v]:
                continue
            if v not in g.adj[u] or b not in g.adj[a]:
                continue
            delta = _scored_swap(g, u, v, a, b, girth_min)
            if delta <= 0:
                score += delta
                break
            _apply_swap(g, u, a, v, b)  # revert
        # A round with no accepted partner just retries with a fresh cycle
        # edge; the budget bounds the whole loop.
    return score == 0 and _short_cycle(g, girth_min) is None


def moore_bound(d: int, girth: int) -> int:
    """Fewest vertices a d-regular graph (d >= 2) of girth >= ``girth`` can
    have: 1 + d * sum_{i < (girth-1)/2} (d-1)^i for odd girth, and
    2 * sum_{i < girth/2} (d-1)^i for even girth."""
    k = max(girth // 2, 0)
    total = k if d == 2 else ((d - 1) ** k - 1) // (d - 2)
    return 1 + d * total if girth % 2 else 2 * total


def random_regular_girth(spec: GenSpec) -> Graph:
    """Configuration-model pairing plus local edge-swap repair of short cycles.

    Deterministic per seed.  A spec below the Moore bound is BadInput;
    otherwise raises GenerationFailed after MAX_ATTEMPTS exhausted pairings.
    Above girth_min 5 the repair climbs blind and can fail where a graph
    exists (see GenSpec).
    """
    if spec.d < 0:
        raise BadInput("degree must be nonnegative")
    if spec.n * spec.d % 2 != 0:
        raise BadInput("n*d must be even")
    if spec.d >= spec.n:
        raise BadInput("degree must be below n")
    # The bound grows with the girth and exceeds n at girth n + 1, so the
    # clamp keeps (d-1)^k small without changing the verdict.
    if spec.d >= 2 and spec.n < moore_bound(spec.d, min(spec.girth_min, spec.n + 1)):
        raise BadInput(
            f"n = {spec.n} is below the Moore bound for d = {spec.d}, "
            f"girth >= {spec.girth_min}"
        )
    rng = random.Random(spec.seed)
    for _ in range(MAX_ATTEMPTS):
        g = _pairing(spec.n, spec.d, rng)
        if g is None:
            continue
        if _try_swap_repair(g, spec.girth_min, rng):
            return g
    raise GenerationFailed(MAX_ATTEMPTS)
