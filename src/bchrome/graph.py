"""Simple undirected graphs and the structural queries the constructions need.

Vertices are dense integers 0..n-1.  A Graph is immutable after
construction; every query takes it by read access only.  That is the
contract of the one value a Graph memoises, ``short_girth``: only the
parsers and the generators' edge swaps change ``adj`` in place, and they do
it before anything has queried the graph.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BadInput, PreconditionViolated

INF = math.inf


class Graph:
    """Undirected simple graph on vertices 0..n-1, adjacency stored as sets.

    ``_short_girth`` holds short_girth's answer once it has been computed
    for this object; it is never shared with another Graph.
    """

    __slots__ = ("n", "adj", "_short_girth")

    def __init__(self, n: int, adj: list[set[int]]):
        self.n = n
        self.adj = adj
        self._short_girth: float | None = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def regular_degree(self) -> int | None:
        """Common degree if the graph is regular, else None."""
        if self.n == 0:
            return None
        degs = {len(a) for a in self.adj}
        return degs.pop() if len(degs) == 1 else None

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise BadInput(f"vertex {v} not in 0..{self.n - 1}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges collapse, self-loops are errors."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise BadInput(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise BadInput(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, adj)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex permutation v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise BadInput("perm is not a permutation of the vertex set")
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def distances(g: Graph, v: int) -> list[float]:
    """BFS distances from v; unreachable vertices map to inf."""
    g.check_vertex(v)
    dist: list[float] = [INF] * g.n
    dist[v] = 0
    q = deque([v])
    while q:
        u = q.popleft()
        for w in g.adj[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def sphere(g: Graph, v: int, k: int) -> set[int]:
    """Vertices at distance exactly k from v.

    A BFS by levels that stops at depth k: a neighbor of level i lies in
    level i - 1, i or i + 1, so level i + 1 is the neighborhood of level i
    less levels i and i - 1.  The cost is that of the radius-k ball.
    """
    if k < 0:
        raise BadInput("radius must be nonnegative")
    g.check_vertex(v)
    adj = g.adj
    prev: set[int] = set()
    level = {v}
    for _ in range(k):
        if not level:
            break
        nxt = set().union(*map(adj.__getitem__, level))
        nxt -= level
        nxt -= prev
        prev, level = level, nxt
    return level


def girth(g: Graph, upto: int | None = None) -> float:
    """Length of a shortest cycle, or inf for acyclic graphs; with ``upto``,
    the girth when it is at most upto, else inf.

    BFS from every vertex; the first non-tree edge seen from each root gives
    a closed walk through the root, and the minimum over all roots is exact.
    A BFS stops at the depth where it can close no walk shorter than best.
    With upto, best starts at upto + 1: every walk found is at least the
    girth long, and a girth of at most upto is still found from a vertex of
    a shortest cycle, so no BFS goes deeper than about upto / 2.
    """
    best = INF if upto is None else upto + 1
    dist = [0] * g.n
    parent = [-1] * g.n
    # One set of lists for all roots: w is reached from root when
    # stamp[w] == root.  parent[root] is never read, as every neighbor of
    # the root is unreached when the root is scanned.
    stamp = [-1] * g.n
    for root in range(g.n):
        stamp[root] = root
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            if 2 * dist[u] >= best:
                break
            for w in g.adj[u]:
                if stamp[w] != root:
                    stamp[w] = root
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best if upto is None or best <= upto else INF


# Above this many vertices short_girth runs the set test: the masks grow
# as n^2/8 bytes when edges join far-apart labels, and on random lifts of
# Hoffman-Singleton they lose on time from about n = 5000 on.
MASK_MAX_N = 5000


def short_girth(g: Graph) -> float:
    """The girth when it is at most 5, else inf.

    Computed once per Graph object (see the module docstring) by
    _short_girth_masks, or by _short_girth_sets above MASK_MAX_N vertices.
    """
    if g._short_girth is None:
        test = _short_girth_masks if g.n <= MASK_MAX_N else _short_girth_sets
        g._short_girth = test(g)
    return g._short_girth


def _short_girth_masks(g: Graph) -> float:
    """short_girth from radius-2 bitmask tests.

    Each neighbourhood N(u) is an integer bitmask.  At each vertex v, the
    union U of N(u) over u in N(v) holds v and the bunches N(u) \\ {v}.
    U meeting N(v) closes a triangle; U smaller than sum deg(u) - deg(v) + 1
    means two bunches meet, which closes a 4-cycle.  Without those,
    S2(v) = U \\ {v} is the disjoint union of the bunches, and an edge
    inside S2(v) closes a 5-cycle through v (or a triangle, when both ends
    share a bunch).  A shortest cycle of length <= 5 is found at each of its
    vertices, and no test reports a length below the girth, so the minimum
    over all v is exact.
    """
    adj = g.adj
    mask = []
    for a in adj:
        m = 0
        for w in a:
            m |= 1 << w
        mask.append(m)
    best = INF
    for v, nv in enumerate(adj):
        union = total = 0
        for u in nv:
            union |= mask[u]
            total += len(adj[u])
        if not union:
            continue  # an isolated vertex lies on no cycle
        if union & mask[v]:
            return 3
        if union.bit_count() != total - len(nv) + 1:
            best = 4
        elif best > 5 and any(mask[w] & union for u in nv for w in adj[u]):
            # w runs over U = S2(v) + {v}.  N(v) misses U, and no w in S2(v)
            # is adjacent to v, so a hit is an edge inside S2(v).
            best = 5
    return best


def _short_girth_sets(g: Graph) -> float:
    """short_girth from the same radius-2 tests on sets, in O(n d^3) time
    and O(d^2) extra memory.

    At each vertex v: a bunch N(u) \\ {v} (u in N(v)) meeting N(v) closes
    a triangle, and two bunches meeting close a 4-cycle.  Without those,
    S2(v) is the disjoint union of the bunches, and an edge inside S2(v)
    closes a 5-cycle through v (or a triangle, when both ends share a
    bunch).  The minimum over all v is exact, as in _short_girth_masks.
    """
    adj = g.adj
    best = INF
    for v, nv in enumerate(adj):
        s2: set[int] = set()
        total = 0
        for u in nv:
            au = adj[u]
            if not au.isdisjoint(nv):
                return 3
            s2 |= au
            total += len(au) - 1
        s2.discard(v)
        if len(s2) != total:
            best = 4
        elif best > 5 and any(not adj[w].isdisjoint(s2) for w in s2):
            best = 5
    return best


@dataclass
class BunchStructure:
    """Ordered bunches around a center vertex, as bunches() builds them.

    ``bunches[i]`` lists the neighbors of ``neighbor_order[i]`` other than
    the center.  ``position`` maps each bunch vertex to its 0-based
    (bunch index, position within bunch).  ``s2`` is S2(center), the
    vertices at distance exactly 2: the union of the bunches, which
    bunches() proves disjoint from each other and from N[center].
    """

    center: int
    neighbor_order: tuple[int, ...]
    bunches: list[list[int]]
    position: dict[int, tuple[int, int]]
    s2: set[int]

    @property
    def d(self) -> int:
        return len(self.neighbor_order)

    def s2_degrees(self, g: Graph) -> dict[int, int]:
        """Each S2 vertex's number of neighbors inside S2."""
        s2 = self.s2
        return {v: len(g.adj[v] & s2) for v in s2}

    # The three hypothesis numbers below.  c6_in_n2 and closed_bunch_indices
    # are the only definitions of theirs; c6_through counts what
    # count_c6_through_vertex counts.  They are exact at girth >= 5.
    # bunches() rules out only the 3- and 4-cycles through the center, so
    # the caller must know the girth.

    def c6_through(self, g: Graph) -> int:
        """Number of 6-cycles of g through the center.

        A 6-cycle x-a-b-w-b'-a'-x is two non-backtracking 3-walks
        x-x_i-v-w (v in bunch i, w != x_i) that end at its vertex w opposite
        x.  At girth >= 5 two such walks to the same w share no inner
        vertex (a shared x_i or v would close a 4-cycle or put v in two
        bunches), so each pair of them is one 6-cycle, counted once: the sum
        of C(p, 2) over the number p of walks that end at each w.
        """
        adj = g.adj
        ends = Counter(
            w
            for xi, bunch in zip(self.neighbor_order, self.bunches)
            for v in bunch
            for w in adj[v]
            if w != xi
        )
        return sum(p * (p - 1) // 2 for p in ends.values())

    def c6_in_n2(self, g: Graph) -> int:
        """Number of 6-cycles through the center inside G[N2[center]]: each
        has its vertex opposite the center in S2, with both of its cycle
        neighbors in S2, so it adds C(p, 2) at an S2 vertex of S2-degree p."""
        return sum(p * (p - 1) // 2 for p in self.s2_degrees(g).values())

    def closed_bunch_indices(self, g: Graph) -> list[int]:
        """0-based indices of the bunches whose vertices keep all neighbors
        in N2[center].  No bunch vertex is adjacent to the center, so the
        test needs only N(center) and S2."""
        n2 = self.s2 | g.adj[self.center]
        return [i for i, bunch in enumerate(self.bunches)
                if all(g.adj[v] <= n2 for v in bunch)]


def bunches(g: Graph, x: int, neighbor_order: Sequence[int] | None = None) -> BunchStructure:
    """Bunch structure at x: bunch i is N(x_i) \\ {x} for the i-th neighbor.

    Raises PreconditionViolated when a vertex would fall in two bunches (or in
    a bunch and in N[x]), which only happens below girth 5.
    """
    g.check_vertex(x)
    if neighbor_order is None:
        order = tuple(sorted(g.adj[x]))
    else:
        order = tuple(neighbor_order)
        if sorted(order) != sorted(g.adj[x]):
            raise BadInput("neighbor_order is not a permutation of N(x)")
    closed = set(g.adj[x]) | {x}
    s2: set[int] = set()
    position: dict[int, tuple[int, int]] = {}
    bunch_lists: list[list[int]] = []
    for i, xi in enumerate(order):
        bunch = sorted(g.adj[xi] - {x})
        for j, v in enumerate(bunch):
            if v in s2 or v in closed:
                raise PreconditionViolated(
                    f"vertex {v} falls in two bunches of {x}; girth < 5"
                )
            position[v] = (i, j)
        s2.update(bunch)
        bunch_lists.append(bunch)
    return BunchStructure(x, order, bunch_lists, position, s2)


def s2_degree(g: Graph, x: int, v: int) -> int:
    """Degree of v inside the subgraph induced by S2(x)."""
    s2 = sphere(g, x, 2)
    if v not in s2:
        raise BadInput(f"vertex {v} is not at distance 2 from {x}")
    return sum(1 for w in g.adj[v] if w in s2)


def count_c6_in_n2(g: Graph, x: int) -> int:
    """BunchStructure.c6_in_n2 at x, once girth() proves girth >= 5."""
    if girth(g) < 5:
        raise PreconditionViolated("C6-in-N2 formula needs girth >= 5")
    return bunches(g, x).c6_in_n2(g)


def count_c6_through_vertex(g: Graph, x: int) -> int:
    """Number of distinct 6-cycles of g containing x, at any girth.

    Meet in the middle: list the simple 3-paths x-a-b-w (at most
    d(d-1)^2 of them), group them by their end w, and count the unordered
    pairs x-a-b-w, x-a'-b'-w in each group whose interiors {a, b} and
    {a', b'} are disjoint.  Such a pair has six distinct vertices, so it
    closes the 6-cycle x-a-b-w-b'-a'-x.  Conversely a 6-cycle through x
    splits at its vertex w opposite x into exactly two such 3-paths, one
    per direction, so it is counted once, in w's group, by that one pair.
    """
    g.check_vertex(x)
    adj = g.adj
    by_end: dict[int, list[tuple[int, int]]] = {}
    for a in adj[x]:
        for b in adj[a]:
            if b != x:
                for w in adj[b]:
                    if w != x and w != a:
                        by_end.setdefault(w, []).append((a, b))
    return sum(
        1
        for paths in by_end.values()
        for (a, b), (a2, b2) in combinations(paths, 2)
        if a != a2 and b != b2 and a != b2 and b != a2
    )


def closed_bunches(g: Graph, x: int) -> list[int]:
    """BunchStructure.closed_bunch_indices at x, once girth() proves
    girth >= 5."""
    if girth(g) < 5:
        raise PreconditionViolated("closed bunches need girth >= 5")
    return bunches(g, x).closed_bunch_indices(g)
