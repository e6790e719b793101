"""Seeded planted no-C6 graphs: d-regular, girth 5, vertex 0 on no 6-cycle.

The same algorithm, and the same use of the random stream, as the
``protected_no_c6_graph`` generator in the test suite, so a seed gives the
same graph in both places.
"""

from __future__ import annotations

import random
from collections import deque


def protected_no_c6_adj(d: int, s3: int, seed: int, max_steps: int = 60_000):
    """Adjacency sets of a planted graph on 1 + d^2 + s3 vertices, or None.

    N2[0] is wired as a rigid star of bunches; the rest is filled by greedy
    linking of deficit vertices at distance >= 4 (keeps girth >= 5), with an
    edge-rotation move when the greedy step is stuck.  No vertex outside
    S2(0) ever takes two S2(0) neighbours and S2(0) stays independent, which
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
    return adj
