"""Independent output checks for the benchmark.

Nothing here imports ``bchrome.coloring`` or ``bchrome.construct``: the
certificate check, the girth and the 6-cycle formula are written again from
their definitions, so that a defect in the package cannot hide itself.
Graphs are plain adjacency lists (``adj[v]`` is the set of neighbours of v).
"""

from __future__ import annotations

import copy
from collections import deque


def girth(adj: list[set[int]]) -> int | None:
    """Length of a shortest cycle, or None for a forest (BFS from every vertex)."""
    n = len(adj)
    best = None
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc
    return best


def fingerprint(adj: list[set[int]]) -> dict:
    """n, m, common degree (None if irregular) and girth of a graph."""
    degs = {len(a) for a in adj}
    return {
        "n": len(adj),
        "m": sum(len(a) for a in adj) // 2,
        "d": degs.pop() if len(degs) == 1 else None,
        "girth": girth(adj),
    }


def second_sphere(adj: list[set[int]], x: int) -> set[int]:
    """Vertices at distance exactly 2 from x."""
    s2: set[int] = set()
    for a in adj[x]:
        s2 |= adj[a]
    return s2 - adj[x] - {x}


def c6_in_n2(adj: list[set[int]], x: int) -> int:
    """6-cycles through x inside N2[x] for girth >= 5: sum of C(p, 2) over
    the S2 vertices, p being a vertex's number of neighbours in S2(x)."""
    s2 = second_sphere(adj, x)
    total = 0
    for v in s2:
        p = len(adj[v] & s2)
        total += p * (p - 1) // 2
    return total


def is_b_vertex(adj: list[set[int]], colors: list[int], v: int, k: int) -> bool:
    """Does the closed neighbourhood of v carry all k colours?"""
    seen = {colors[w] for w in adj[v]}
    seen.add(colors[v])
    return len(seen) == k


def check_certificate(doc: dict, adj: list[set[int]], facts: dict, k: int) -> str | None:
    """None when ``doc`` certifies a b-colouring of the graph with k colours,
    else the first failing check.

    Checks the fingerprint, totality and range, properness, that exactly k
    classes are used, and that every class claims a vertex of its own colour
    whose closed neighbourhood sees all k colours.
    """
    if not isinstance(doc, dict):
        return "the certificate is not a JSON object"
    for key in ("n", "m", "d", "girth"):
        if doc.get(key) != facts[key]:
            return f"fingerprint: {key} is {doc.get(key)!r}, graph has {facts[key]!r}"
    if doc.get("k") != k:
        return f"k is {doc.get('k')!r}, expected {k}"
    colors = doc.get("colors")
    n = len(adj)
    if not isinstance(colors, list) or len(colors) != n:
        return "colors is not a list of length n"
    if any(type(c) is not int or not 1 <= c <= k for c in colors):
        return "a colour is not an integer in 1..k"
    for u in range(n):
        for w in adj[u]:
            if u < w and colors[u] == colors[w]:
                return f"improper edge ({u}, {w})"
    if set(colors) != set(range(1, k + 1)):
        return "the colouring does not use exactly k classes"
    claims = doc.get("b_vertices")
    if not isinstance(claims, dict) or set(claims) != {str(c) for c in range(1, k + 1)}:
        return "missing class: b_vertices does not name one vertex per class"
    for cls, v in claims.items():
        if type(v) is not int or not 0 <= v < n or colors[v] != int(cls):
            return f"class {cls} claims vertex {v!r}, which is not of that colour"
        if not is_b_vertex(adj, colors, v, k):
            return f"class {cls} claims vertex {v}, which is not a b-vertex"
    return None


def self_test(doc: dict, adj: list[set[int]], facts: dict, k: int) -> list[str]:
    """Show that check_certificate rejects three broken copies of a valid
    certificate: one improper edge, one missing class, one non-b-vertex claim.

    Returns the problems found; an empty list means the checker behaved.
    """
    problems = []
    if check_certificate(doc, adj, facts, k) is not None:
        return ["the unbroken certificate is rejected"]
    colors = doc["colors"]

    improper = copy.deepcopy(doc)
    u = next(v for v in range(len(adj)) if adj[v])
    w = min(adj[u])
    improper["colors"][w] = colors[u]
    if not (check_certificate(improper, adj, facts, k) or "").startswith("improper edge"):
        problems.append("a certificate with an improper edge is not rejected as improper")

    missing = copy.deepcopy(doc)
    del missing["b_vertices"][str(k)]
    if not (check_certificate(missing, adj, facts, k) or "").startswith("missing class"):
        problems.append("a certificate with a missing class is not rejected")

    fake = next(
        ((cls, v) for cls in range(1, k + 1) for v in range(len(adj))
         if colors[v] == cls and not is_b_vertex(adj, colors, v, k)),
        None,
    )
    if fake is None:
        problems.append("no vertex is free to make a non-b-vertex claim")
    else:
        claim = copy.deepcopy(doc)
        claim["b_vertices"][str(fake[0])] = fake[1]
        if "not a b-vertex" not in (check_certificate(claim, adj, facts, k) or ""):
            problems.append("a non-b-vertex claim is not rejected")
    return problems
