"""Seeded workloads: inputs built from the seed, and the ops of one pass.

A workload's function generates its graphs from ``--seed``, serializes them
as graph6 files, and returns the ops of one pass in a fixed order.  Each op
is one ``bchrome`` command line with the check its output must pass.  Every
vertex an op names is picked by a stated rule, never by hand.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from pathlib import Path
from typing import Callable

from bchrome import generators, oracle
from bchrome.formats import write_graph6
from bchrome.graph import Graph, count_c6_through_vertex, relabel

import check
from planted import protected_no_c6_adj

OP_KINDS = ("hypcheck", "color_auto", "color_vertex", "verify", "bchrom")


@dataclass
class Input:
    """One serialized graph; ``adj`` is kept for the independent checks."""

    name: str
    adj: list[set[int]]
    path: str

    @cached_property
    def facts(self) -> dict:
        return check.fingerprint(self.adj)


@dataclass
class Output:
    rc: int | None
    out: str
    err: str


@dataclass
class Op:
    """One CLI call.  ``check`` returns None when the output is right, else
    what is wrong.  ``cert`` names the certificate file the op writes
    (color) or checks (verify), with its graph and colour count."""

    id: str
    kind: str
    argv: list[str]
    check: Callable[[Output], str | None]
    cert: tuple[str, Input, int] | None = None


def _write(workdir: Path, name: str, g: Graph) -> Input:
    path = workdir / f"{name}.g6"
    path.write_text(write_graph6(g) + "\n", encoding="utf-8")
    return Input(name, g.adj, str(path))


def _perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# --- op constructors -------------------------------------------------------


def _hypcheck(inp: Input, strategies_ok: Callable[[list[list[str]]], str | None]) -> Op:
    """hypcheck, checked against the graph's own fingerprint, c6_in_n2 at
    every vertex by the closed formula, and a workload-specific rule on the
    per-vertex strategy lists."""

    def ok(o: Output) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()[:200]}"
        rep = json.loads(o.out)
        f = inp.facts
        for key in ("n", "m", "d", "girth"):
            if rep[key] != f[key]:
                return f"{key} is {rep[key]}, graph has {f[key]}"
        for vr in rep["per_vertex"]:
            want = check.c6_in_n2(inp.adj, vr["vertex"])
            if vr["c6_in_n2"] != want:
                return f"vertex {vr['vertex']}: c6_in_n2 {vr['c6_in_n2']}, formula gives {want}"
        return strategies_ok([vr["strategies"] for vr in rep["per_vertex"]])

    return Op(f"{inp.name}/hypcheck", "hypcheck", ["hypcheck", inp.path], ok)


def _color(inp: Input, cert_path: Path, strategy: str, center: int, vertex: int | None) -> Op:
    """color with --out; its first output line must name the expected
    strategy and center.  ``vertex`` None means auto mode."""
    k = inp.facts["d"] + 1
    head = f"strategy: {strategy}  center: {center}  k: {k}"
    argv = ["color", inp.path, "--out", str(cert_path)]
    if vertex is None:
        kind, op_id = "color_auto", f"{inp.name}/color-auto"
    else:
        kind, op_id = "color_vertex", f"{inp.name}/color-{strategy}-v{vertex}"
        argv += ["--strategy", strategy, "--vertex", str(vertex)]

    def ok(o: Output) -> str | None:
        if o.rc != 0:
            return f"exit {o.rc}: {o.err.strip()[:200]}"
        first = o.out.splitlines()[0] if o.out else ""
        return None if first == head else f"printed {first!r}, expected {head!r}"

    return Op(op_id, kind, argv, ok, cert=(str(cert_path), inp, k))


def _color_refused(inp: Input, vertex: int | None) -> Op:
    """color on a graph outside the theorems' scope: exit 2, not applicable."""
    argv = ["color", inp.path]
    kind, op_id = "color_auto", f"{inp.name}/color-auto"
    if vertex is not None:
        kind, op_id = "color_vertex", f"{inp.name}/color-no-c6-v{vertex}"
        argv += ["--strategy", "no-c6", "--vertex", str(vertex)]

    def ok(o: Output) -> str | None:
        if o.rc == 2 and o.err.startswith("not applicable"):
            return None
        return f"exit {o.rc}, expected 2 (not applicable): {o.err.strip()[:200]}"

    return Op(op_id, kind, argv, ok)


def _verify(inp: Input, cert_path: Path, k: int) -> Op:
    def ok(o: Output) -> str | None:
        if o.rc == 0 and o.out.strip() == "Accept":
            return None
        return f"exit {o.rc}: {(o.out + o.err).strip()[:200]}"

    op_id = f"{inp.name}/verify-{cert_path.stem}"
    return Op(op_id, "verify", ["verify", inp.path, str(cert_path)], ok, (str(cert_path), inp, k))


def _bchrom(inp: Input, answer: int, tag: str = "") -> Op:
    def ok(o: Output) -> str | None:
        if o.rc == 0 and o.out.strip() == str(answer):
            return None
        return f"exit {o.rc}, printed {o.out.strip()!r}, expected {answer}"

    return Op(f"{inp.name}/bchrom{tag}", "bchrom", ["bchrom", inp.path], ok)


def _color_and_verify(inp, workdir, strategy, center, vertex=None) -> list[Op]:
    tag = "auto" if vertex is None else f"{strategy}-v{vertex}"
    cert_path = workdir / f"{inp.name}-{tag}.json"
    color = _color(inp, cert_path, strategy, center, vertex)
    return [color, _verify(inp, cert_path, color.cert[2])]


# --- hypcheck rules ----------------------------------------------------------


def _only_two_bunch(lists: list[list[str]]) -> str | None:
    bad = [v for v, s in enumerate(lists) if s != ["two-bunch"]]
    return f"vertices {bad[:5]} do not list exactly two-bunch" if bad else None


def _nothing_applies(lists: list[list[str]]) -> str | None:
    bad = [v for v, s in enumerate(lists) if s]
    return f"vertices {bad[:5]} list a strategy below d = 7" if bad else None


# --- workloads -----------------------------------------------------------------

HS_RELABELLINGS = 8
HS_CENTERS = (0, 17, 34)  # every 17th vertex of each relabelled graph


def hs_relabel(seed: int, workdir: Path) -> list[Op]:
    """Hoffman-Singleton under seeded relabellings.  Every vertex of HS is a
    two-bunch-only center; auto mode picks vertex 0 after the full census.

    ``bchrom`` runs on HS in its construction labelling, once per relabelled
    graph, where the oracle accepts the first star candidate at k = 8.  On
    relabellings the oracle's cost follows the labelling (5 ms to 420 ms,
    43 to 2179 nodes, over 60 relabellings), a tail that would need hundreds
    of samples per run for a steady median."""
    rng = random.Random(seed)
    hs = generators.hoffman_singleton()
    canonical = _write(workdir, "hs", hs)
    ops: list[Op] = []
    for i in range(HS_RELABELLINGS):
        inp = _write(workdir, f"hs{i}", relabel(hs, _perm(rng, hs.n)))
        ops.append(_hypcheck(inp, _only_two_bunch))
        ops += _color_and_verify(inp, workdir, "two-bunch", 0)
        for v in HS_CENTERS:
            ops += _color_and_verify(inp, workdir, "two-bunch", v, v)
        ops.append(_bchrom(canonical, 8, f"-{i}"))
    return ops


PLANTED_D, PLANTED_S3 = 7, 350  # n = 1 + d^2 + s3 = 400
BOUNDED_CENTERS = 8


def planted_graph(d: int, s3: int, seed: int) -> list[set[int]]:
    """The first planted graph, trying seeds upward from ``seed``, with
    girth 5 and no 6-cycle through vertex 0."""
    for s in count(seed):
        adj = protected_no_c6_adj(d, s3, s)
        if adj is None or check.girth(adj) != 5:
            continue
        if count_c6_through_vertex(Graph(len(adj), adj), 0) == 0:
            return adj


def planted_d7_n400(seed: int, workdir: Path) -> list[Op]:
    """The planted n=400, d=7 no-C6 graph: census ops, no-c6 at vertex 0,
    and bounded-c6 at the first BOUNDED_CENTERS vertices, ascending, whose
    N2 holds 1..5 six-cycles through them (so S2 has vertices of S2-degree
    2 or 3 and the Hall solver does real work).  ``bchrom`` follows each
    bounded-c6 center, so that its median rests on more than one sample."""
    adj = planted_graph(PLANTED_D, PLANTED_S3, seed)
    inp = _write(workdir, "planted", Graph(len(adj), adj))
    bounded = [v for v in range(len(adj)) if 1 <= check.c6_in_n2(adj, v) <= 5]
    bounded = bounded[:BOUNDED_CENTERS]

    def strategies_ok(lists: list[list[str]]) -> str | None:
        if lists[0][:1] != ["no-c6"]:
            return f"vertex 0 lists {lists[0]}, expected no-c6 first"
        bad = [v for v in bounded if "bounded-c6" not in lists[v]]
        return f"vertices {bad} do not list bounded-c6" if bad else None

    ops = [_hypcheck(inp, strategies_ok)]
    ops += _color_and_verify(inp, workdir, "no-c6", 0)
    ops += _color_and_verify(inp, workdir, "no-c6", 0, 0)
    for v in bounded:
        ops += _color_and_verify(inp, workdir, "bounded-c6", v, v)
        ops.append(_bchrom(inp, PLANTED_D + 1, f"-after-v{v}"))
    return ops


# (d, n) of the random desk graphs.  Ten d = 4 graphs because the
# generator's cost varies with its seed (interquartile range about 45% of
# the median per graph), and set-up time should not.
DESK_RANDOM = [(3, n) for n in (16, 20, 24, 32)] + [(4, n) for n in (24, 26, 28, 30, 32)] * 2


def _witness_certificate(inp: Input, k: int) -> dict:
    """Certificate JSON for a b-colouring with k colours found by the
    exhaustive oracle; each class claims its lowest b-vertex and the center
    is the class-1 claim."""
    res = oracle.b_coloring_exists(Graph(len(inp.adj), inp.adj), k)
    if not res.exists:
        raise RuntimeError(f"{inp.name}: the oracle finds no b-colouring with {k} colours")
    colors = res.coloring
    claims = {}
    for cls in range(1, k + 1):
        claims[str(cls)] = min(
            v for v in range(len(colors))
            if colors[v] == cls and check.is_b_vertex(inp.adj, colors, v, k)
        )
    center = claims["1"]
    f = inp.facts
    return {
        "version": 1, "n": f["n"], "m": f["m"], "d": f["d"], "girth": f["girth"],
        "k": k, "strategy": "oracle", "center": center,
        "neighbor_order": sorted(inp.adj[center]), "row_order": None,
        "colors": colors, "b_vertices": claims, "provenance": None,
    }


def desk_oracle(seed: int, workdir: Path) -> list[Op]:
    """Petersen and C5 under seeded relabellings plus seeded random regular
    girth-5 graphs with d in {3, 4}: the oracle's exhaustive NO proof
    (Petersen at k = 4), and per-call overhead on tiny graphs.  Every graph
    is below d = 7, so color is refused with exit 2; verify checks an oracle
    witness.  Known answers: Petersen and C5 have b-chromatic number 3; the
    random graphs reach d + 1, shown by the witness."""
    rng = random.Random(seed)
    graphs = []
    for i in range(2):
        pet = generators.petersen()
        graphs.append((f"petersen{i}", relabel(pet, _perm(rng, pet.n)), 3))
        c5 = generators.cycle(5)
        graphs.append((f"c5-{i}", relabel(c5, _perm(rng, c5.n)), 3))
    for j, (d, n) in enumerate(DESK_RANDOM):
        spec = generators.GenSpec(n=n, d=d, girth_min=5, seed=rng.randrange(2**31))
        graphs.append((f"rr{j}-d{d}-n{n}", generators.random_regular_girth(spec), d + 1))
    ops: list[Op] = []
    for name, g, answer in graphs:
        inp = _write(workdir, name, g)
        cert_path = workdir / f"{name}-witness.json"
        cert_path.write_text(json.dumps(_witness_certificate(inp, answer)), encoding="utf-8")
        ops.append(_bchrom(inp, answer))
        ops.append(_hypcheck(inp, _nothing_applies))
        ops.append(_color_refused(inp, None))
        ops.append(_color_refused(inp, 0))
        ops.append(_verify(inp, cert_path, answer))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "hs-relabel": hs_relabel,
    "planted-d7-n400": planted_d7_n400,
    "desk-oracle": desk_oracle,
}
