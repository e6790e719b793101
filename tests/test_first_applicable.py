"""The selection scan in `auto_color`, behind every `color` mode: it must
pick the pair the full census would, and census no vertex past that pair,
each with its own local pass and without girth() or the full census."""

import random

import pytest

from bchrome import cli, coloring, construct, graph as graph_mod
from bchrome.cli import main
from bchrome.construct import STRATEGIES, auto_color, hypothesis_report
from bchrome.errors import BchromeError, NoStrategyApplies, PreconditionViolated
from bchrome.formats import write_certificate, write_graph6
from bchrome.generators import GenSpec, random_regular_girth
from bchrome.graph import Graph, build_graph, relabel


pytestmark = pytest.mark.usefixtures("girth_once_per_graph")


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


@pytest.fixture(scope="module")
def scan_graphs(hs, pet, c5, heawood, pg27, no_c6_instance):
    return {
        "hs": hs,
        "hs-relabel-1": _relabelled(hs, 1),
        "hs-relabel-2": _relabelled(hs, 2),
        "planted": no_c6_instance,
        "petersen": pet,
        "c5": c5,
        "heawood": heawood,
        "pg27": pg27,
        # d = 7 and girth 5, and no strategy applies at any vertex, so every
        # scan reads every vertex's numbers
        "random-d7-n120": random_regular_girth(GenSpec(n=120, d=7, girth_min=5, seed=1)),
        "irregular": build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]),
        "empty": Graph(0, []),
    }


@pytest.fixture(scope="module")
def reports(scan_graphs):
    cache = {}

    def report(name):
        if name not in cache:
            cache[name] = hypothesis_report(scan_graphs[name])
        return cache[name]

    return report


def _global_reason(rep):
    """Why the graph fails the strategies' preconditions, worded as color
    worded it when it read the full census."""
    if rep.d is None:
        return "graph is not regular"
    if rep.d < 7:
        return f"d = {rep.d} < 7"
    if rep.girth != 5:
        return f"girth = {rep.girth} != 5"
    return None


def _census_reason(vr):
    return (
        f"c6_through = {vr.c6_through}, c6_in_n2 = {vr.c6_in_n2}, "
        f"closed_bunches = {vr.closed_bunch_count}"
    )


def _outcome(fn):
    try:
        cert = fn()
    except BchromeError as e:
        return type(e), str(e), getattr(e, "reasons", None)
    return "certificate", write_certificate(cert)


def _expected(g, rep, strategy):
    """The outcome read off the full census: its first applicable pair, run
    directly, or the error color raised from it.  A graph-level refusal
    names its reason in every mode."""
    pairs = [(vr.vertex, s) for vr in rep.per_vertex for s in vr.strategies
             if strategy in (None, s)]
    if pairs:
        x, s = pairs[0]
        return _outcome(lambda: auto_color(g, strategy=s, vertex=x))
    if _global_reason(rep) is not None:
        return PreconditionViolated, _global_reason(rep), None
    if strategy is None:
        reasons = {vr.vertex: _census_reason(vr) for vr in rep.per_vertex}
        return NoStrategyApplies, "no coloring strategy applies to any vertex", reasons
    return PreconditionViolated, f"strategy {strategy} applies to no vertex", None


GRAPHS = ["hs", "hs-relabel-1", "hs-relabel-2", "planted", "petersen", "c5",
          "heawood", "pg27", "random-d7-n120", "irregular", "empty"]


@pytest.mark.parametrize("name", GRAPHS)
def test_auto_scan_matches_full_census(scan_graphs, reports, name):
    g = scan_graphs[name]
    assert _outcome(lambda: auto_color(g)) == _expected(g, reports(name), None)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", GRAPHS)
def test_strategy_scan_matches_full_census(scan_graphs, reports, name, strategy):
    g = scan_graphs[name]
    actual = _outcome(lambda: auto_color(g, strategy=strategy))
    assert actual == _expected(g, reports(name), strategy)


@pytest.mark.parametrize("name", GRAPHS)
def test_vertex_strategies_match_full_census(scan_graphs, reports, name):
    g = scan_graphs[name]
    rep = reports(name)
    for v in sorted({0, g.n // 2, g.n - 1} & set(range(g.n))):
        vr = rep.per_vertex[v]
        if vr.strategies:
            expected = _outcome(lambda: auto_color(g, strategy=vr.strategies[0], vertex=v))
        elif _global_reason(rep) is not None:
            expected = (PreconditionViolated, _global_reason(rep), None)
        else:
            expected = (NoStrategyApplies, "no coloring strategy applies to any vertex",
                        {v: _census_reason(vr)})
        assert _outcome(lambda: auto_color(g, vertex=v)) == expected, v


@pytest.fixture
def census_spy(monkeypatch):
    """Vertices the scan's local pass reads from here on; a call to
    girth(), vertex_census or hypothesis_report fails the test."""
    seen = []
    local = construct._local_census

    def spy(g, x):
        seen.append(x)
        return local(g, x)

    def forbidden(name):
        def fail(*args):
            raise AssertionError(f"color called {name}")

        return fail

    monkeypatch.setattr(construct, "_local_census", spy)
    for name in ("vertex_census", "hypothesis_report"):
        monkeypatch.setattr(construct, name, forbidden(name))
    for mod in (graph_mod, construct, coloring, cli):
        monkeypatch.setattr(mod, "girth", forbidden("girth"))
    return seen


def _color(capsys, tmp_path, g, *args):
    f = tmp_path / "g.g6"
    f.write_text(write_graph6(g) + "\n")
    code = main(["color", str(f), *args])
    return code, capsys.readouterr().out


def test_auto_color_on_hs_censuses_vertex_0_only(capsys, tmp_path, hs, census_spy):
    code, out = _color(capsys, tmp_path, hs)
    assert code == 0 and census_spy == [0]
    assert out.startswith("strategy: two-bunch  center: 0  k: 8")


def test_auto_color_on_planted_censuses_vertex_0_only(
    capsys, tmp_path, no_c6_instance, census_spy
):
    code, out = _color(capsys, tmp_path, no_c6_instance)
    assert code == 0 and census_spy == [0]
    assert out.startswith("strategy: no-c6  center: 0  k: 8")


@pytest.fixture(scope="module")
def first_bounded_c6(reports):
    """The lowest planted-graph vertex listing bounded-c6, read from the
    full census before any spy is in place."""
    return next(vr.vertex for vr in reports("planted").per_vertex
                if "bounded-c6" in vr.strategies)


def test_strategy_scan_stops_at_first_listing_vertex(
    capsys, tmp_path, no_c6_instance, first_bounded_c6, census_spy
):
    first = first_bounded_c6
    code, out = _color(capsys, tmp_path, no_c6_instance, "--strategy", "bounded-c6")
    assert code == 0 and census_spy == list(range(first + 1))
    assert out.startswith(f"strategy: bounded-c6  center: {first}  k: 8")


def test_refusal_reads_only_local_numbers(no_c6_instance, census_spy):
    """A strategy that applies nowhere costs one local pass per vertex."""
    g = no_c6_instance
    with pytest.raises(PreconditionViolated, match="^strategy two-bunch applies to no vertex$"):
        auto_color(g, "two-bunch")
    assert census_spy == list(range(g.n))
