"""The hypothesis numbers `BunchStructure` reads off one radius-2 pass,
checked against the census's cycle search and girth-guarded counts and the
oracle's cycle enumeration; and bounded-c6 run at random-graph centers
picked by those numbers."""

import random

import pytest

from bchrome.coloring import verify_certificate
from bchrome.construct import _local_census, color_bounded_c6, hypothesis_report
from bchrome.errors import PreconditionViolated
from bchrome.generators import robertson
from bchrome.graph import bunches, relabel
from bchrome.oracle import enumerate_c6_through

pytestmark = pytest.mark.usefixtures("girth_once_per_graph")


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


@pytest.fixture(scope="module")
def census_graphs(hs, pet, no_c6_instance, random_d7_n400):
    return {
        "hs": hs,
        "hs-relabel-1": _relabelled(hs, 1),
        "hs-relabel-2": _relabelled(hs, 2),
        "petersen": pet,
        "robertson": robertson(),
        "planted": no_c6_instance,
        "random-d7-n400": random_d7_n400,
    }


# every census graph is small enough for the oracle's enumeration at every vertex
ENUMERATED = ("hs", "hs-relabel-1", "hs-relabel-2", "petersen", "robertson",
              "planted", "random-d7-n400")


@pytest.mark.parametrize("name", ENUMERATED)
def test_local_numbers_match_the_census(census_graphs, name):
    g = census_graphs[name]
    for vr in hypothesis_report(g).per_vertex:
        x = vr.vertex
        bs = bunches(g, x)
        local = (bs.c6_through(g), bs.c6_in_n2(g), len(bs.closed_bunch_indices(g)))
        assert local == (vr.c6_through, vr.c6_in_n2, vr.closed_bunch_count), x
        assert local[0] == len(enumerate_c6_through(g, x)), x


def test_bounded_c6_on_a_random_graph(random_d7_n400):
    """Bounded-c6 at the lowest center for each count 1..5 of 6-cycles in N2,
    and at the lowest center with an S2 vertex of S2-degree 3: there S2 is
    not independent, so the Hall solver colours bunches that meet.  The
    scan lists bounded-c6 at each of them, and not at the lowest center
    with six 6-cycles in N2, where the strategy's own guard refuses."""
    g = random_d7_n400
    by_count = {c: [] for c in range(1, 7)}
    degree_3 = []
    for x in range(g.n):
        bs = bunches(g, x)
        c6 = bs.c6_in_n2(g)
        if c6 in by_count:
            by_count[c6].append(x)
            if c6 <= 5 and 3 in bs.s2_degrees(g).values():
                degree_3.append(x)
    assert [len(by_count[c]) for c in range(1, 7)] == [58, 75, 64, 55, 47, 29]
    assert len(degree_3) == 24
    centers = [by_count[c][0] for c in range(1, 6)] + [degree_3[0]]
    for x in centers:
        assert "bounded-c6" in _local_census(g, x).strategies, x
        cert = color_bounded_c6(g, x)
        assert cert.center == x and cert.k == 8
        assert verify_certificate(cert, g).ok, x
    busy = by_count[6][0]
    assert "bounded-c6" not in _local_census(g, busy).strategies
    with pytest.raises(PreconditionViolated, match=f"^6 > 5 six-cycles through {busy} in N2"):
        color_bounded_c6(g, busy)
