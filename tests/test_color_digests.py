"""Byte-identical `color` output: exit code, stdout, stderr and certificate
bytes of every selection mode, pinned by digest."""

import hashlib
import json
import random

import pytest

from bchrome.cli import main
from bchrome.formats import write_graph6
from bchrome.graph import build_graph, relabel

STRATEGIES = ("no-c6", "bounded-c6", "two-bunch")


def _modes(n):
    """Every way to pick (vertex, strategy): auto, each strategy, and at
    vertices 0 and n // 2 both auto and each strategy."""
    modes = [[]] + [["--strategy", s] for s in STRATEGIES]
    for v in (0, n // 2):
        modes += [["--vertex", str(v)]] + [
            ["--vertex", str(v), "--strategy", s] for s in STRATEGIES
        ]
    return modes


@pytest.fixture(scope="module")
def digest_graphs(hs, pet, pg27, no_c6_instance):
    perm = list(range(hs.n))
    random.Random(1).shuffle(perm)
    return {
        "hs": hs,
        "hs-relabel-1": relabel(hs, perm),
        "planted": no_c6_instance,
        "petersen": pet,
        "pg27": pg27,
        "irregular": build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]),
    }


def _color_digest(capsys, tmp_path, g, mode):
    """First 16 hex digits of the sha256 of [exit code, stdout, stderr,
    certificate text or None]."""
    graph_file = tmp_path / "g.g6"
    graph_file.write_text(write_graph6(g) + "\n")
    cert_file = tmp_path / "cert.json"
    cert_file.unlink(missing_ok=True)
    code = main(["color", str(graph_file), *mode, "--out", str(cert_file)])
    out = capsys.readouterr()
    cert = cert_file.read_text() if cert_file.exists() else None
    blob = json.dumps([code, out.out, out.err, cert])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# Recorded before the strategies took S2 from the bunch structure and
# before color's selection moved into auto_color.  On a graph that fails
# the graph-level check, auto mode once printed "no coloring strategy
# applies to any vertex"; it now names the failed check, so its entries
# equal the --strategy ones.
COLOR_DIGESTS = {
    "hs": "a5e101a1def37f31",
    "hs --strategy no-c6": "daaa9fcf4a673fa1",
    "hs --strategy bounded-c6": "875560ec8d2199bd",
    "hs --strategy two-bunch": "a5e101a1def37f31",
    "hs --vertex 0": "a5e101a1def37f31",
    "hs --vertex 0 --strategy no-c6": "1c11059a6a78cc1f",
    "hs --vertex 0 --strategy bounded-c6": "2e356dbed7d5a57f",
    "hs --vertex 0 --strategy two-bunch": "a5e101a1def37f31",
    "hs --vertex 25": "fe5f43aac9b2b3c7",
    "hs --vertex 25 --strategy no-c6": "0e94c2c5258a3d85",
    "hs --vertex 25 --strategy bounded-c6": "28ab7c0e9f3779bd",
    "hs --vertex 25 --strategy two-bunch": "fe5f43aac9b2b3c7",
    "hs-relabel-1": "34252a79e9c0cc79",
    "hs-relabel-1 --strategy no-c6": "daaa9fcf4a673fa1",
    "hs-relabel-1 --strategy bounded-c6": "875560ec8d2199bd",
    "hs-relabel-1 --strategy two-bunch": "34252a79e9c0cc79",
    "hs-relabel-1 --vertex 0": "34252a79e9c0cc79",
    "hs-relabel-1 --vertex 0 --strategy no-c6": "1c11059a6a78cc1f",
    "hs-relabel-1 --vertex 0 --strategy bounded-c6": "2e356dbed7d5a57f",
    "hs-relabel-1 --vertex 0 --strategy two-bunch": "34252a79e9c0cc79",
    "hs-relabel-1 --vertex 25": "eab17e70cb10075a",
    "hs-relabel-1 --vertex 25 --strategy no-c6": "0e94c2c5258a3d85",
    "hs-relabel-1 --vertex 25 --strategy bounded-c6": "28ab7c0e9f3779bd",
    "hs-relabel-1 --vertex 25 --strategy two-bunch": "eab17e70cb10075a",
    "planted": "4b78bf7ce0273ab3",
    "planted --strategy no-c6": "4b78bf7ce0273ab3",
    "planted --strategy bounded-c6": "7e0c268633a37de3",
    "planted --strategy two-bunch": "db276d7987910d2b",
    "planted --vertex 0": "4b78bf7ce0273ab3",
    "planted --vertex 0 --strategy no-c6": "4b78bf7ce0273ab3",
    "planted --vertex 0 --strategy bounded-c6": "7e0c268633a37de3",
    "planted --vertex 0 --strategy two-bunch": "133c4905ef53342b",
    "planted --vertex 200": "b2d60005d76913ef",
    "planted --vertex 200 --strategy no-c6": "e9fe7df5ea27666c",
    "planted --vertex 200 --strategy bounded-c6": "b2d60005d76913ef",
    "planted --vertex 200 --strategy two-bunch": "6027d75ca88056ab",
    "petersen": "23cb8cb3c084b7be",
    "petersen --strategy no-c6": "23cb8cb3c084b7be",
    "petersen --strategy bounded-c6": "23cb8cb3c084b7be",
    "petersen --strategy two-bunch": "23cb8cb3c084b7be",
    "petersen --vertex 0": "23cb8cb3c084b7be",
    "petersen --vertex 0 --strategy no-c6": "23cb8cb3c084b7be",
    "petersen --vertex 0 --strategy bounded-c6": "23cb8cb3c084b7be",
    "petersen --vertex 0 --strategy two-bunch": "23cb8cb3c084b7be",
    "petersen --vertex 5": "23cb8cb3c084b7be",
    "petersen --vertex 5 --strategy no-c6": "23cb8cb3c084b7be",
    "petersen --vertex 5 --strategy bounded-c6": "23cb8cb3c084b7be",
    "petersen --vertex 5 --strategy two-bunch": "23cb8cb3c084b7be",
    "pg27": "1d84fa7c3071da58",
    "pg27 --strategy no-c6": "1d84fa7c3071da58",
    "pg27 --strategy bounded-c6": "1d84fa7c3071da58",
    "pg27 --strategy two-bunch": "1d84fa7c3071da58",
    "pg27 --vertex 0": "1d84fa7c3071da58",
    "pg27 --vertex 0 --strategy no-c6": "1d84fa7c3071da58",
    "pg27 --vertex 0 --strategy bounded-c6": "1d84fa7c3071da58",
    "pg27 --vertex 0 --strategy two-bunch": "1d84fa7c3071da58",
    "pg27 --vertex 57": "1d84fa7c3071da58",
    "pg27 --vertex 57 --strategy no-c6": "1d84fa7c3071da58",
    "pg27 --vertex 57 --strategy bounded-c6": "1d84fa7c3071da58",
    "pg27 --vertex 57 --strategy two-bunch": "1d84fa7c3071da58",
    "irregular": "bb8802de19489490",
    "irregular --strategy no-c6": "bb8802de19489490",
    "irregular --strategy bounded-c6": "bb8802de19489490",
    "irregular --strategy two-bunch": "bb8802de19489490",
    "irregular --vertex 0": "bb8802de19489490",
    "irregular --vertex 0 --strategy no-c6": "bb8802de19489490",
    "irregular --vertex 0 --strategy bounded-c6": "bb8802de19489490",
    "irregular --vertex 0 --strategy two-bunch": "bb8802de19489490",
    "irregular --vertex 3": "bb8802de19489490",
    "irregular --vertex 3 --strategy no-c6": "bb8802de19489490",
    "irregular --vertex 3 --strategy bounded-c6": "bb8802de19489490",
    "irregular --vertex 3 --strategy two-bunch": "bb8802de19489490",
}


@pytest.mark.parametrize("name", ["hs", "hs-relabel-1", "planted", "petersen", "pg27", "irregular"])
def test_color_output_is_unchanged(capsys, tmp_path, monkeypatch, digest_graphs, name):
    monkeypatch.chdir(tmp_path)  # a construction failure would dump here
    g = digest_graphs[name]
    actual = {
        " ".join([name, *mode]): _color_digest(capsys, tmp_path, g, mode)
        for mode in _modes(g.n)
    }
    expected = {k: v for k, v in COLOR_DIGESTS.items() if k.split()[0] == name}
    assert actual == expected
