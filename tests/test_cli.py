"""CLI behavior: subcommands, exit codes, determinism, stdin handling."""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bchrome.cli import main
from bchrome.formats import parse_graph6, write_dimacs, write_graph6
from bchrome.generators import hoffman_singleton, petersen


@pytest.fixture
def pet_file(tmp_path, pet):
    p = tmp_path / "pet.g6"
    p.write_text(write_graph6(pet) + "\n")
    return str(p)


@pytest.fixture
def hs_file(tmp_path, hs):
    p = tmp_path / "hs.g6"
    p.write_text(write_graph6(hs) + "\n")
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_petersen(capsys, pet):
    code, out, _ = run(capsys, ["gen", "--family", "petersen"])
    assert code == 0
    assert parse_graph6(out.strip()) == pet


def test_gen_dimacs(capsys, pet):
    code, out, _ = run(capsys, ["gen", "--family", "petersen", "--format", "dimacs"])
    assert code == 0
    assert out == write_dimacs(pet)


def test_gen_random_needs_params(capsys):
    code, out, err = run(capsys, ["gen", "--family", "random-regular"])
    assert (code, out, err) == (3, "", "bad input: random-regular needs --n and --d\n")


def test_gen_random_deterministic(capsys):
    a = run(capsys, ["gen", "--family", "random-regular", "--n", "24", "--d", "3", "--seed", "4"])
    b = run(capsys, ["gen", "--family", "random-regular", "--n", "24", "--d", "3", "--seed", "4"])
    assert a == b and a[0] == 0


def test_info_json(capsys, pet_file):
    code, out, _ = run(capsys, ["info", pet_file, "--vertex", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 10 and doc["d"] == 3 and doc["girth"] == 5
    assert doc["per_vertex"][0]["c6_through"] == 6


def test_hypcheck_json(capsys, hs_file):
    code, out, _ = run(capsys, ["hypcheck", hs_file])
    assert code == 0
    doc = json.loads(out)
    assert doc["flags"]["d_ge_7"] is True
    assert doc["per_vertex"][0]["strategies"] == ["two-bunch"]


def test_color_and_verify_round_trip(capsys, tmp_path, hs_file):
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(
        capsys, ["color", hs_file, "--strategy", "two-bunch", "--out", cert_path]
    )
    assert code == 0
    assert "two-bunch" in out
    code, out, _ = run(capsys, ["verify", hs_file, cert_path])
    assert code == 0
    assert out.strip() == "Accept"


def test_verify_rejects_mismatched_graph(capsys, tmp_path, hs_file, pet_file):
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["color", hs_file, "--out", cert_path])
    code, out, _ = run(capsys, ["verify", pet_file, cert_path])
    assert code == 1
    assert out.startswith("Reject")


def test_color_guard_small_degree(capsys, pet_file):
    code, _, err = run(capsys, ["color", pet_file, "--strategy", "no-c6"])
    assert code == 2
    assert "d = 3 < 7" in err


def test_color_specific_vertex(capsys, hs_file):
    code, out, _ = run(capsys, ["color", hs_file, "--vertex", "13"])
    assert code == 0
    assert "center: 13" in out


def test_bchrom_petersen(capsys, pet_file):
    code, out, _ = run(capsys, ["bchrom", pet_file])
    assert code == 0
    assert out.strip() == "3"


def test_bchrom_budget(capsys, pet_file):
    code, out, _ = run(capsys, ["bchrom", pet_file, "--node-budget", "2"])
    assert code == 4
    assert "LowerBoundOnly" in out


def test_main_keeps_no_state_between_calls(capsys, hs_file, pet_file):
    from bchrome.cli import build_parser

    assert build_parser() is build_parser()
    code, out, _ = run(capsys, ["color", hs_file, "--vertex", "17"])
    assert code == 0 and "center: 17" in out
    code, out, _ = run(capsys, ["color", hs_file])
    assert code == 0 and out.startswith("strategy: two-bunch  center: 0  k: 8")
    code, out, _ = run(capsys, ["bchrom", pet_file, "--node-budget", "1"])
    assert code == 4 and "LowerBoundOnly" in out
    assert run(capsys, ["bchrom", pet_file]) == (0, "3\n", "")
    code, out, err = run(capsys, ["color", hs_file, "--strategy", "nope"])
    assert code == 2 and out == "" and err.startswith("usage: bchrome color")
    assert run(capsys, ["bchrom", pet_file]) == (0, "3\n", "")


TOP_USAGE = "usage: bchrome [-h] {gen,info,hypcheck,color,verify,bchrom} ...\n"
COLOR_USAGE = (
    "usage: bchrome color [-h] [--strategy {auto,no-c6,bounded-c6,two-bunch}]\n"
    "                     [--vertex VERTEX] [--out OUT]\n"
    "                     graph\n"
)
BCHROM_USAGE = (
    "usage: bchrome bchrom [-h] [--time-budget TIME_BUDGET]\n"
    "                      [--node-budget NODE_BUDGET]\n"
    "                      graph\n"
)
TOP_HELP = TOP_USAGE + """
positional arguments:
  {gen,info,hypcheck,color,verify,bchrom}
    gen                 emit a graph from a named family
    info                structural census (JSON)
    hypcheck            strategy applicability report (JSON)
    color               construct a b-coloring certificate
    verify              check a certificate against a graph
    bchrom              oracle b-chromatic number

options:
  -h, --help            show this help message and exit
"""
COLOR_HELP = COLOR_USAGE + """
positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --strategy {auto,no-c6,bounded-c6,two-bunch}
  --vertex VERTEX
  --out OUT
"""
COMMANDS = "'gen', 'info', 'hypcheck', 'color', 'verify', 'bchrom'"


# Recorded from argparse's own two-pass parse (the top-level parser calling
# the command's parser), so the one-pass dispatch must match it byte for byte.
@pytest.mark.parametrize("argv, expected", [
    (["color"], (2, "", COLOR_USAGE
                 + "bchrome color: error: the following arguments are required: graph\n")),
    (["color", "g.g6", "--strategy", "nope"], (2, "", COLOR_USAGE
        + "bchrome color: error: argument --strategy: invalid choice: 'nope' "
        "(choose from 'auto', 'no-c6', 'bounded-c6', 'two-bunch')\n")),
    (["color", "g.g6", "--foo"], (2, "", TOP_USAGE
                                  + "bchrome: error: unrecognized arguments: --foo\n")),
    (["color", "g.g6", "extra"], (2, "", TOP_USAGE
                                  + "bchrome: error: unrecognized arguments: extra\n")),
    (["color", "g.g6", "--vertex", "0", "x", "--bar"], (2, "", TOP_USAGE
        + "bchrome: error: unrecognized arguments: x --bar\n")),
    (["color", "g.g6", "--vertex"], (2, "", COLOR_USAGE
        + "bchrome color: error: argument --vertex: expected one argument\n")),
    (["bchrom", "g.g6", "--node-budget", "z"], (2, "", BCHROM_USAGE
        + "bchrome bchrom: error: argument --node-budget: invalid int value: 'z'\n")),
    (["gen", "--family", "petersen", "zz"], (2, "", TOP_USAGE
                                             + "bchrome: error: unrecognized arguments: zz\n")),
    (["-h"], (0, TOP_HELP, "")),
    (["color", "-h"], (0, COLOR_HELP, "")),
    (["nope"], (2, "", TOP_USAGE
                + f"bchrome: error: argument command: invalid choice: 'nope' (choose from {COMMANDS})\n")),
    (["--", "color"], (2, "", TOP_USAGE
                       + f"bchrome: error: argument command: invalid choice: '--' (choose from {COMMANDS})\n")),
    ([], (2, "", TOP_USAGE + "bchrome: error: the following arguments are required: command\n")),
])
def test_usage_output_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert run(capsys, argv) == expected


def test_a_command_is_parsed_in_one_pass(capsys, monkeypatch, hs_file):
    """A known command's argv goes to its own parser alone; the top-level
    parser only reports the arguments that parser left over."""
    from bchrome.cli import build_parser

    top = build_parser()

    def no_top_level_parse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command's argv")

    monkeypatch.setattr(top, "parse_args", no_top_level_parse)
    monkeypatch.setattr(top, "parse_known_args", no_top_level_parse)
    code, out, _ = run(capsys, ["color", hs_file, "--vertex", "0"])
    assert code == 0 and out.startswith("strategy: two-bunch  center: 0  k: 8")
    code, out, err = run(capsys, ["color", hs_file, "extra"])
    assert (code, out) == (2, "") and err.endswith("unrecognized arguments: extra\n")


def test_stdin_dimacs_autodetect(capsys, monkeypatch, pet):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(write_dimacs(pet)))
    code, out, _ = run(capsys, ["bchrom", "-"])
    assert code == 0
    assert out.strip() == "3"


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("\x01\x02")
    code, _, err = run(capsys, ["color", str(bad)])
    assert code == 3
    assert "parse error" in err


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, ["info", "/nonexistent/file.g6"])
    assert code == 3
    assert err == "cannot read input: [Errno 2] No such file or directory: '/nonexistent/file.g6'\n"


def test_unreadable_stdin_is_a_read_error(capsys, monkeypatch):
    class BadStdin(io.StringIO):
        def read(self, *args):
            raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(sys, "stdin", BadStdin())
    code, out, err = run(capsys, ["info", "-"])
    assert (code, out, err) == (3, "", "cannot read input: [Errno 5] Input/output error\n")


class _FullStdout(io.StringIO):
    """A stdout on a full disk: ``fail_on`` ("write" or "flush") raises."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, s):
        if self.fail_on == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(s)

    def flush(self):
        if self.fail_on == "flush":
            raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["gen", "--family", "petersen"],
    ["hypcheck", "{pet}"],
    ["bchrom", "{pet}"],
])
def test_stdout_write_error_is_not_a_read_error(capsys, monkeypatch, pet_file, argv, fail_on):
    monkeypatch.setattr(sys, "stdout", _FullStdout(fail_on))
    code = main([a.format(pet=pet_file) for a in argv])
    err = capsys.readouterr().err
    assert (code, err) == (3, "cannot write output: stdout: [Errno 28] No space left on device\n")


def test_broken_pipe_on_stdout_ends_quietly(tmp_path, pet_file):
    # The reader is gone before bchrome writes: every write is EPIPE.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "bchrome", "hypcheck", pet_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert err == "cannot write output: stdout: [Errno 32] Broken pipe\n"


@pytest.fixture(scope="module")
def hs_cert_doc():
    from bchrome.construct import color_two_bunch
    from bchrome.formats import write_certificate

    return json.loads(write_certificate(color_two_bunch(hoffman_singleton(), 0)))


def _rekey(old, new):
    def mutate(doc):
        doc["b_vertices"][new] = doc["b_vertices"].pop(old)

    return mutate


def _alias(old, new):
    def mutate(doc):
        doc["b_vertices"][new] = doc["b_vertices"][old]

    return mutate


def _true_for_one(doc):
    doc["neighbor_order"] = [True if v == 1 else v for v in doc["neighbor_order"]]


# id, argv ({hs}: Hoffman-Singleton graph6 file, {f}: the row's input file),
# and the input file's bytes (or a mutation of a valid Hoffman-Singleton
# certificate).
BAD_INPUTS = [
    ("dimacs-self-loop", ["info", "{f}"], b"p edge 3 2\ne 1 1\ne 1 2\n"),
    ("dimacs-huge-n", ["info", "{f}"], b"p edge 1000000000 0\n"),
    ("graph6-header-only", ["info", "{f}"], b">>graph6<<\n"),
    ("not-utf8", ["info", "{f}"], b"\xff\xfe\x00"),
    ("bchrom-empty-graph", ["bchrom", "{f}"], b"?\n"),
    ("bchrom-node-budget-neg", ["bchrom", "{hs}", "--node-budget", "-5"], None),
    ("bchrom-time-budget-neg", ["bchrom", "{hs}", "--time-budget", "-1"], None),
    ("bchrom-time-budget-nan", ["bchrom", "{hs}", "--time-budget", "nan"], None),
    ("color-vertex-999", ["color", "{hs}", "--vertex", "999"], None),
    ("color-vertex-neg", ["color", "{hs}", "--vertex", "-1"], None),
    ("color-no-c6-vertex-999", ["color", "{hs}", "--strategy", "no-c6", "--vertex", "999"], None),
    ("info-vertex-neg", ["info", "{hs}", "--vertex", "-1"], None),
    ("info-vertex-77", ["info", "{hs}", "--vertex", "77"], None),
    ("gen-odd-degree-sum", ["gen", "--family", "random-regular", "--n", "5", "--d", "3"], None),
    ("gen-degree-n", ["gen", "--family", "random-regular", "--n", "4", "--d", "4"], None),
    ("gen-cycle-2", ["gen", "--family", "cycle", "--n", "2"], None),
    ("gen-n-above-cap", ["gen", "--family", "cycle", "--n", "300000"], None),
    ("cert-superscript-key", ["verify", "{hs}", "{f}"], _rekey("2", "²")),
    ("cert-keys-01-and-1", ["verify", "{hs}", "{f}"], _alias("1", "01")),
    ("cert-key-01", ["verify", "{hs}", "{f}"], _rekey("1", "01")),
    ("cert-bool-vertex", ["verify", "{hs}", "{f}"], _true_for_one),
    ("color-out-missing-dir",
     ["color", "{hs}", "--strategy", "two-bunch", "--vertex", "0", "--out", "{f}/c.json"], None),
]


@pytest.mark.parametrize(
    "argv, content", [pytest.param(a, c, id=i) for i, a, c in BAD_INPUTS]
)
def test_bad_input_exit_3(capsys, tmp_path, hs_file, hs_cert_doc, argv, content):
    f = tmp_path / "input"
    if callable(content):
        doc = json.loads(json.dumps(hs_cert_doc))
        content(doc)
        content = json.dumps(doc).encode()
    if content is not None:
        f.write_bytes(content)
    argv = [a.format(hs=hs_file, f=f) for a in argv]
    code, _, err = run(capsys, argv)
    assert code == 3
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_failed_out_write_is_named_as_a_write(capsys, tmp_path, hs_file):
    target = tmp_path / "missing-dir" / "c.json"
    argv = ["color", hs_file, "--strategy", "two-bunch", "--vertex", "0", "--out", str(target)]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("cannot write output: [Errno 2] ")
    assert not target.parent.exists()


def test_every_error_class_has_an_exit_code():
    import inspect

    from bchrome import errors

    bases = {
        errors.PreconditionViolated,
        errors.BadInput,
        errors.GenerationFailed,
        errors.ConstructionFailed,
    }
    classes = [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.BchromeError) and cls is not errors.BchromeError
    ]
    assert bases <= set(classes)
    for cls in classes:
        assert cls.exit_code in (2, 3, 4, 5) and cls.label, cls
        # below the four exit-code bases, a class must carry its own label
        # or data; a bare marker subclass adds a name and nothing else
        if cls not in bases:
            assert "label" in vars(cls) or "__init__" in vars(cls), cls


def test_construction_failure_dumps_stdin_graph(capsys, monkeypatch, tmp_path, hs):
    import io

    from bchrome import construct
    from bchrome.errors import ConstructionFailed

    def fail(g, x):
        raise ConstructionFailed("planted-step", ["a log line"])

    monkeypatch.setitem(construct._STRATEGY_FN, "two-bunch", fail)
    monkeypatch.chdir(tmp_path)
    argv = ["color", "-", "--strategy", "two-bunch", "--vertex", "0"]
    for _ in range(2):
        monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(hs) + "\n"))
        code, _, err = run(capsys, argv)
        assert code == 5
        assert "construction failed at planted-step" in err
    dumps = sorted(tmp_path.glob("counterexample-candidate-*.json"))
    assert len(dumps) == 2
    for path in dumps:
        doc = json.loads(path.read_text())
        assert doc["graph6"] == write_graph6(hs)
        assert doc["step"] == "planted-step" and doc["log"] == ["a log line"]
        assert doc["argv"] == argv


def test_unwritable_dump_still_names_the_step(capsys, monkeypatch, tmp_path, hs_file):
    from bchrome import construct
    from bchrome.errors import ConstructionFailed

    def fail(g, x):
        raise ConstructionFailed("planted-step", ["a log line"])

    monkeypatch.setitem(construct._STRATEGY_FN, "two-bunch", fail)
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()  # the dump's relative path now names no directory
    code, out, err = run(capsys, ["color", hs_file, "--strategy", "two-bunch", "--vertex", "0"])
    assert (code, out) == (5, "")
    assert err.startswith("construction failed at planted-step; dump not written: ")


def test_rejected_certificate_exits_5_with_a_dump(capsys, monkeypatch, tmp_path, hs_file):
    from bchrome import construct
    from bchrome.coloring import VerifyResult

    monkeypatch.setattr(construct, "verify_certificate", lambda cert, g: VerifyResult(False, "planted"))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["color", hs_file])
    step = "self-verify: constructed certificate rejected: planted"
    assert (code, out) == (5, "")
    assert err.startswith(f"construction failed at {step}; dump written to ")
    (dump,) = tmp_path.glob("counterexample-candidate-*.json")
    assert json.loads(dump.read_text())["step"] == step


@pytest.mark.parametrize("n, d, header", [(36, 3, "c"), (49, 4, "p")])
@pytest.mark.parametrize("cmd", ["info", "hypcheck"])
def test_graph6_with_a_dimacs_looking_header(capsys, monkeypatch, tmp_path, n, d, header, cmd):
    import io

    gen = ["gen", "--family", "random-regular", "--n", str(n), "--d", str(d), "--seed", "1"]
    code, text, _ = run(capsys, gen)
    assert code == 0 and text[0] == header
    path = tmp_path / "g.g6"
    path.write_text(text)
    code, from_file, err = run(capsys, [cmd, str(path)])
    assert (code, err) == (0, "")
    assert json.loads(from_file)["n"] == n
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, [cmd, "-"]) == (0, from_file, "")


def _fuzz_cert(rng, doc):
    junk = [True, False, None, 1.5, -1, 10**30, "7", [], {}, [True], [1.5]]
    key = rng.choice(sorted(doc))
    choice = rng.randrange(5)
    if choice == 0:
        del doc[key]
    elif choice == 1:
        doc[key + "_"] = doc.pop(key)
    elif choice == 2:
        doc[key] = rng.choice(junk)
    elif choice == 3:
        cls = rng.choice(sorted(doc["b_vertices"]))
        new = rng.choice(["0" + cls, " " + cls, "+" + cls, cls + ".0", "²", "-1", "9" * 30])
        doc["b_vertices"][new] = doc["b_vertices"].pop(cls)
    else:
        arr = rng.choice(["colors", "neighbor_order", "row_order"])
        i = rng.randrange(len(doc[arr]))
        doc[arr][i] = rng.choice(junk)
    text = json.dumps(doc).encode()
    if rng.random() < 0.2:
        i = rng.randrange(len(text))
        text = text[:i] + bytes([rng.randrange(256)]) + text[i + 1:]
    return text


def _fuzz_graph(rng, text):
    data = bytearray(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        op = rng.randrange(3)
        if op == 0 and data:
            del data[min(i, len(data) - 1)]
        elif op == 1:
            data.insert(i, rng.randrange(256))
        elif data:
            data[min(i, len(data) - 1)] = rng.choice(b"0123456789 \n-pe?~\xff")
    return bytes(data)


def test_fuzz_whole_cli_runs(capsys, monkeypatch, tmp_path, hs_file, hs_cert_doc, pet):
    import random

    rng = random.Random(7)
    monkeypatch.chdir(tmp_path)  # a dump, if any, lands here
    f = tmp_path / "input"
    codes = set()

    def call(argv):
        try:
            code = main(argv)
        finally:
            capsys.readouterr()
        assert code in range(6), argv
        codes.add(code)

    for _ in range(120):
        f.write_bytes(_fuzz_cert(rng, json.loads(json.dumps(hs_cert_doc))))
        call(["verify", hs_file, str(f)])
    seeds = [write_graph6(pet).encode() + b"\n", write_dimacs(pet).encode()]
    for _ in range(300):
        f.write_bytes(_fuzz_graph(rng, rng.choice(seeds)))
        call([rng.choice(["info", "hypcheck"]), str(f)])
    f.write_bytes(seeds[0])
    values = ["0", "9", "10", "-1", "-11", str(10**20), "abc", "1.5", "", "0x1", " 3", "٣"]
    for value in values:
        call(["info", str(f), "--vertex", value])
        call(["color", str(f), "--vertex", value])
    assert {0, 1, 2, 3} <= codes


def _sha16(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


# First 16 hex digits of the sha256 of stdout, recorded before info and
# color --vertex were moved onto construct.vertex_census.
CENSUS_JSON_DIGESTS = {
    ("hs", "info"): "e70eb7bde5c44fb2",
    ("hs", "info --vertex 3"): "0842ffa317a2acf7",
    ("hs", "hypcheck"): "edd759450d0c0cce",
    ("pet", "info"): "23ca8b9b2e69e998",
    ("pet", "info --vertex 3"): "9d497a029200271e",
    ("pet", "hypcheck"): "f3a36cba2e84310a",
    # Recorded with the depth-5 6-cycle DFS, before the 3-path pairing
    # replaced it.  This graph has girth 3, so 3-paths to a common end
    # share interior vertices, which HS and Petersen (girth 5) never do.
    ("dense", "info"): "bc646fd50b601ab3",
    ("dense", "info --vertex 3"): "6c1b2847cd183f29",
    ("dense", "hypcheck"): "def928d69b3b89ae",
}


@pytest.fixture
def dense_file(tmp_path, capsys):
    p = tmp_path / "dense.g6"
    p.write_text(_gen(capsys, "--n", "60", "--d", "12", "--girth-min", "3", "--seed", "1"))
    return str(p)


@pytest.mark.parametrize("graph, cmd", sorted(CENSUS_JSON_DIGESTS))
def test_census_json_is_unchanged(capsys, request, graph, cmd):
    path = request.getfixturevalue(f"{graph}_file")
    words = cmd.split()
    code, out, _ = run(capsys, [words[0], path] + words[1:])
    assert code == 0
    assert _sha16(out) == CENSUS_JSON_DIGESTS[graph, cmd]


def test_color_vertex_auto_censuses_only_that_vertex(capsys, monkeypatch, hs_file):
    from bchrome import construct

    seen = []
    local = construct._local_census

    def spy(g, x):
        seen.append(x)
        return local(g, x)

    def no_census(*args):
        raise AssertionError("census run for one vertex")

    monkeypatch.setattr(construct, "_local_census", spy)
    monkeypatch.setattr(construct, "vertex_census", no_census)
    monkeypatch.setattr(construct, "hypothesis_report", no_census)
    code, out, _ = run(capsys, ["color", hs_file, "--vertex", "17"])
    assert code == 0 and seen == [17]
    assert out.startswith("strategy: two-bunch  center: 17  k: 8")


@pytest.mark.parametrize("strategy", ["no-c6", "bounded-c6", "two-bunch"])
def test_color_refuses_girth_6(capsys, tmp_path, pg27, strategy):
    # PG(2,7)'s incidence graph is 8-regular with girth 6: the local girth
    # test reads "above 5", and the message still names the girth.
    f = tmp_path / "pg27.g6"
    f.write_text(write_graph6(pg27) + "\n")
    code, out, err = run(capsys, ["color", str(f), "--strategy", strategy, "--vertex", "0"])
    assert code == 2 and out == ""
    assert err == "not applicable: girth = 6 != 5\n"


def test_color_names_girth_3_and_4_without_girth(capsys, tmp_path, monkeypatch):
    # short_girth is exact up to 5, so the refusal reads girth 3 or 4 off it;
    # the quadratic girth() took about a minute on a shuffled 8-regular
    # circulant with 10^5 vertices (see the CI's girth refusal guard).
    from bchrome import construct, graph as graph_mod
    from bchrome.graph import build_graph

    def no_girth(g):
        raise AssertionError("girth() ran for a girth below 5")

    monkeypatch.setattr(construct, "girth", no_girth)
    monkeypatch.setattr(graph_mod, "girth", no_girth)
    # the circulant C_40(1, 2, 5, 11) is 8-regular with girth 3
    circulant = build_graph(
        40, sorted({tuple(sorted((i, (i + s) % 40))) for i in range(40) for s in (1, 2, 5, 11)})
    )
    k77 = build_graph(14, [(i, 7 + j) for i in range(7) for j in range(7)])
    for g, gth in ((circulant, 3), (k77, 4)):
        f = tmp_path / f"girth{gth}.g6"
        f.write_text(write_graph6(g) + "\n")
        code, out, err = run(capsys, ["color", str(f), "--strategy", "two-bunch"])
        assert code == 2 and out == ""
        assert err == f"not applicable: girth = {gth} != 5\n"
        assert run(capsys, ["color", str(f)]) == (2, "", f"not applicable: girth = {gth} != 5\n")


def _gen(capsys, *args):
    code, out, _ = run(capsys, ["gen", "--family", "random-regular"] + list(args))
    assert code == 0
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_gen_meets_girth_min_above_5(capsys, seed):
    from bchrome.graph import girth

    out = _gen(capsys, "--n", "40", "--d", "3", "--girth-min", "6", "--seed", str(seed))
    g = parse_graph6(out)
    assert g.regular_degree() == 3 and girth(g) >= 6


def test_gen_rejects_spec_below_moore_bound(capsys):
    # a cubic graph of girth 10 needs 62 vertices; the search is never tried
    import time

    start = time.perf_counter()
    code, out, err = run(
        capsys, ["gen", "--family", "random-regular", "--n", "40", "--d", "3", "--girth-min", "10"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == "bad input: n = 40 is below the Moore bound for d = 3, girth >= 10\n"


def test_gen_girth_min_5_output_is_unchanged(capsys):
    # recorded before girth_min above 5 was honoured; the random desk
    # graphs depend on these bytes
    assert _sha16(_gen(capsys, "--n", "40", "--d", "3", "--seed", "0")) == "e5effe53e0ae76c5"
    assert _sha16(_gen(capsys, "--n", "40", "--d", "3", "--seed", "1")) == "94c20a3c01477bd1"
    assert _sha16(_gen(capsys, "--n", "30", "--d", "4", "--seed", "2")) == "5a6dea0b11b9467e"


@pytest.fixture
def short_girth_calls(monkeypatch):
    """Graphs passed to graph.short_girth from here on, wherever bchrome
    refers to it."""
    from bchrome import coloring, construct, graph

    calls = []
    real = graph.short_girth

    def spy(g):
        calls.append(g)
        return real(g)

    for mod in (graph, construct, coloring):
        monkeypatch.setattr(mod, "short_girth", spy)
    return calls


@pytest.fixture
def short_girth_runs(monkeypatch):
    """Graphs on which short_girth computes its test from here on; a
    memoised answer adds nothing."""
    from bchrome import graph

    runs = []
    for name in ("_short_girth_masks", "_short_girth_sets"):
        real = getattr(graph, name)

        def spy(g, real=real):
            runs.append(g)
            return real(g)

        monkeypatch.setattr(graph, name, spy)
    return runs


# One graph check per proof: the selection scan's, when it runs, the
# chosen strategy's own, and the self-verify of the certificate.  All of
# them read one girth-5 test, which the Graph memoises.
@pytest.mark.parametrize("graph, args, checks", [
    ("hs", ["--strategy", "two-bunch", "--vertex", "17"], 2),
    ("planted", ["--strategy", "bounded-c6", "--vertex", "0"], 2),
    ("planted", ["--strategy", "no-c6", "--vertex", "0"], 2),
    ("hs", [], 3),
    ("hs", ["--vertex", "17"], 3),
    ("hs", ["--strategy", "two-bunch"], 3),
    ("planted", [], 3),
    ("planted", ["--vertex", "0"], 3),
    ("planted", ["--strategy", "bounded-c6"], 3),
])
def test_color_checks_the_graph_once_per_proof(
    capsys, tmp_path, hs, no_c6_instance, short_girth_calls, short_girth_runs,
    graph, args, checks
):
    g = {"hs": hs, "planted": no_c6_instance}[graph]
    f = tmp_path / "g.g6"
    f.write_text(write_graph6(g) + "\n")
    code, _, _ = run(capsys, ["color", str(f), *args])
    assert code == 0
    assert len(short_girth_calls) == checks
    assert len(short_girth_runs) == 1
    assert short_girth_runs[0] is short_girth_calls[0]


def test_short_girth_memo_is_per_graph_object(hs, short_girth_runs):
    from bchrome.graph import Graph, short_girth

    g = Graph(hs.n, [set(a) for a in hs.adj])
    h = Graph(hs.n, [set(a) for a in hs.adj])
    assert g == h
    assert short_girth(g) == short_girth(g) == 5
    assert short_girth_runs == [g]
    assert short_girth(h) == 5
    assert short_girth_runs == [g, h]


def test_verify_checks_the_graph_once(
    capsys, tmp_path, hs_file, short_girth_calls, short_girth_runs
):
    cert = tmp_path / "cert.json"
    assert run(capsys, ["color", hs_file, "--out", str(cert)])[0] == 0
    short_girth_calls.clear()
    short_girth_runs.clear()
    code, out, _ = run(capsys, ["verify", hs_file, str(cert)])
    assert (code, out) == (0, "Accept\n")
    assert len(short_girth_calls) == len(short_girth_runs) == 1


def test_python_dash_m_runs_the_cli(pet):
    # `python -m bchrome` from a source checkout, one process per command.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "bchrome"]
    gen = subprocess.run(cmd + ["gen", "--family", "petersen"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (gen.returncode, gen.stderr) == (0, "")
    assert parse_graph6(gen.stdout) == pet
    bchrom = subprocess.run(cmd + ["bchrom", "-"], input=gen.stdout, env=env,
                            capture_output=True, text=True, timeout=60)
    assert (bchrom.returncode, bchrom.stdout, bchrom.stderr) == (0, "3\n", "")
