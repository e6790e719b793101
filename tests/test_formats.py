"""graph6, DIMACS and certificate serialization: round-trips and rejects."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchrome.errors import MalformedDimacs, MalformedGraph6, SchemaViolation
from bchrome.formats import (
    parse_dimacs,
    parse_graph6,
    read_certificate,
    write_certificate,
    write_dimacs,
    write_graph6,
)
from bchrome.generators import cycle, hoffman_singleton, petersen
from bchrome.graph import build_graph


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_k1_and_k2():
    assert write_graph6(build_graph(1, [])) == "@"
    assert write_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert parse_graph6("@").n == 1
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6("A?").edges() == []


def test_header_prefix_accepted(pet):
    line = ">>graph6<<" + write_graph6(pet)
    assert parse_graph6(line) == pet


def test_named_graph_round_trips(pet, hs):
    for g in (pet, hs, cycle(5), build_graph(0, []), build_graph(62, [])):
        assert parse_graph6(write_graph6(g)) == g


# (name, first 16 hex digits of the sha256 of write_graph6's output),
# recorded from the per-pair writer: a faster writer must emit the same bytes.
WRITE_GRAPH6_DIGESTS = [
    ("petersen", "04880e95a8ddc143"),
    ("hs", "d0e6d87cb8ec7162"),
    ("planted", "188b20a40fb22526"),
    ("empty-62", "1275b5579bfb165a"),
    ("random-62", "38d03f54445d615b"),
    ("random-63", "18db01b4f2833ba4"),
    ("complete-63", "31f54ba7bc521917"),
    ("random-0-0", "8a8de823d5ed3e12"),
    ("random-1-1", "c3641f8544d7c02f"),
    ("random-2-2", "ada8d598e51a0bf0"),
    ("random-7-3", "366c39b8a0d74f52"),
    ("random-13-4", "fbc6169ae421ea2c"),
    ("random-100-5", "836e211e3a3f4ce5"),
    ("random-300-6", "3f61772e2f2e0a37"),
]


@pytest.fixture(scope="module")
def digest_graphs(pet, hs, no_c6_instance):
    graphs = {
        "petersen": pet,
        "hs": hs,
        "planted": no_c6_instance,
        "empty-62": build_graph(62, []),
        "random-62": random_graph(62, 0.3, 62),
        "random-63": random_graph(63, 0.3, 63),
        "complete-63": random_graph(63, 1.0, 0),
    }
    sizes = [(0, 0.5), (1, 0.5), (2, 1.0), (7, 0.5), (13, 0.4), (100, 0.05), (300, 0.02)]
    for seed, (n, p) in enumerate(sizes):
        graphs[f"random-{n}-{seed}"] = random_graph(n, p, seed)
    return graphs


@pytest.mark.parametrize("name, digest", WRITE_GRAPH6_DIGESTS)
def test_write_graph6_is_pinned(digest_graphs, name, digest):
    g = digest_graphs[name]
    enc = write_graph6(g)
    assert hashlib.sha256(enc.encode()).hexdigest()[:16] == digest
    assert parse_graph6(enc) == g


def test_extended_length_form():
    g = random_graph(100, 0.05, 3)
    enc = write_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g


def test_graph6_rejects():
    with pytest.raises(MalformedGraph6):
        parse_graph6("")
    with pytest.raises(MalformedGraph6):
        parse_graph6("\x1c??")
    with pytest.raises(MalformedGraph6):
        parse_graph6("D")  # n=5 needs body chars
    with pytest.raises(MalformedGraph6):
        parse_graph6("B~")  # nonzero padding bits for n=3
    with pytest.raises(MalformedGraph6):
        parse_graph6("~~????")  # 8-byte length form unsupported
    with pytest.raises(MalformedGraph6):
        parse_graph6(">>graph6<<")  # header without a graph


PET6 = "IheA@GUAo"  # Petersen


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("\x01??", 0, "byte 1 outside graph6 range"),
        (PET6[:4] + " " + PET6[5:], 4, "byte 32 outside graph6 range"),
        (PET6[:2] + "\u00e9" + PET6[3:], 2, "byte 233 outside graph6 range"),
        (">>graph6<<" + PET6[:3] + "\x7f", 3, "byte 127 outside graph6 range"),
        ("~??", 3, "truncated extended header"),
        ("~~????", 1, "8-byte length form unsupported"),
        ("D", 1, "expected 2 body chars, got 0"),
        (PET6 + "?", 10, "expected 8 body chars, got 9"),
        ("B~", 1, "nonzero padding bits"),
        (PET6[:-1] + "p", 8, "nonzero padding bits"),
        ("", 0, "empty input"),
        (">>graph6<<", 10, "empty input"),
    ],
    ids=["bad-byte-0", "bad-byte-mid-body", "non-ascii", "bad-byte-after-prefix",
         "truncated-long-header", "8-byte-form", "short-body", "long-body",
         "padding-n3", "padding-petersen", "empty", "prefix-only"],
)
def test_graph6_reject_position_and_message(text, position, message):
    with pytest.raises(MalformedGraph6) as exc:
        parse_graph6(text)
    assert exc.value.position == position
    assert str(exc.value) == f"malformed graph6 at position {position}: {message}"


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 400])
def test_graph6_round_trip_sizes(n):
    for p in (0.0, 0.02, 0.5, 1.0):
        g = random_graph(n, p, n)
        enc = write_graph6(g)
        assert enc.startswith("~") == (n > 62)
        back = parse_graph6(enc)
        assert back == g
        # Edges are added in the column-major bit order, so the adjacency
        # sets iterate exactly as build_graph's would.
        column_major = [(i, j) for j in range(n) for i in range(j) if g.has_edge(i, j)]
        ref = build_graph(n, column_major)
        assert [list(a) for a in back.adj] == [list(a) for a in ref.adj]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_graph6_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(0, 70), rng.random(), seed)
    assert parse_graph6(write_graph6(g)) == g


def test_dimacs_round_trip(pet, hs):
    for g in (pet, hs, cycle(7)):
        assert parse_dimacs(write_dimacs(g)) == g


def test_dimacs_parses_comments_and_col():
    text = "c a comment\np col 3 2\ne 1 2\ne 2 3\n"
    g = parse_dimacs(text)
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",  # edge before p-line
        "p edge 3 1\np edge 3 1\n",  # duplicate p-line
        "p edge x 1\n",
        "p edge 3 1\ne 1 9\n",  # endpoint out of range
        "p edge 3 1\ne 1\n",
        "p edge 3 1\nq 1 2\n",
        "",
        "p edge 3 2\ne 1 1\ne 1 2\n",  # self-loop
        "p edge 1000000000 0\n",  # above the vertex cap; rejected before allocating
    ],
)
def test_dimacs_rejects(text):
    with pytest.raises(MalformedDimacs):
        parse_dimacs(text)


def fuzz_bytes(rng):
    length = rng.randint(0, 12)
    return "".join(chr(rng.randint(0, 255)) for _ in range(length))


def test_graph6_fuzz_no_crashes():
    rng = random.Random(0)
    for _ in range(20_000):
        s = fuzz_bytes(rng)
        try:
            parse_graph6(s)
        except MalformedGraph6:
            pass


def reference_graph6(text):
    """graph6 decoded one bit at a time, with no code shared with
    parse_graph6: ("graph", n, edges) with edges sorted, or ("reject",
    position) with the position parse_graph6 must report."""
    s = text.strip()
    if not s:
        return ("reject", 0)
    prefix = ">>graph6<<"
    if s[:len(prefix)] == prefix:
        s = s[len(prefix):]
        if not s:
            return ("reject", len(prefix))
    for pos, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            return ("reject", pos)
    values = [ord(ch) - 63 for ch in s]
    if s[0] == "~":
        if len(s) < 4:
            return ("reject", len(s))
        if s[1] == "~":
            return ("reject", 1)
        n = values[1] * 64 * 64 + values[2] * 64 + values[3]
        body = values[4:]
    else:
        n = values[0]
        body = values[1:]
    # The length test comes first: a header can claim n up to 258047.
    if len(body) != -(-(n * (n - 1) // 2) // 6):
        return ("reject", len(s))
    pairs = [(i, j) for j in range(n) for i in range(j)]
    bits = []
    for value in body:
        for shift in (5, 4, 3, 2, 1, 0):
            bits.append((value >> shift) & 1)
    if any(bits[len(pairs):]):
        return ("reject", len(s) - 1)
    return ("graph", n, sorted(pair for pair, bit in zip(pairs, bits) if bit))


def decoded(text):
    """parse_graph6's answer in reference_graph6's form."""
    try:
        g = parse_graph6(text)
    except MalformedGraph6 as e:
        return ("reject", e.position)
    return ("graph", g.n, sorted(g.edges()))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_graph6_matches_bitwise_reference(p):
    for n in range(71):
        g = random_graph(n, p, n)
        enc = write_graph6(g)
        assert decoded(enc) == reference_graph6(enc) == ("graph", n, sorted(g.edges())), n


def test_graph6_matches_bitwise_reference_on_pinned_graphs(digest_graphs):
    assert len(digest_graphs) == len(WRITE_GRAPH6_DIGESTS)
    for name, g in digest_graphs.items():
        enc = write_graph6(g)
        assert decoded(enc) == reference_graph6(enc) == ("graph", g.n, sorted(g.edges())), name


def test_graph6_matches_bitwise_reference_on_fuzz():
    # The byte fuzz corpus of test_graph6_fuzz_no_crashes, then strings over
    # the graph6 alphabet (with and without the prefix), which reach the
    # length, header and padding checks.
    rng = random.Random(0)
    corpus = [fuzz_bytes(rng) for _ in range(20_000)]
    rng = random.Random(5)
    for _ in range(20_000):
        s = "".join(chr(rng.randint(63, 126)) for _ in range(rng.randint(0, 12)))
        corpus.append(rng.choice(("", ">>graph6<<", " ")) + s)
    verdicts = set()
    for s in corpus:
        want = reference_graph6(s)
        assert decoded(s) == want, repr(s)
        verdicts.add(want[0] if want[0] == "graph" else want)
    assert "graph" in verdicts and len(verdicts) > 10


def test_dimacs_fuzz_no_crashes():
    rng = random.Random(1)
    for _ in range(20_000):
        s = fuzz_bytes(rng)
        try:
            parse_dimacs(s)
        except MalformedDimacs:
            pass


def make_cert(hs):
    from bchrome.construct import color_two_bunch

    return color_two_bunch(hs, 0)


def test_certificate_round_trip(hs):
    cert = make_cert(hs)
    assert read_certificate(write_certificate(cert)) == cert


V1_KEYS = ["version", "n", "m", "d", "girth", "k", "strategy", "center",
           "neighbor_order", "row_order", "colors", "b_vertices", "provenance"]


@pytest.mark.parametrize("strategy", ["no-c6", "bounded-c6", "two-bunch"])
def test_certificate_v1_key_order(hs, no_c6_instance, strategy):
    import json

    from bchrome.construct import auto_color

    g = hs if strategy == "two-bunch" else no_c6_instance
    cert = auto_color(g, strategy, 0)
    text = write_certificate(cert)
    assert list(json.loads(text)) == V1_KEYS
    assert read_certificate(text) == cert


def _certificate_text_by_json_dumps(cert):
    """The v1 layout by its definition: json.dumps with indent=2."""
    import json

    doc = {"version": 1, **vars(cert),
           "b_vertices": {str(cls): v for cls, v in sorted(cert.b_vertices.items())}}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("strategy", ["no-c6", "bounded-c6", "two-bunch"])
def test_certificate_text_is_json_dumps_indent_2(hs, no_c6_instance, strategy):
    from bchrome.construct import auto_color

    g = hs if strategy == "two-bunch" else no_c6_instance
    cert = auto_color(g, strategy, 0)
    assert write_certificate(cert) == _certificate_text_by_json_dumps(cert)


def test_certificate_text_is_json_dumps_indent_2_on_edge_cases():
    from bchrome.coloring import Certificate

    rng = random.Random(26)
    alphabet = ['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\x00', '\x7f', '/',
                'é', 'ß', '→', '€', '\u2028', '😀', '[', ']', '{', '}', ',', ':']

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))

    def ints(lo=0):
        return [rng.randint(-3, 10**rng.randint(1, 12)) for _ in range(rng.randint(lo, 6))]

    def scalars():
        return [rng.choice([None, True, False, rng.randint(0, 9)])
                for _ in range(rng.randint(0, 6))]

    for _ in range(300):
        row_order = rng.choice([
            None, [], [[]], [[], []], [ints(1) for _ in range(rng.randint(1, 4))],
            [ints() for _ in range(rng.randint(1, 4))],  # ragged, rows may be empty
            [scalars() for _ in range(rng.randint(1, 3))],
            [tuple(ints(1)), ints(1)],  # a caller may pass tuples
            [ints(1), *scalars()],  # rows mixed with scalars
        ])
        cert = Certificate(
            n=rng.randint(0, 10**6), m=rng.randint(0, 10**6), d=rng.randint(0, 9),
            girth=rng.randint(0, 9), k=rng.randint(1, 12), strategy=text(),
            center=rng.randint(-1, 50), neighbor_order=rng.choice([[], ints(), tuple(ints())]),
            row_order=row_order, colors=rng.choice([[], ints(), scalars()]),
            b_vertices={rng.randint(0, 10**rng.randint(1, 18)): rng.randint(-1, 99)
                        for _ in range(rng.randint(0, 5))},
            provenance=rng.choice([None, text()]),
        )
        assert write_certificate(cert) == _certificate_text_by_json_dumps(cert), cert


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("k"),
        lambda d: d.update(extra=1),
        lambda d: d.update(version=99),
        lambda d: d.update(colors="nope"),
        lambda d: d.update(colors=[True] * 50),
        lambda d: d.update(b_vertices={"x": 1}),
        lambda d: d.update(b_vertices={"1": "v"}),
        lambda d: d.update(center="0"),
        lambda d: d.update(provenance=7),
        lambda d: d.update(version=True),
        lambda d: d.update(version=1.0),
        lambda d: d.update(neighbor_order=[True] + d["neighbor_order"][1:]),
        lambda d: d.update(row_order=[[False]]),
        lambda d: d.update(b_vertices={"01": 1}),
        lambda d: d.update(b_vertices={"²": 1}),
        lambda d: d.update(b_vertices={"1" * 30: 1}),
    ],
)
def test_certificate_schema_rejects(hs, mutate):
    import json

    doc = json.loads(write_certificate(make_cert(hs)))
    mutate(doc)
    with pytest.raises(SchemaViolation):
        read_certificate(json.dumps(doc))


def test_certificate_rejects_color_out_of_range(hs):
    import json

    doc = json.loads(write_certificate(make_cert(hs)))
    doc["colors"][0] = doc["k"] + 1
    with pytest.raises(SchemaViolation):
        read_certificate(json.dumps(doc))


@pytest.mark.parametrize("at_end", [False, True], ids=["first", "last"])
@pytest.mark.parametrize(
    "value, message",
    [(True, "must be an integer"), (1.0, "must be an integer"),
     (0, "color 0 outside [1, 8]"), (9, "color 9 outside [1, 8]")],
    ids=["true", "float", "zero", "k+1"],
)
def test_certificate_color_rejects_path_and_message(hs, value, message, at_end):
    import json

    doc = json.loads(write_certificate(make_cert(hs)))
    assert doc["k"] == 8 and doc["n"] == 50
    i = doc["n"] - 1 if at_end else 0
    doc["colors"][i] = value
    with pytest.raises(SchemaViolation) as exc:
        read_certificate(json.dumps(doc))
    assert exc.value.path == f"$.colors[{i}]"
    assert str(exc.value) == f"certificate schema violation at $.colors[{i}]: {message}"


def test_certificate_color_rejects_name_the_first_bad_index(hs):
    import json

    doc = json.loads(write_certificate(make_cert(hs)))
    doc["colors"][3] = 9
    doc["colors"][7] = True
    doc["colors"][49] = "1"
    with pytest.raises(SchemaViolation) as exc:
        read_certificate(json.dumps(doc))
    assert str(exc.value) == "certificate schema violation at $.colors[3]: color 9 outside [1, 8]"


@pytest.mark.parametrize(
    "mutate, path, message",
    [
        (lambda d: d.update(extra=1, zeta=2), "$", "unknown fields ['extra', 'zeta']"),
        (lambda d: [d.update(extra=1), d.pop("k")], "$", "unknown fields ['extra']"),
        (lambda d: [d.pop("k"), d.pop("center")], "$", "missing fields ['center', 'k']"),
        *[(lambda d, key=key: d.update({key: value}), f"$.{key}", "must be an integer")
          for key in ("n", "m", "d", "girth", "k", "center")
          for value in (True, 1.0, "1", None)],
        (lambda d: d["colors"].pop(), "$.colors", "length 49 != n = 50"),
        (lambda d: d.update(b_vertices={"01": 1}), "$.b_vertices.01",
         "class keys are decimal strings without leading zeros"),
        (lambda d: d.update(b_vertices={"1": 0, "x": 1}), "$.b_vertices.x",
         "class keys are decimal strings without leading zeros"),
        (lambda d: d.update(b_vertices={"1": 0, "2": True}), "$.b_vertices.2",
         "vertex must be an integer"),
    ],
)
def test_certificate_schema_rejects_path_and_message(hs, mutate, path, message):
    import json

    doc = json.loads(write_certificate(make_cert(hs)))
    assert doc["n"] == 50
    mutate(doc)
    with pytest.raises(SchemaViolation) as exc:
        read_certificate(json.dumps(doc))
    assert exc.value.path == path
    assert str(exc.value) == f"certificate schema violation at {path}: {message}"


def test_certificate_rejects_byte_order_mark(hs):
    with pytest.raises(SchemaViolation) as exc:
        read_certificate("\ufeff" + write_certificate(make_cert(hs)))
    assert str(exc.value) == (
        "certificate schema violation at $: not valid JSON: Unexpected UTF-8 BOM "
        "(decode using utf-8-sig): line 1 column 1 (char 0)"
    )


def test_certificate_rejects_non_json():
    with pytest.raises(SchemaViolation):
        read_certificate("{not json")


@pytest.mark.parametrize(
    "text",
    ['{"n": 1, "n": 2}', "[" * 100_000, '{"n": 1' + "0" * 5000 + "}"],
    ids=["duplicate-key", "deep-nesting", "5000-digit-int"],
)
def test_certificate_rejects_json_python_cannot_hold(text):
    with pytest.raises(SchemaViolation):
        read_certificate(text)
