"""Bit-exact graph interchange (graph6, DIMACS) and certificate JSON v1."""

from __future__ import annotations

import json
import re
from binascii import a2b_base64
from dataclasses import fields
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .coloring import Certificate
from .errors import BadInput, MalformedDimacs, MalformedGraph6, SchemaViolation
from .graph import Graph, build_graph

_MAX_SHORT_N = 62
# 18-bit length form: '~' + 3 data bytes.  Also the cap on DIMACS input and
# on generated graphs, so every graph the CLI holds can be written as graph6.
MAX_N = 258047


# Any character outside the printable graph6 range '?'..'~' (63..126).
_G6_BAD_CHAR = re.compile(r"[^?-~]")
# bytes.translate table: each graph6 character to the standard base64 digit
# of its six data bits.
_G6_TO_B64 = bytes.maketrans(
    bytes(range(63, 127)),
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
)
# bytes.translate table: six data bits (0..63) to their graph6 character.
_G6_CHARS = bytes((b + 63) & 0xFF for b in range(256))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line: header byte(s) then column-major upper-triangle
    bits, 6 per character, zero-padded."""
    s = text.strip()
    if not s:
        raise MalformedGraph6(0, "empty input")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
        if not s:
            raise MalformedGraph6(len(">>graph6<<"), "empty input")
    bad = _G6_BAD_CHAR.search(s)
    if bad is not None:
        pos = bad.start()
        raise MalformedGraph6(pos, f"byte {ord(s[pos])} outside graph6 range")
    if s[0] == "~":
        if len(s) < 4:
            raise MalformedGraph6(len(s), "truncated extended header")
        if s[1] == "~":
            raise MalformedGraph6(1, "8-byte length form unsupported")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise MalformedGraph6(len(s), f"expected {need} body chars, got {len(body)}")
    # Each character carries the six bits of its value c - 63, which is the
    # base64 digit _G6_TO_B64[c]; 'A' (zero) pads the body to whole quads.
    quads = body.encode("ascii").translate(_G6_TO_B64) + b"A" * (-len(body) % 4)
    bits = format(int.from_bytes(a2b_base64(quads), "big"), f"0{6 * len(quads)}b")
    if "1" in bits[nbits:]:
        raise MalformedGraph6(len(s) - 1, "nonzero padding bits")
    # Bit k is the pair (i, j), i < j, of column j, which holds bits
    # base..base+j-1 with base = j(j-1)/2.  Edges are added in bit order.
    adj: list[set[int]] = [set() for _ in range(n)]
    j, base = 1, 0
    k = bits.find("1", 0, nbits)
    while k >= 0:
        while k >= base + j:
            base += j
            j += 1
        i = k - base
        adj[i].add(j)
        adj[j].add(i)
        k = bits.find("1", k + 1, nbits)
    return Graph(n, adj)


def write_graph6(g: Graph) -> str:
    """Encode as graph6, the inverse of parse_graph6: one step per edge,
    then one translate over the body."""
    if g.n > MAX_N:
        raise BadInput(f"graph6 writer supports n <= {MAX_N}")
    if g.n <= _MAX_SHORT_N:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(
            chr(((g.n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    # Pair (i, j), i < j, is bit j(j-1)/2 + i, six bits per character,
    # most significant first, zero-padded at the end.
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges():
        b = j * (j - 1) // 2 + i
        body[b // 6] |= 32 >> (b % 6)
    return head + body.translate(_G6_CHARS).decode("ascii")


def parse_dimacs(text: str) -> Graph:
    """DIMACS edge format: 'p edge n m' then 1-based 'e u v' lines."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise MalformedDimacs(lineno, "duplicate p-line")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise MalformedDimacs(lineno, "bad p-line")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise MalformedDimacs(lineno, "non-integer p-line fields")
            if n < 0:
                raise MalformedDimacs(lineno, "negative vertex count")
            if n > MAX_N:
                raise MalformedDimacs(lineno, f"vertex count {n} above {MAX_N}")
        elif parts[0] == "e":
            if n is None:
                raise MalformedDimacs(lineno, "e-line before p-line")
            if len(parts) != 3:
                raise MalformedDimacs(lineno, "bad e-line")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise MalformedDimacs(lineno, "non-integer endpoints")
            if not (1 <= u <= n and 1 <= v <= n):
                raise MalformedDimacs(lineno, "endpoint out of range")
            if u == v:
                raise MalformedDimacs(lineno, f"self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise MalformedDimacs(lineno, f"unknown record {parts[0]!r}")
    if n is None:
        raise MalformedDimacs(1, "missing p-line")
    return build_graph(n, edges)


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


CERT_VERSION = 1

_CERT_FIELDS = {"version", *(f.name for f in fields(Certificate))}


# The types json writes without nesting; ints and strings have a direct
# writer, which skips the encoder's per-call set-up.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_WRITE_SCALAR = {int: int.__repr__, str: encode_basestring_ascii}
_encode_scalar = json.JSONEncoder().encode


@lru_cache(maxsize=None)
def _level(depth: int) -> tuple:
    """The C encoder of a container ``depth`` levels inside the document, as
    indent=2 lays it out, and the newline-and-indent strings before its
    items and before its closing bracket.  The separators hold the layout:
    a flat container comes out with only its brackets out of place."""
    pad, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return json.JSONEncoder(separators=("," + pad, ": ")).encode, pad, close


def _render(value, depth: int) -> str:
    """value as json.dumps(doc, indent=2) writes it ``depth`` levels inside
    doc: one C-encoder call for a scalar or a non-empty list or dict of
    scalars, one per item for a list of those."""
    t = type(value)
    if t in _SCALARS:
        return _WRITE_SCALAR.get(t, _encode_scalar)(value)
    if value and (t is list or t is dict):
        encode, pad, close = _level(depth)
        if _SCALARS.issuperset(map(type, value.values() if t is dict else value)):
            body = encode(value)
            return body[0] + pad + body[1:-1] + close + body[-1]
        if t is list:
            return "[" + pad + ("," + pad).join([_render(x, depth + 1) for x in value]) \
                + close + "]"
    # Anything else (empty, nested dicts, tuples) as json.dumps lays it out,
    # indented to its depth; JSON strings hold no raw newline.
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def write_certificate(cert: Certificate) -> str:
    """JSON v1: "version", then the Certificate fields in their order.

    The text is exactly json.dumps(doc, indent=2) + "\n", built from one
    C-encoder call per field (see _render).
    """
    doc = {"version": CERT_VERSION, **vars(cert)}
    doc["b_vertices"] = {str(cls): v for cls, v in sorted(cert.b_vertices.items())}
    return "{\n  " + ",\n  ".join(
        [f"{encode_basestring_ascii(key)}: {_render(value, 1)}" for key, value in doc.items()]
    ) + "\n}\n"


# Canonical class keys only, so that "01" and "1" cannot name one class
# twice; at most 18 digits, so int() never hits Python's digit limit.
_CLASS_KEY = re.compile(r"0|[1-9][0-9]{0,17}")


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaViolation(path, msg)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _no_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    _require(len(doc) == len(pairs), "$", "duplicate object keys")
    return doc


# One decoder for every certificate: json.loads would build a new decoder
# and scanner per call.  Decoding does not change it.
_DECODER = json.JSONDecoder(object_pairs_hook=_no_duplicate_keys)


def read_certificate(text: str) -> Certificate:
    """Parse and validate a certificate document; unknown fields rejected.

    JSON yields no int subclass but bool, so "type is int" is _is_int here.
    Paths and messages are built only for a field that fails its check.
    """
    try:
        if text.startswith("\ufeff"):
            # json.loads's own check, which JSONDecoder.decode lacks.
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       text, 0)
        doc = _DECODER.decode(text)
    except SchemaViolation:
        raise
    # ValueError covers JSONDecodeError and integers too long to convert;
    # RecursionError, arrays nested too deep.
    except (ValueError, RecursionError) as e:
        raise SchemaViolation("$", f"not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "$", "document must be an object")
    if doc.keys() != _CERT_FIELDS:
        unknown = set(doc) - _CERT_FIELDS
        _require(not unknown, "$", f"unknown fields {sorted(unknown)}")
        raise SchemaViolation("$", f"missing fields {sorted(_CERT_FIELDS - set(doc))}")
    _require(_is_int(doc["version"]) and doc["version"] == CERT_VERSION,
             "$.version", "unsupported version")
    for key in ("n", "m", "d", "girth", "k", "center"):
        if type(doc[key]) is not int:
            raise SchemaViolation(f"$.{key}", "must be an integer")
    _require(isinstance(doc["strategy"], str), "$.strategy", "must be a string")
    n, k = doc["n"], doc["k"]
    _require(n >= 0, "$.n", "negative")
    _require(k >= 1, "$.k", "k must be >= 1")
    colors = doc["colors"]
    _require(isinstance(colors, list), "$.colors", "must be an array")
    if len(colors) != n:
        raise SchemaViolation("$.colors", f"length {len(colors)} != n = {n}")
    for i, col in enumerate(colors):
        if type(col) is not int or not 1 <= col <= k:
            _require(_is_int(col), f"$.colors[{i}]", "must be an integer")
            _require(1 <= col <= k, f"$.colors[{i}]", f"color {col} outside [1, {k}]")
    order = doc["neighbor_order"]
    _require(isinstance(order, list) and all(_is_int(v) for v in order),
             "$.neighbor_order", "must be an integer array")
    row_order = doc["row_order"]
    if row_order is not None:
        _require(
            isinstance(row_order, list)
            and all(isinstance(r, list) and all(_is_int(v) for v in r) for r in row_order),
            "$.row_order", "must be null or an array of integer arrays",
        )
    bv_raw = doc["b_vertices"]
    _require(isinstance(bv_raw, dict), "$.b_vertices", "must be an object")
    b_vertices = {}
    for key, v in bv_raw.items():
        if _CLASS_KEY.fullmatch(key) is None:
            raise SchemaViolation(f"$.b_vertices.{key}",
                                  "class keys are decimal strings without leading zeros")
        if type(v) is not int:
            raise SchemaViolation(f"$.b_vertices.{key}", "vertex must be an integer")
        b_vertices[int(key)] = v
    prov = doc["provenance"]
    _require(prov is None or isinstance(prov, str), "$.provenance", "must be null or string")
    del doc["version"]
    doc["b_vertices"] = b_vertices
    return Certificate(**doc)
