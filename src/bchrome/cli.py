"""Command line entry point.

Subcommands: gen, info, hypcheck, color, verify, bchrom.  Exit codes:
0 success/Accept, 1 Reject, 2 no strategy applies or precondition violated
(also argparse usage errors), 3 bad or unreadable input or unwritable
output (stdout included), 4 budget exceeded (``bchrom`` ran out of nodes
or time) or ``gen`` exhausted its attempts (``GenerationFailed``), 5
construction failed (a counterexample candidate, dumped to a file).
Errors map to codes through ``exit_code`` on the classes in ``errors``.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import itertools
import json
import os
import sys

from . import construct, generators, oracle
from .coloring import verify_certificate
from .errors import (
    BadInput,
    BchromeError,
    CannotReadInput,
    CannotWriteOutput,
    ConstructionFailed,
)
from .formats import (
    MAX_N,
    parse_dimacs,
    parse_graph6,
    read_certificate,
    write_certificate,
    write_dimacs,
    write_graph6,
)
from .graph import Graph, girth

# The codes commands return themselves; errors carry theirs (see errors.py).
EXIT_OK = 0
EXIT_REJECT = 1
EXIT_BUDGET = 4

_FAMILIES = ("cycle", "petersen", "hoffman-singleton", "robertson", "random-regular")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise BadInput(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from e
    except OSError as e:
        raise CannotReadInput(str(e)) from e


def _load_graph(path: str) -> Graph:
    text = _read_text(path)
    # A DIMACS text opens with a "c" or "p" line, which holds whitespace;
    # graph6 is one token, whose header byte is "c" at n = 36 and "p" at 49.
    stripped = text.lstrip()
    if stripped[:1] in ("p", "c") and len(stripped.split(None, 1)) > 1:
        return parse_dimacs(text)
    return parse_graph6(text)


def _cmd_gen(args, _g: None) -> int:
    if args.n is not None and args.n > MAX_N:
        raise BadInput(f"--n {args.n} exceeds {MAX_N}")
    if args.family == "cycle":
        g = generators.cycle(args.n if args.n is not None else 5)
    elif args.family == "petersen":
        g = generators.petersen()
    elif args.family == "hoffman-singleton":
        g = generators.hoffman_singleton()
    elif args.family == "robertson":
        g = generators.robertson()
    else:
        if args.n is None or args.d is None:
            raise BadInput("random-regular needs --n and --d")
        g = generators.random_regular_girth(
            generators.GenSpec(
                n=args.n, d=args.d, girth_min=args.girth_min, seed=args.seed
            )
        )
    if args.format == "dimacs":
        sys.stdout.write(write_dimacs(g))
    else:
        print(write_graph6(g))
    return EXIT_OK


def _cmd_info(args, g: Graph) -> int:
    d, gth = g.regular_degree(), girth(g)
    verts = [args.vertex] if args.vertex is not None else list(range(g.n))
    per_vertex = []
    for x in verts:
        vr = construct.vertex_census(g, x, d, gth)
        per_vertex.append({
            "vertex": x,
            "degree": g.degree(x),
            "c6_through": vr.c6_through,
            "c6_in_n2": vr.c6_in_n2,
            "closed_bunches": vr.closed_bunch_count,
        })
    doc = {
        "n": g.n,
        "m": g.m,
        "d": d,
        "girth": None if gth == float("inf") else int(gth),
        "per_vertex": per_vertex,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_hypcheck(args, g: Graph) -> int:
    report = construct.hypothesis_report(g)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _print_b_table(cert) -> None:
    print(f"strategy: {cert.strategy}  center: {cert.center}  k: {cert.k}")
    print("class  b-vertex")
    for cls in sorted(cert.b_vertices):
        print(f"{cls:>5}  {cert.b_vertices[cls]}")


def _cmd_color(args, g: Graph) -> int:
    strategy = None if args.strategy == "auto" else args.strategy
    # Every strategy returns a certificate it has verified itself.
    cert = construct.auto_color(g, strategy, args.vertex)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(write_certificate(cert))
        except OSError as e:
            raise CannotWriteOutput(str(e)) from e
    _print_b_table(cert)
    return EXIT_OK


def _cmd_verify(args, g: Graph) -> int:
    cert = read_certificate(_read_text(args.cert))
    res = verify_certificate(cert, g)
    if res:
        print("Accept")
        return EXIT_OK
    print(f"Reject: {res.reason}")
    return EXIT_REJECT


def _cmd_bchrom(args, g: Graph) -> int:
    lim = oracle.SearchLimits(
        max_nodes=args.node_budget, time_budget=args.time_budget
    )
    res = oracle.exact_b_chromatic(g, lim)
    if res.exact:
        print(res.value)
        return EXIT_OK
    print(f"{res.value} LowerBoundOnly")
    return EXIT_BUDGET


def _dump_counterexample(g: Graph | None, argv: list[str], e: ConstructionFailed) -> str:
    """Write the failing step, its log and the input graph to a new file in
    the working directory; an earlier dump is never overwritten."""
    doc = {
        "step": e.step,
        "log": list(e.log),
        "graph6": None if g is None else write_graph6(g),
        "argv": argv,
    }
    stem = "counterexample-candidate-" + datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    for suffix in itertools.count():
        path = f"{stem}.json" if suffix == 0 else f"{stem}-{suffix}.json"
        try:
            with open(path, "x", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except FileExistsError:
            continue
        return path


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls, and a build costs more than most commands on small
    graphs.  ``subcommands`` maps each command name to its own parser."""
    p = argparse.ArgumentParser(prog="bchrome")
    sub = p.add_subparsers(dest="command", required=True)
    p.subcommands = sub.choices

    g = sub.add_parser("gen", help="emit a graph from a named family")
    g.add_argument("--family", choices=_FAMILIES, required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--girth-min", type=int, default=5)
    g.add_argument("--format", choices=("g6", "dimacs"), default="g6")
    g.set_defaults(fn=_cmd_gen)

    i = sub.add_parser("info", help="structural census (JSON)")
    i.add_argument("graph")
    i.add_argument("--vertex", type=int)
    i.set_defaults(fn=_cmd_info)

    h = sub.add_parser("hypcheck", help="strategy applicability report (JSON)")
    h.add_argument("graph")
    h.set_defaults(fn=_cmd_hypcheck)

    c = sub.add_parser("color", help="construct a b-coloring certificate")
    c.add_argument("graph")
    c.add_argument(
        "--strategy",
        choices=("auto",) + construct.STRATEGIES,
        default="auto",
    )
    c.add_argument("--vertex", type=int)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_color)

    v = sub.add_parser("verify", help="check a certificate against a graph")
    v.add_argument("graph")
    v.add_argument("cert")
    v.set_defaults(fn=_cmd_verify)

    b = sub.add_parser("bchrom", help="oracle b-chromatic number")
    b.add_argument("graph")
    b.add_argument("--time-budget", type=float, default=60.0)
    b.add_argument("--node-budget", type=int, default=10_000_000)
    b.set_defaults(fn=_cmd_bchrom)
    return p


def _detach_stdout() -> None:
    """Point stdout's file descriptor at os.devnull, so that the flush at
    interpreter exit drops what is still buffered instead of failing (and
    printing a traceback) again.  An in-memory stdout is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one argparse pass: a known
    command's arguments go straight to its parser, which the top-level parse
    would call anyway, with the same output, errors and exit codes."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:  # no command, an unknown one, or a top-level option
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except SystemExit as e:  # usage error (2) or --help (0), already printed
        return e.code
    g = None
    try:
        if hasattr(args, "graph"):
            g = _load_graph(args.graph)
            if getattr(args, "vertex", None) is not None:
                g.check_vertex(args.vertex)
        code = args.fn(args, g)
        sys.stdout.flush()  # a failed write surfaces here, not at exit
        return code
    except BchromeError as e:
        if isinstance(e, ConstructionFailed):
            try:
                dumped = f"dump written to {_dump_counterexample(g, argv, e)}"
            except OSError as oe:
                dumped = f"dump not written: {oe}"
            print(f"construction failed at {e.step}; {dumped}", file=sys.stderr)
        else:
            print(f"{e.label}: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        # Reads and file writes raise BchromeErrors of their own, so this is
        # a write to stdout: a full disk, or a reader that closed the pipe.
        _detach_stdout()
        print(f"{CannotWriteOutput.label}: stdout: {e}", file=sys.stderr)
        return CannotWriteOutput.exit_code


if __name__ == "__main__":
    sys.exit(main())
