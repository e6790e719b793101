"""bchrome benchmark: seeded workloads run through the real CLI entry point.

Run from the repository root:

    python3 bench/run.py --workload hs-relabel --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each op is ``bchrome.cli.main(argv)`` called in this process with stdout and
stderr captured, so interpreter start-up stays out of the op timings.  The
load is one process, one thread, closed loop: the next op starts when the
previous one returns.  Set-up builds and serializes the inputs from the seed
(several times, for at least a second; the median is reported), then whole
passes over the workload's ops run until ``--seconds`` have gone by.  After
each pass every output is checked, certificates by the independent checker
in check.py too.  Times are calibrated to a reference host speed (speed.py).

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` first runs untraced passes for ``--seconds`` as the reference,
then traced passes (see tracing.py) for as long, and prints the per-layer
metrics; the traced outputs must hash the same as the reference passes.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller report (per-op digests, sample counts, pass times,
environment) is written under bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
# Set-up runs at least SETUP_MIN_REPS times and until SETUP_MIN_S seconds
# have gone by (at most SETUP_MAX_REPS), so a short set-up is a median of many.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 5, 100, 1.0


def parse_args(workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def run_all(args: argparse.Namespace, workloads: list[str]) -> int:
    """Every workload in its own child process, one after the other."""
    results = {}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads_found: str | None) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "BCHROME_THREADS": {"found": threads_found, "used": "unset"},
        "package": "bchrome is imported from src/ (as with PYTHONPATH=src), not installed",
        "load": "one process, one thread, closed loop; ops call bchrome.cli.main in-process",
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it (nearest
    rank), and that percentile; the median (p50) when there are too few
    samples for any percentile above it."""
    xs = sorted(samples)
    rank = len(xs) - 10
    if rank <= len(xs) / 2:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / len(xs)


class Runner:
    def __init__(self, cli, workloads, check, probe):
        self.cli, self.wl, self.check, self.probe = cli, workloads, check, probe
        self.timings: list[tuple[int, str, float, float, float]] = []  # pass, kind, t0, t1, raw s
        self.passes = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.certs_attempted = self.certs_accepted = 0
        self.certs_seen: list[tuple] = []

    def call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # a traceback is a wrong answer, not a crash of the bench
                rc = None
                traceback.print_exc()
        return self.wl.Output(rc, out.getvalue(), err.getvalue())

    def run_pass(self, ops, tracer=None) -> None:
        results = []
        for op in ops:
            if tracer is None:
                out, t0, t1, raw = self.probe.time(lambda: self.call(op.argv))
            else:
                with tracer.op_span(op.id):
                    out, t0, t1, raw = self.probe.time(lambda: self.call(op.argv))
            self.timings.append((self.passes, op.kind, t0, t1, raw))
            results.append((op, out))
        self.passes += 1
        for op, out in results:
            self.check_op(op, out)

    def samples(self, first_pass: int = 0) -> tuple[dict, dict, list, list]:
        """Calibrated and raw op times by kind, and calibrated and raw pass
        times (sums of op times), from pass ``first_pass`` on."""
        cal = {kind: [] for kind in self.wl.OP_KINDS}
        raw = {kind: [] for kind in self.wl.OP_KINDS}
        cal_pass = [0.0] * (self.passes - first_pass)
        raw_pass = [0.0] * (self.passes - first_pass)
        for p, kind, t0, t1, dt in self.timings:
            if p < first_pass:
                continue
            c = dt * self.probe.scale(t0, t1)
            cal[kind].append(c)
            raw[kind].append(dt)
            cal_pass[p - first_pass] += c
            raw_pass[p - first_pass] += dt
        return cal, raw, cal_pass, raw_pass

    def check_op(self, op, out) -> None:
        self.attempted += 1
        try:
            problem = op.check(out)
        except Exception as e:  # unparsable output
            problem = f"output not understood: {e!r}"
        cert_bytes = b""
        if op.cert is not None:
            path, inp, k = op.cert
            try:
                cert_bytes = Path(path).read_bytes()
            except OSError:
                problem = problem or f"no certificate at {path}"
            if op.kind == "verify":
                self.certs_attempted += 1
                if problem is None:
                    try:
                        doc = json.loads(cert_bytes)
                    except ValueError as e:
                        doc, problem = None, f"certificate is not JSON: {e}"
                    else:
                        problem = self.check.check_certificate(doc, inp.adj, inp.facts, k)
                    if problem is None:
                        self.certs_accepted += 1
                        if len(self.certs_seen) < 8:
                            self.certs_seen.append((doc, inp, k))
        digest = hashlib.sha256(f"{out.rc}\n{out.out}".encode() + cert_bytes).hexdigest()
        first = self.digests.setdefault(op.id, digest)
        if problem is None and digest != first:
            problem = "output differs from the first pass"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.id}: {problem}")

    def self_test(self) -> list[str]:
        """check.self_test on the first verified certificate that has a
        vertex free for the non-b-vertex mutation."""
        for doc, inp, k in self.certs_seen:
            found = self.check.self_test(doc, inp.adj, inp.facts, k)
            if found != ["no vertex is free to make a non-b-vertex claim"]:
                return found
        return ["no certificate could be used for the checker self-test"]


def main() -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8")) if SPEC_PATH.is_file() else None
    if spec is None or not (SRC / "bchrome" / "cli.py").is_file():
        print("bench: needs BENCHMARK.json and src/bchrome at the checkout root", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(names)
    if args.workload == "all":
        return run_all(args, names)
    if args.seconds < 1:
        print("bench: --seconds must be at least 1", file=sys.stderr)
        return 2

    threads_found = os.environ.pop("BCHROME_THREADS", None)
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import bchrome.cli as cli
    import_s = perf_counter() - t0
    if Path(cli.__file__).resolve().parent != SRC / "bchrome":
        print(f"bench: imported bchrome from {cli.__file__}, not from src/", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, spec, workdir, import_s, threads_found)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_for(seconds: int, runner: Runner, ops, tracer=None) -> None:
    """Whole passes until ``seconds`` have gone by; at least one."""
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.pass_no += 1
        runner.run_pass(ops, tracer)
        if perf_counter() - start >= seconds:
            return


def summary(cal: list[float], raw: list[float], unit: str = "s") -> dict:
    return {"value": statistics.median(cal), "unit": unit, "samples": len(cal),
            "raw": statistics.median(raw)}


def measure(args, spec, workdir: Path, import_s: float, threads_found: str | None) -> int:
    # Importable only once main() has put src/ on the path.
    import bchrome.cli as cli
    import check
    import speed
    import tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    with speed.SpeedProbe() as probe:
        setups = []  # (start, end, seconds) per set-up; only the last one's ops are kept
        start = perf_counter()
        while len(setups) < SETUP_MIN_REPS or (
                perf_counter() - start < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
            ops, *span = probe.time(lambda: build(args.seed, workdir))
            setups.append(span)
        runner = Runner(cli, workloads, check, probe)
        tracer = None
        if args.trace:
            run_for(args.seconds, runner, ops)
            reference = runner.passes
            tracer = tracing.Tracer()
            tracer.install()
        run_for(args.seconds, runner, ops, tracer)
    self_test = runner.self_test()

    detail: dict[str, dict] = {}
    if tracer is None:
        cal, raw, cal_pass, raw_pass = runner.samples()
        for kind in workloads.OP_KINDS:
            xs = cal[kind]
            detail[f"{kind}_s"] = summary(xs, raw[kind])
            value, pct = tail(xs)
            detail[f"{kind}_tail_s"] = {"value": value, "unit": "s", "percentile": pct,
                                        "samples": len(xs), "raw": tail(raw[kind])[0]}
        detail["pipeline_s"] = summary(cal_pass, raw_pass)
        detail["setup_s"] = summary([dt * probe.scale(t0, t1) for t0, t1, dt in setups],
                                    [dt for _, _, dt in setups])
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        detail["peak_rss_mb"] = {"value": rss_kb / 1024, "unit": "MB"}
        wanted = spec["end_to_end"]
    else:
        layers = tracing.per_layer_metrics(tracer.layer_totals(), tracer.pass_no)
        # Layer times are scaled by the run's kernel median; counts are not.
        for name in layers:
            if name.endswith("_per_s"):
                layers[name] /= probe.run_scale()
            elif name.endswith("_s"):
                layers[name] *= probe.run_scale()
        layers["cli.import_s"] = import_s * probe.run_scale()
        untraced = statistics.median(runner.samples()[2][:reference])
        traced = statistics.median(runner.samples(reference)[2])
        layers["trace.overhead_s"] = traced - untraced
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        detail = {name: {"value": layers[name], "unit": units.get(name, "")}
                  for name in sorted(set(layers) | set(units))}
        wanted = spec["per_layer"]

    accept_ratio = runner.certs_accepted / runner.certs_attempted if runner.certs_attempted else 0.0
    correct = runner.failed == 0 and accept_ratio == 1.0 and not self_test
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(ops), "passes": runner.passes,
        "speed": {"kernel_ref_s": speed.KERNEL_REF_S, "kernel_samples": len(probe.cost),
                  "kernel_median_s": statistics.median(probe.cost),
                  "kernel_min_s": min(probe.cost), "kernel_max_s": max(probe.cost)},
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "certificates": runner.certs_attempted, "accept_ratio": accept_ratio,
        "checker_self_test": self_test or "ok", "problems": runner.problems,
        "environment": environment(threads_found), "metrics": detail,
        "output_digest": hashlib.sha256(
            "".join(f"{k} {v}\n" for k, v in sorted(runner.digests.items())).encode()
        ).hexdigest(),
        "digests": runner.digests,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    for name in (m["name"] for m in wanted):
        m = detail[name]
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.1f} of {m['samples']} samples; raw {m['raw']:.6g} s)"
        elif "samples" in m:
            extra = f"  (median of {m['samples']}; raw {m['raw']:.6g} s)"
        print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    print(f"passes: {runner.passes}  ops: {runner.attempted}  failed: {runner.failed}"
          f"  fail_ratio: {report['fail_ratio']:.4g}  accept_ratio: {accept_ratio:.4g}"
          f" ({runner.certs_attempted} certificates)  checker self-test: {report['checker_self_test']}")
    for line in runner.problems:
        print(f"problem: {line}")
    print(f"output digest: {report['output_digest']}  report: {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": detail[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
