"""Exception hierarchy shared by all bchrome modules.

Every error carries the CLI exit code it ends in, from one base per code:

- 2 ``PreconditionViolated``: the input lies outside a strategy's hypotheses;
- 3 ``BadInput``: malformed, out-of-range or unreadable input (also a
  ``ValueError``), or an output file that cannot be written;
- 4 ``GenerationFailed``: the random generator ran out of attempts;
- 5 ``ConstructionFailed``: a step the theorems guarantee found nothing, so
  the input is a counterexample candidate (or the code has a bug).

``cli.main`` prints ``f"{e.label}: {e}"`` (for a construction failure, the
step and the path of its dump instead) and exits with ``e.exit_code``.
"""


class BchromeError(Exception):
    """Base class for all library errors.  Every concrete error derives from
    one of the four bases below, which set ``exit_code`` and ``label``."""

    exit_code: int
    label: str


class PreconditionViolated(BchromeError):
    exit_code = 2
    label = "not applicable"


class NoStrategyApplies(PreconditionViolated):
    def __init__(self, reasons: dict):
        super().__init__("no coloring strategy applies to any vertex")
        self.reasons = reasons


class BadInput(BchromeError, ValueError):
    exit_code = 3
    label = "bad input"


class CannotReadInput(BadInput):
    """An input file or stdin could not be read (an ``OSError``)."""

    label = "cannot read input"


class CannotWriteOutput(BadInput):
    """An output file (``color --out``) could not be written.  ``cli.main``
    reports a failed write to stdout under the same label and code."""

    label = "cannot write output"


class MalformedGraph6(BadInput):
    label = "parse error"

    def __init__(self, position: int, message: str = "bad byte"):
        super().__init__(f"malformed graph6 at position {position}: {message}")
        self.position = position


class MalformedDimacs(BadInput):
    label = "parse error"

    def __init__(self, line: int, message: str = "bad line"):
        super().__init__(f"malformed DIMACS at line {line}: {message}")
        self.line = line


class SchemaViolation(BadInput):
    label = "parse error"

    def __init__(self, path: str, message: str = "invalid"):
        super().__init__(f"certificate schema violation at {path}: {message}")
        self.path = path


class GenerationFailed(BchromeError):
    exit_code = 4
    label = "generation failed"

    def __init__(self, attempts: int):
        super().__init__(f"generation failed after {attempts} attempts")
        self.attempts = attempts


class ConstructionFailed(BchromeError):
    """A step of a construction could not find what the theorem guarantees.

    Such inputs are counterexample candidates and are surfaced with the step
    name and a log, never patched silently.
    """

    exit_code = 5
    label = "construction failed"

    def __init__(self, step: str, log: list[str] | None = None):
        super().__init__(f"construction failed at step: {step}")
        self.step = step
        self.log = log or []


class HallFailure(ConstructionFailed):
    """A bunch coloring step hit a Hall violator.

    Carries the violating index set; under the theorems' hypotheses this
    cannot happen, so seeing one means either the input violates a
    hypothesis or there is an ordering bug upstream.
    """

    def __init__(self, violator: frozenset, step: str):
        super().__init__(f"{step}: Hall condition violated by index set {sorted(violator)}")
        self.violator = violator


class CompletionFailedError(ConstructionFailed):
    def __init__(self, vertex: int):
        super().__init__(f"greedy-completion: no color available for vertex {vertex}")
        self.vertex = vertex
