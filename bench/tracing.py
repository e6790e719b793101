"""Span tracing around the package's layer functions, from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper at
every ``bchrome`` module that holds a reference to it (the defining module,
every module that imported it by name, and module-level dispatch tables),
and adds call counters to two hot methods.  Spans (name, start, end, parent,
op id, pass) are kept in memory and written out at the end.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# Functions wrapped with spans, by module.  A leading underscore is dropped
# from the span name: cli._load_graph is the span "cli.load_graph".
SPANNED = {
    "graph": ("girth", "count_c6_through_vertex", "sphere", "s2_degree",
              "count_c6_in_n2", "closed_bunches", "bunches"),
    "construct": ("hypothesis_report", "auto_color", "swap_repair", "order_two_bunch",
                  "check_bunch_matrix", "lemma_extension", "color_no_c6",
                  "color_bounded_c6", "color_two_bunch"),
    "transversal": ("find_transversal",),
    "coloring": ("verify_certificate", "is_proper", "greedy_complete"),
    "formats": ("parse_graph6", "read_certificate", "write_certificate"),
    "oracle": ("exact_b_chromatic", "b_coloring_exists"),
    "cli": ("_load_graph",),
}

# Methods too hot for a span; only their calls are counted.
COUNTED = {
    ("coloring", "PartialColoring", "swap"): "construct.swap_repair.swaps",
    ("oracle", "_Budget", "tick"): "oracle.nodes",
}


class Tracer:
    def __init__(self):
        # [name, parent index, start, end, op id, pass]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self.pass_no = 0

    def _begin(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0,
               self.op, self.pass_no]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _end(self, rec: list) -> None:
        rec[3] = perf_counter()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: str):
        self.op = op_id
        rec = self._begin("op")
        try:
            yield
        finally:
            self._end(rec)
            self.op = None

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if after is not None:
                after(args, result)
            return result

        return traced

    # Counters that need a look at a call's arguments or result.
    def _after_construct_hypothesis_report(self, args, report) -> None:
        if any(self.spans[i][0] == "construct.auto_color" for i in self.stack):
            self.counts["census_vertices_auto"] += len(report.per_vertex)

    def _after_transversal_find_transversal(self, args, res) -> None:
        if not res.found:
            self.counts["transversal.hall_failures"] += 1

    def _after_formats_parse_graph6(self, args, g) -> None:
        self.counts["parse_graph6_bytes"] += len(args[0])

    def install(self) -> None:
        """Wrap every SPANNED function wherever a bchrome module refers to it."""
        wrapper_of: dict[int, object] = {}
        for mod_name, attrs in SPANNED.items():
            home = importlib.import_module(f"bchrome.{mod_name}")
            for attr in attrs:
                fn = getattr(home, attr)
                wrapper_of[id(fn)] = self._wrap(f"{mod_name}.{attr.lstrip('_')}", fn)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bchrome" or name.startswith("bchrome.")]
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if id(val) in wrapper_of:
                    setattr(mod, key, wrapper_of[id(val)])
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if id(v2) in wrapper_of:
                            val[k2] = wrapper_of[id(v2)]
        for (mod_name, cls_name, attr), counter in COUNTED.items():
            cls = getattr(importlib.import_module(f"bchrome.{mod_name}"), cls_name)
            setattr(cls, attr, self._counted(counter, getattr(cls, attr)))

    def _counted(self, counter: str, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_totals(self) -> dict[str, float]:
        """Calls, self time and inclusive time per span name, summed over
        all spans, plus the raw counters."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, op, pass_no) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "op": op,
                                     "pass": pass_no, "start": start, "end": end}) + "\n")


def per_layer_metrics(totals: dict[str, float], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass from Tracer.layer_totals; a layer
    that never ran reads 0."""
    t = defaultdict(float, totals)
    out = defaultdict(float, {key: val / passes for key, val in t.items()})
    auto_calls = t["construct.auto_color.calls"]
    parse_s = t["formats.parse_graph6.self_s"]
    oracle_s = t["oracle.b_coloring_exists.total_s"]
    out["construct.census_per_cert"] = t["census_vertices_auto"] / auto_calls if auto_calls else 0.0
    out["formats.parse_graph6.mb_per_s"] = t["parse_graph6_bytes"] / 1e6 / parse_s if parse_s else 0.0
    out["oracle.nodes_per_s"] = t["oracle.nodes"] / oracle_s if oracle_s else 0.0
    return out
