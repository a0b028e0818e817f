"""Spans around the calls into each layer's public functions.

Tracing wraps module attributes at run time; the library itself is not
edited.  Every public function of a layer module is replaced by a wrapper
in each kmsteiner module that refers to it, so a call made by the cli or
by another layer (``designs.expand`` calling ``perm.orbit_of_subset``)
is recorded as a call into the callee's layer.  Spans stay in memory and
are written out once, when the run ends.

A span is ``[name, layer, start, end, parent, counters, error]``; parent
is the index of the enclosing span or -1.  Counters are read from the
call's arguments and result at the boundary, so a ratio such as
microseconds per solver node is measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager

LAYERS = ("perm", "orbitgen", "km", "symbreak", "xcc", "designs", "cli")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# counters recorded per call, keyed by traced function name
COUNTERS = {
    "orbitgen.good_k_orbit_reps": lambda res, a, kw: {"good_orbits": len(res.reps)},
    "km.build_km": lambda res, a, kw: {"entries": int(len(res.col_rows))},
    "symbreak.normalizer_classes": lambda res, a, kw: {"classes": res.n_classes},
    "symbreak.encode": lambda res, a, kw: {
        "secondary_entries": sum(len(sec) for _, sec in res.problem.options)
    },
    "xcc.solve": lambda res, a, kw: {"nodes": res.nodes, "solutions": res.solutions},
    "xcc.export_text": lambda res, a, kw: {"text_bytes": len(res)},
    "xcc.import_text": lambda res, a, kw: {"text_bytes": len(_first_arg(a, kw, "text"))},
    "designs.expand": lambda res, a, kw: {"designs": 1},
    "designs.classify": lambda res, a, kw: {
        "classified": len(_first_arg(a, kw, "designs")),
        "classes": len(res),
    },
}


class Tracer:
    """Records spans while ``on``; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []
        self.on = False
        self._stack: list = []
        self._patched: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"kmsteiner.{layer}")
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                f = getattr(mod, n)
                if inspect.isfunction(f) and f.__module__ == mod.__name__:
                    targets[id(f)] = (f, self._wrap(f"{layer}.{n}", layer, f))
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kmsteiner"]
        for mod in modules:
            for n, val in list(vars(mod).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, n, val))
                    setattr(mod, n, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, n, val = self._patched.pop()
            setattr(mod, n, val)

    def _wrap(self, name, layer, f):
        spans, stack, hook = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if not self.on:
                return f(*args, **kwargs)
            span = [name, layer, time.perf_counter(), None, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                res = f(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = hook(res, args, kwargs)
            return res

        return traced

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, layer "bench"."""
        span = [name, "bench", time.perf_counter(), None, self._stack[-1] if self._stack else -1, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "counters", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list:
    """Duration of each span minus the time its child spans cover.

    Calls are single-threaded, so the children of a span run one after
    another inside it and their durations add up without overlap.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_table(spans) -> dict:
    """Per layer: self seconds, number of calls, and summed counters."""
    table: dict = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s[1], {"self_s": 0.0, "calls": 0, "counters": {}})
        row["self_s"] += own
        row["calls"] += 1
        for key, val in (s[5] or {}).items():
            row["counters"][key] = row["counters"].get(key, 0) + val
    return table


def layer_metrics(spans) -> dict:
    """The per-layer metrics, each as (value, unit).

    A ``<layer>.s`` metric is the layer's self time; a metric named after
    a stage or a call is the inclusive time of those calls.  A ratio whose
    base is zero, such as time per canonization on a workload without any,
    reads 0.
    """
    table = layer_table(spans)

    def self_s(layer):
        return table.get(layer, {}).get("self_s", 0.0)

    def dur(*names):
        return sum(s[3] - s[2] for s in spans if s[0] in names)

    def count(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    canon = [s[3] - s[2] for s in spans if s[0] == "designs.canonical_form"]
    good = count("orbitgen.good_k_orbit_reps", "good_orbits")
    solve_s = dur("xcc.solve")
    nodes = count("xcc.solve", "nodes")
    solutions = count("xcc.solve", "solutions")
    designs = count("designs.expand", "designs")
    classified = count("designs.classify", "classified")
    stages = {
        f"cli.{stage}_s": (dur(f"cli.cmd_{stage}"), "s")
        for stage in ("orbits", "km", "encode", "solve", "classify")
    }
    return {
        "perm.s": (self_s("perm"), "s"),
        "orbitgen.s": (self_s("orbitgen"), "s"),
        "orbitgen.good_orbits": (good, "count"),
        "orbitgen.orbits_per_s": (ratio(good, dur("orbitgen.good_k_orbit_reps")), "1/s"),
        "km.s": (self_s("km"), "s"),
        "km.entries": (count("km.build_km", "entries"), "count"),
        "symbreak.classes_s": (dur("symbreak.normalizer_classes"), "s"),
        "symbreak.classes": (count("symbreak.normalizer_classes", "classes"), "count"),
        "symbreak.encode_s": (dur("symbreak.encode"), "s"),
        "symbreak.secondary_entries": (count("symbreak.encode", "secondary_entries"), "count"),
        "xcc.s": (solve_s, "s"),
        "xcc.nodes": (nodes, "count"),
        "xcc.us_per_node": (ratio(solve_s * 1e6, nodes), "us"),
        "xcc.solutions": (solutions, "count"),
        "xcc.solutions_per_node": (ratio(solutions, nodes), "ratio"),
        "xcc.text_s": (dur("xcc.export_text", "xcc.import_text"), "s"),
        "xcc.text_bytes": (
            count("xcc.export_text", "text_bytes") + count("xcc.import_text", "text_bytes"),
            "bytes",
        ),
        "designs.expand_s": (dur("designs.expand"), "s"),
        "designs.verify_s": (dur("designs.verify_steiner"), "s"),
        "designs.canon_s": (dur("designs.classify"), "s"),
        "designs.canon_p50_s": (statistics.median(canon) if canon else 0.0, "s"),
        "designs.canon_max_s": (max(canon, default=0.0), "s"),
        "designs.designs": (designs, "count"),
        "designs.classes_per_design": (
            ratio(count("designs.classify", "classes"), classified),
            "ratio",
        ),
        "designs.budget_hits": (
            sum(1 for s in spans if s[0] == "designs.canonical_form" and s[6] == "BudgetExceeded"),
            "count",
        ),
        **stages,
        "cli.self_s": (self_s("cli"), "s"),
    }
