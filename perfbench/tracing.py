"""Span tracing of fanspec from outside the package.

A ``Tracer`` wraps the public functions of each layer and rebinds the names
that callers look up (``oracle`` and ``cli`` import most of them by name;
``StructuredGraph.to_graph`` and ``.degrees`` are methods), so the package
itself carries no tracing code.  Spans are kept in memory and written out
when the traced job ends; ``summarize`` turns them into per-layer metrics.

A span is ``(name, start, end, parent, value, failed)``.  The layer
is the part of the name before the first dot.  ``value`` is a count taken
where the work happens: power iterations for spectral spans, classes
produced for enumeration levels, classes examined for a brute-force report.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# The (module, attribute) bindings that callers look up, grouped by span name.
# Every binding of one function is rebound to the same wrapper.
TARGETS = {
    "canon.canonical_info": [("canon", "canonical_info"), ("oracle", "canonical_info")],
    "canon.canonical_form": [("canon", "canonical_form"), ("oracle", "canonical_form")],
    "oracle.brute": [("oracle", "brute_force_extremal"), ("cli", "brute_force_extremal")],
    "oracle.family": [("oracle", "family_search"), ("cli", "family_search")],
    "oracle.verify": [("oracle", "verify_main_theorem"), ("cli", "verify_main_theorem")],
    # the serial level-by-level enumeration that precedes the parallel scan;
    # the one private name wrapped, because no public function bounds it
    "oracle.prefix": [("oracle", "_level_up")],
    "patterns.fan": [
        ("patterns", "contains_fan"),
        ("oracle", "contains_fan"),
        ("cli", "contains_fan"),
    ],
    "patterns.packing": [
        ("oracle", "clique_packing_number"),
        ("oracle", "matching_number"),
    ],
    "spectral.radius": [
        ("spectral", "spectral_radius"),
        ("oracle", "spectral_radius"),
        ("cli", "spectral_radius"),
    ],
    "spectral.signless": [
        ("spectral", "signless_laplacian_spectrum"),
        ("cli", "signless_laplacian_spectrum"),
    ],
    "graphs.to_graph": [("graphs.StructuredGraph", "to_graph")],
    "graphs.degrees": [("graphs.StructuredGraph", "degrees")],
    "graphs.g6": [("oracle", "to_graph6"), ("oracle", "from_graph6")],
    "families.build": [
        ("families", "extremal_fan_graph"),
        ("families", "split_graph"),
        ("cli", "extremal_fan_graph"),
        ("cli", "split_graph"),
    ],
    "cli.main": [("cli", "main")],
}

LAYERS = ("canon", "oracle", "patterns", "spectral", "graphs", "families", "cli")


def _iterations(result) -> int:
    return result.iterations


def _count(result) -> int:
    return len(result)


def _examined(report) -> int:
    return report.graphs_examined


VALUE_OF = {
    "spectral.radius": _iterations,
    "spectral.signless": _iterations,
    "oracle.prefix": _count,
    "oracle.brute": _examined,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, value_of=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            value = 0
            failed = 0
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(out)
                return out
            except Exception as exc:
                failed = 1
                best = getattr(exc, "result", None)  # ConvergenceError
                if best is not None and value_of is _iterations:
                    value = best.iterations
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, value, failed)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target name to a traced wrapper (one per function)."""
        for name, bindings in TARGETS.items():
            wrappers: dict[int, object] = {}
            for where, attr in bindings:
                modname, _, clsname = where.partition(".")
                owner = importlib.import_module(f"fanspec.{modname}")
                if clsname:
                    owner = getattr(owner, clsname)
                fn = getattr(owner, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, name, VALUE_OF.get(name))
                setattr(owner, attr, wrappers[id(fn)])

    def write(self, path: str) -> None:
        lines = [
            f"{i}\t{s[3]}\t{s[0]}\t{s[1]!r}\t{s[2]!r}\t{s[4]}\t{s[5]}"
            for i, s in enumerate(self.spans)
            if s is not None
        ]
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tvalue\tfailed\n")
            fh.write("\n".join(lines))
            fh.write("\n")


def read_spans(path: str) -> list[tuple]:
    """Spans in id order, as ``Tracer.spans`` holds them."""
    out = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            i, parent, name, start, end, value, failed = line.rstrip("\n").split("\t")
            assert int(i) == len(out), "span file out of order"
            out.append((name, float(start), float(end), int(parent), int(value), int(failed)))
    return out


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from a span list.

    A layer's busy time is the summed duration of its outermost spans (spans
    whose parent is in another layer or absent); its self time is busy time
    minus the time its spans' children in other layers cover.  Calls count
    outermost spans, so ``canonical_form`` calling ``canonical_info`` is one
    labeling.  Per-name figures (``oracle.prefix``, ``patterns.fan``) count
    spans not nested in a span of the same name.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    values: dict[str, int] = defaultdict(int)
    failed: dict[str, int] = defaultdict(int)
    root_s = 0.0
    for i, (name, start, end, parent, value, fail) in enumerate(spans):
        layer = name.partition(".")[0]
        dur = end - start
        self_s[layer] += dur - child_time[i]
        values[name] += value
        failed[name] += fail
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name.partition(".")[0] != layer:
            busy[layer] += dur
            calls[layer] += 1
        if parent_name != name:
            busy[name] += dur
            calls[name] += 1
        if parent < 0:
            root_s += dur

    def per_call(total: float, count: int, scale: float) -> float:
        return scale * total / count if count else 0.0

    out = {
        "canon.calls": calls["canon"],
        "canon.busy_s": busy["canon"],
        "canon.self_s": self_s["canon"],
        "canon.us_per_call": per_call(busy["canon"], calls["canon"], 1e6),
        "oracle.accept_ratio": per_call(values["oracle.prefix"] + values["oracle.brute"], calls["canon"], 1.0),
        "oracle.self_s": self_s["oracle"],
        "oracle.prefix_s": busy["oracle.prefix"],
        "patterns.fan.calls": calls["patterns.fan"],
        "patterns.fan.busy_s": busy["patterns.fan"],
        "patterns.fan.ms_per_call": per_call(busy["patterns.fan"], calls["patterns.fan"], 1e3),
        "patterns.self_s": self_s["patterns"],
        "spectral.calls": calls["spectral"],
        "spectral.busy_s": busy["spectral"],
        "spectral.self_s": self_s["spectral"],
        "spectral.iterations": values["spectral.radius"] + values["spectral.signless"],
        "spectral.failed": failed["spectral.radius"] + failed["spectral.signless"],
        "graphs.to_graph.calls": calls["graphs.to_graph"],
        "graphs.to_graph.busy_s": busy["graphs.to_graph"],
        "graphs.degrees.busy_s": busy["graphs.degrees"],
        "graphs.self_s": self_s["graphs"],
        "families.build.busy_s": busy["families.build"],
        "cli.self_s": self_s["cli"],
    }
    out["trace.unaccounted_s"] = root_s - sum(self_s[layer] for layer in LAYERS)
    return out
