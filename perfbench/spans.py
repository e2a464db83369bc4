"""Layer spans for the traced run, recorded from outside the package.

`Tracer.install` replaces the functions named in `BOUNDARIES` on kmcheck's
module attributes with timing wrappers, and `uninstall` puts the originals
back.  Each call becomes one span (name, start, end, parent, check call,
counts); the counts are read off the call's arguments and return value.  A
boundary that no longer resolves is listed in `Tracer.missing`, and every
metric that depends on it is left out of `layer_metrics` rather than read
as zero.
"""
from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from types import FunctionType, ModuleType

# (module attribute the call goes through, span name = layer.function)
BOUNDARIES = (
    ("cli.parse_system", "dsl.parse_system"),
    ("cli.check_kmc_detailed", "checker.check_kmc_detailed"),
    ("dsl.local_type_to_machine", "model.local_type_to_machine"),
    ("dsl.check_local_type", "model.check_local_type"),
    ("model.check_local_type", "model.check_local_type"),
    ("dsl.validate_system", "model.validate_system"),
    ("checker.build_bounded_graph", "semantics.build_bounded_graph"),
    ("checker.check_exhaustive", "checker.check_exhaustive"),
    ("checker.check_safety", "checker.check_safety"),
    ("checker.extract_trace", "checker.extract_trace"),
)
# Spans and pass times count this process's CPU seconds.  The program is
# single-threaded, so on an idle host that equals wall time; unlike wall time
# it does not grow while a shared host's scheduler gives the CPU to others.
CLOCK = time.process_time
CLI_SPAN = "cli.main"  # opened by the benchmark around each `kmcheck check` call
SIZING_SPAN = "bench.sizing"  # measuring a graph's memory; not program work
_EXPLORE = "semantics.build_bounded_graph"
_EXH, _SAFE = "checker.check_exhaustive", "checker.check_safety"

# span name -> counts taken from (args, result)
COUNTERS = {
    "dsl.parse_system": lambda args, r: {"bytes": len(args[0].encode())},
    "model.local_type_to_machine": lambda args, r: {"states": len(r.states)},
    "semantics.build_bounded_graph": lambda args, r: {
        "configs": len(r.nodes), "edges": len(r.edges)},
    "checker.check_exhaustive": lambda args, r: {
        "obligations": len(r), "edges": len(args[1].edges)},
    "checker.check_safety": lambda args, r: {
        "violations": len(r), "edges": len(args[1].edges)},
    "checker.extract_trace": lambda args, r: {"steps": len(r)},
}


def deep_size(root, exclude=()) -> int:
    """Bytes held by `root` and everything it reaches, each object once,
    not counting `exclude`, classes, modules and functions."""
    seen = {id(x) for x in exclude}
    todo, total = [root], 0
    while todo:
        fresh = []
        for obj in todo:
            if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
                continue
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            fresh.append(obj)
        todo = gc.get_referents(*fresh)
    return total


class Tracer:
    """Spans kept in memory; `size_graphs` also records each explored graph's
    deep size under an extra `bench.sizing` span."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.size_graphs = False
        self.call = 0
        self._open: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    # --- recording -----------------------------------------------------------

    def begin(self, name: str) -> dict:
        span = {"name": name, "start": CLOCK(), "end": None,
                "parent": self._open[-1] if self._open else None,
                "call": self.call, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = CLOCK()
        self._open.pop()

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                try:
                    span["counts"] = count(args, result)
                except (AttributeError, TypeError, IndexError):
                    self._lost(f"{name} counts")
            if self.size_graphs and name == "semantics.build_bounded_graph":
                sizing = self.begin(SIZING_SPAN)
                span["counts"]["bytes"] = deep_size(
                    result, exclude=(getattr(result, "system", None),))
                self.end(sizing)
            return result

        traced.__wrapped__ = fn
        return traced

    def _lost(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        for target, name in BOUNDARIES:
            module_name, attr = target.split(".")
            try:
                module = importlib.import_module(f"kmcheck.{module_name}")
            except ImportError:
                self._lost(target)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self._lost(target)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def missing_spans(self) -> set[str]:
        """Span names whose figures cannot be trusted (a boundary or a count
        taken at it is missing)."""
        by_target = dict(BOUNDARIES)
        return {by_target.get(m, m.split(" ")[0]) for m in self.missing}

    def write(self, path, calibration_s: list[float]) -> None:
        """Every span as one JSON line, after a header line with the host's
        calibration timings."""
        with open(path, "w") as out:
            out.write(json.dumps({"calibration_s": calibration_s,
                                  "missing": self.missing}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def sizing_s(self, first: int = 0) -> float:
        return sum(s["end"] - s["start"] for s in self.spans[first:]
                   if s["name"] == SIZING_SPAN)


class Aggregate:
    """Self time, calls and summed counts per span name over `spans`, a run
    of consecutive entries of `Tracer.spans` starting at index `offset`."""

    def __init__(self, spans: list[dict], offset: int):
        child_time = [0.0] * len(spans)
        last_graph: dict[int, int] = {}
        for s in spans:
            if s["parent"] is not None and s["parent"] >= offset:
                child_time[s["parent"] - offset] += s["end"] - s["start"]
                if s["name"] == _EXPLORE:
                    last_graph[s["parent"]] = s["counts"].get("configs", 0)
        self._self: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._counts: dict[tuple[str, str], int] = {}
        for s, children in zip(spans, child_time):
            name = s["name"]
            self._self[name] = self._self.get(name, 0.0) + s["end"] - s["start"] - children
            self._calls[name] = self._calls.get(name, 0) + 1
            for key, value in s["counts"].items():
                self._counts[name, key] = self._counts.get((name, key), 0) + value
        # configurations in the graph that settled each check (its last one)
        self.settled = sum(last_graph.values())

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def count(self, name: str, key: str) -> int:
        return self._counts.get((name, key), 0)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# metric -> (unit, span names it needs, value from an Aggregate of one pass)
LAYER_METRICS = {
    "cli.self_s": ("s", (CLI_SPAN,), lambda a: a.self_s(CLI_SPAN)),
    "dsl.parse_s": ("s", ("dsl.parse_system",), lambda a: a.self_s("dsl.parse_system")),
    "dsl.bytes_per_s": ("1/s", ("dsl.parse_system",), lambda a: _ratio(
        a.count("dsl.parse_system", "bytes"), a.self_s("dsl.parse_system"))),
    "model.compile_s": ("s", ("model.local_type_to_machine",),
                        lambda a: a.self_s("model.local_type_to_machine")),
    "model.check_type_s": ("s", ("model.check_local_type",),
                           lambda a: a.self_s("model.check_local_type")),
    "model.check_type_calls": ("count", ("model.check_local_type",),
                               lambda a: a.calls("model.check_local_type")),
    "model.validate_s": ("s", ("model.validate_system",),
                         lambda a: a.self_s("model.validate_system")),
    "model.states": ("count", ("model.local_type_to_machine",),
                     lambda a: a.count("model.local_type_to_machine", "states")),
    "semantics.explore_s": ("s", (_EXPLORE,), lambda a: a.self_s(_EXPLORE)),
    "semantics.explore_calls": ("count", (_EXPLORE,), lambda a: a.calls(_EXPLORE)),
    "semantics.configs": ("count", (_EXPLORE,), lambda a: a.count(_EXPLORE, "configs")),
    "semantics.edges": ("count", (_EXPLORE,), lambda a: a.count(_EXPLORE, "edges")),
    "semantics.configs_per_s": ("1/s", (_EXPLORE,), lambda a: _ratio(
        a.count(_EXPLORE, "configs"), a.self_s(_EXPLORE))),
    "semantics.useful_ratio": ("ratio", (_EXPLORE, "checker.check_kmc_detailed"), lambda a: _ratio(
        a.settled, a.count(_EXPLORE, "configs"))),
    "checker.self_s": ("s", ("checker.check_kmc_detailed",),
                       lambda a: a.self_s("checker.check_kmc_detailed")),
    "checker.exhaustive_s": ("s", (_EXH,), lambda a: a.self_s(_EXH)),
    "checker.safety_s": ("s", (_SAFE,), lambda a: a.self_s(_SAFE)),
    "checker.edges_per_s": ("1/s", (_EXH, _SAFE), lambda a: _ratio(
        a.count(_EXH, "edges") + a.count(_SAFE, "edges"),
        a.self_s(_EXH) + a.self_s(_SAFE))),
    "checker.obligations": ("count", (_EXH,), lambda a: a.count(_EXH, "obligations")),
    "checker.violations": ("count", (_SAFE,), lambda a: a.count(_SAFE, "violations")),
    "checker.trace_s": ("s", ("checker.extract_trace",),
                        lambda a: a.self_s("checker.extract_trace")),
    "checker.trace_steps": ("count", ("checker.extract_trace",),
                            lambda a: a.count("checker.extract_trace", "steps")),
}


def layer_metrics(tracer: Tracer, first: int) -> dict[str, float]:
    """Every per-layer metric of the pass whose spans start at
    `tracer.spans[first]`, leaving out those that rest on a missing boundary."""
    agg = Aggregate(tracer.spans[first:], first)
    lost = tracer.missing_spans()
    return {name: fn(agg) for name, (_, needs, fn) in LAYER_METRICS.items()
            if not lost.intersection(needs)}


def bytes_per_config(tracer: Tracer) -> float | None:
    """Deep size of the sized graphs over their configurations, or None when
    the exploration boundary is missing."""
    if _EXPLORE in tracer.missing_spans():
        return None
    sized = [s["counts"] for s in tracer.spans
             if s["name"] == _EXPLORE and "bytes" in s["counts"]]
    return _ratio(sum(c["bytes"] for c in sized), sum(c.get("configs", 0) for c in sized))
