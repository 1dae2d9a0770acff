"""Per-stage spans for the benchmark's traced run.

While installed, a `Tracer` replaces each stage function of dad with a
wrapper in every dad namespace that holds a binding to it, including the names
`consistency` and `cli` import directly (`emit_dac`, `lift`, `parse_dac`,
`emit_compose`, `canonicalize`, ...), and `ArchModel.validate`. Each wrapped
call records a span (op id, span id, parent span, stage, start, end) in
memory. Nothing under `src/` changes, and uninstalling restores every binding.

Inside one `round_trip_check` the second `parse_compose` and `lower` calls
are the re-parse of the emitted descriptor; they are labelled `reparse` and
`relower`.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# Stage names, as BENCHMARK.json uses them; `cli` is the self time
# of `dad.cli.main`.
STAGES = (
    "parse_compose", "validate", "lower", "reparse", "relower", "serialize_compose", "dump_yaml",
    "model_validate", "canonicalize",
    "emit_dac", "emit_dot",
    "parse_dac", "lift", "emit_compose",
    "diff_models", "render_report",
    "cli",
)

# stage -> (defining module, attribute); reparse/relower are labels of parse_compose/lower
_TARGETS = {
    "parse_compose": ("dad.compose", "parse_compose"),
    "validate": ("dad.compose", "validate"),
    "lower": ("dad.compose", "lower"),
    "serialize_compose": ("dad.compose", "serialize_compose"),
    "dump_yaml": ("dad.compose", "dump_yaml"),
    "canonicalize": ("dad.model", "canonicalize"),
    "emit_dac": ("dad.dac_emit", "emit_dac"),
    "emit_dot": ("dad.dac_emit", "emit_dot"),
    "parse_dac": ("dad.dac_ingest", "parse_dac"),
    "lift": ("dad.dac_ingest", "lift"),
    "emit_compose": ("dad.dac_ingest", "emit_compose"),
    "diff_models": ("dad.consistency", "diff_models"),
    "render_report": ("dad.consistency", "render_report"),
    "cli": ("dad.cli", "main"),
}
_NAMESPACES = ("dad", "dad.compose", "dad.model", "dad.dac_emit", "dad.dac_ingest", "dad.consistency", "dad.cli")
_RELABEL = {"parse_compose": "reparse", "lower": "relower"}


# Size counters taken at a stage boundary from its arguments and result.
_COUNTERS = {
    "parse_compose": lambda a, k, r: {
        "bytes_in": len((a[0] if a else k["text"]).encode("utf-8")),
        "residue_paths": len(r.residue),
    },
    "lower": lambda a, k, r: {
        "nodes_out": len(r.services) + len(r.volumes) + len(r.networks),
        "edges_out": len(r.edges),
    },
    "diff_models": lambda a, k, r: {"entries_out": len(r)},
}


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Collects spans while installed; one op at a time, one thread.

    Create it after `dad` is imported and while no other wrapper is installed:
    the bindings to replace are found by identity at construction.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = {}
        # per op: services, start, wall, self seconds and calls per stage
        self.ops: list[tuple[int, float, float, dict[str, float], dict[str, int]]] = []
        self._op = -1
        self._stack: list[int] = []
        self._round_trip: dict[str, int] | None = None
        self._patches = self._find_patches()

    def _wrap(self, stage, fn):
        tracer = self
        counter = _COUNTERS.get(stage)

        def traced(*args, **kwargs):
            label = stage
            if tracer._round_trip is not None and stage in _RELABEL:
                seen = tracer._round_trip[stage]
                tracer._round_trip[stage] = seen + 1
                if seen:
                    label = _RELABEL[stage]
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (tracer._op, span_id, parent, label, start, end)
            if counter is not None and label == stage:
                for key, value in counter(args, kwargs, result).items():
                    name = f"{stage}.{key}"
                    tracer.counts[name] = tracer.counts.get(name, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def _round_trip_boundary(self, fn):
        tracer = self

        def round_trip(*args, **kwargs):
            outer = tracer._round_trip
            tracer._round_trip = {"parse_compose": 0, "lower": 0}
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._round_trip = outer

        round_trip.__wrapped__ = fn
        return round_trip

    def _find_patches(self) -> list[tuple[object, str, object, object]]:
        """(namespace, name, original, wrapper) for every binding of every stage.

        A stage whose function no longer exists stays unwrapped and reports
        0 calls, so refactoring dad does not break the traced run.
        """
        spaces = [space for space in map(_module, _NAMESPACES) if space is not None]
        replacements = []
        for stage, (module, attr) in _TARGETS.items():
            original = getattr(_module(module), attr, None)
            if original is not None:
                replacements.append((original, self._wrap(stage, original)))
        round_trip_check = getattr(_module("dad.consistency"), "round_trip_check", None)
        if round_trip_check is not None:
            replacements.append((round_trip_check, self._round_trip_boundary(round_trip_check)))
        patches = []
        for original, wrapper in replacements:
            for space in spaces:
                for name, value in vars(space).items():
                    if value is original:
                        patches.append((space, name, original, wrapper))
        arch_model = importlib.import_module("dad.model").ArchModel
        patches.append(
            (arch_model, "validate", arch_model.validate, self._wrap("model_validate", arch_model.validate))
        )
        return patches

    @contextmanager
    def installed(self):
        """Wrap every binding of every stage; restore them on exit."""
        for space, name, _, wrapper in self._patches:
            setattr(space, name, wrapper)
        try:
            yield self
        finally:
            for space, name, original, _ in self._patches:
                setattr(space, name, original)

    @contextmanager
    def op(self, services: int):
        """Attribute the spans recorded inside to one op of `services` services."""
        self._op = len(self.ops)
        first = len(self.spans)
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            child_time: dict[int, float] = {}
            for _, _, parent, _, s, e in self.spans[first:]:
                child_time[parent] = child_time.get(parent, 0.0) + (e - s)
            self_time: dict[str, float] = {}
            calls: dict[str, int] = {}
            for _, span_id, _, label, s, e in self.spans[first:]:
                self_time[label] = self_time.get(label, 0.0) + (e - s) - child_time.get(span_id, 0.0)
                calls[label] = calls.get(label, 0) + 1
            self.ops.append((services, start, wall, self_time, calls))
            self._op = -1

    def metrics(self, cycles: int, plain_wall: float, scale: Callable[[float], float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ops; counts are per cycle of the op design.

        `scale(t)` converts a time measured at moment `t` to nominal speed; it
        applies to self times, not to the ratios of times measured together.
        """
        n_ops = len(self.ops)
        traced_wall = sum(op[2] for op in self.ops)
        calls = {s: sum(op[4].get(s, 0) for op in self.ops) for s in STAGES}
        scaled = [(op[0], {k: v * scale(op[1]) for k, v in op[3].items()}) for op in self.ops]
        out: dict[str, tuple[float, str]] = {}
        for stage in STAGES:
            out[f"{stage}.calls"] = (calls[stage] / cycles, "count")
            out[f"{stage}.self_ms"] = (1000 * sum(t.get(stage, 0.0) for _, t in scaled) / n_ops, "ms")
            out[f"{stage}.growth"] = (_growth(scaled, stage), "ratio")
        for name, unit in (
            ("parse_compose.bytes_in", "B"),
            ("parse_compose.residue_paths", "count"),
            ("lower.nodes_out", "count"),
            ("lower.edges_out", "count"),
            ("diff_models.entries_out", "count"),
        ):
            out[name] = (self.counts.get(name, 0) / cycles, unit)
        compares = calls["diff_models"]
        out["canonicalize.calls_per_compare"] = (calls["canonicalize"] / compares if compares else 0.0, "ratio")
        out["validate.calls_per_op"] = (calls["validate"] / n_ops, "1/op")
        out["model_validate.calls_per_op"] = (calls["model_validate"] / n_ops, "1/op")
        out["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
        attributed = sum(sum(op[3].values()) for op in self.ops)
        out["trace.coverage"] = (attributed / traced_wall, "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (op, id, parent, stage, start/end in µs)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for op, span_id, parent, label, start, end in self.spans:
                fh.write(json.dumps([op, span_id, parent, label, round(start * 1e6), round(end * 1e6)]) + "\n")


def _growth(ops: list[tuple[int, dict[str, float]]], stage: str) -> float:
    """µs per service on the largest-size decile over that on the smallest.

    `ops` holds (services, self seconds per stage); only ops that called the
    stage count, and 0 means there were none.
    """
    sized = sorted((n, times[stage]) for n, times in ops if stage in times and n > 0)
    if not sized:
        return 0.0
    k = max(1, len(sized) // 10)

    def per_service(part):
        return sum(t for _, t in part) / sum(n for n, _ in part)

    low = per_service(sized[:k])
    return per_service(sized[-k:]) / low if low > 0 else 0.0
