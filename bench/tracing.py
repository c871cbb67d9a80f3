"""Spans recorded from outside lpembed, by wrapping the functions its modules call.

Each public function is wrapped in the namespace of the module that *calls*
it (e.g. ``kernel_sphere_maps.build_sphere_map``), so the program's own global
lookups go through the wrapper and nothing under ``src/`` changes. Spans are
kept in memory, one record per call, and turned into per-layer metrics at the
end of a run. ``uninstall`` restores every original attribute, so an untraced
run measures unwrapped code.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _elems(args, kwargs):
    """Elementwise work of an all-pairs scan: n(n-1)/2 pairs times the row width."""
    rows = args[0] if args else kwargs["rows"]
    n, width = rows.shape
    return {"elems": n * (n - 1) // 2 * width}


def _sample_pairs(args, kwargs):
    return {"pairs": int(args[3] if len(args) > 3 else kwargs["pairs"])}


def _written_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, attributes read before the call, after it).
# The span name is the module that owns the function, so a function reached
# through several importing modules (validate, build_embedding) is one layer.
TARGETS = (
    ("lpembed.coarse_embedder", "build_embedding", "coarse_embedder.build_embedding", None, None),
    ("lpembed.coarse_embedder", "validate", "metric_spaces.validate", None, None),
    ("lpembed.coarse_embedder", "build_level_family", "kernel_sphere_maps.build_level_family", None, None),
    ("lpembed.coarse_embedder", "pairwise_power_sums_all", "lp_core.pairwise_power_sums_all", _elems, None),
    ("lpembed.kernel_sphere_maps", "calibrate_level", "kernel_sphere_maps.calibrate_level", None, None),
    ("lpembed.kernel_sphere_maps", "build_sphere_map", "kernel_sphere_maps.build_sphere_map", None, None),
    ("lpembed.kernel_sphere_maps", "mazur_map_rows", "mazur.mazur_map_rows", None, None),
    ("lpembed.kernel_sphere_maps", "pairwise_pnorm_all", "lp_core.pairwise_pnorm_all", _elems, None),
    ("lpembed.distortion_report", "verify_bounds", "distortion_report.verify_bounds", None, None),
    ("lpembed.distortion_report", "empirical_profile", "distortion_report.empirical_profile", None, None),
    ("lpembed.distortion_report", "pairwise_image_power_sums", "coarse_embedder.pairwise_image_power_sums", None, None),
    ("lpembed.metric_spaces", "validate", "metric_spaces.validate", None, None),
    ("lpembed.mazur", "sample_ratio_extremes", "mazur.sample_ratio_extremes", _sample_pairs, None),
    ("lpembed.cli", "generate", "metric_spaces.generate", None, None),
    ("lpembed.cli", "validate", "metric_spaces.validate", None, None),
    ("lpembed.cli", "save_space", "metric_spaces.save_space", None, _written_bytes),
    ("lpembed.cli", "load_space", "metric_spaces.load_space", None, None),
    ("lpembed.cli", "load_space_lenient", "metric_spaces.load_space", None, None),
    ("lpembed.cli", "build_embedding", "coarse_embedder.build_embedding", None, None),
    ("lpembed.cli", "save_embedding", "coarse_embedder.save_embedding", None, _written_bytes),
    ("lpembed.cli", "load_embedding", "coarse_embedder.load_embedding", None, None),
    ("lpembed.cli", "empirical_profile", "distortion_report.empirical_profile", None, None),
    ("lpembed.cli", "export", "distortion_report.export", None, None),
)

SPAN_KEYS = ("id", "parent", "name", "start", "end", "op", "error", "attrs")


class Span:
    """One timed call: [start, end] on the perf_counter clock, its parent span and op."""

    __slots__ = SPAN_KEYS

    def __init__(self, id, parent, name, start, end=None, op=None, error=None, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.op = op
        self.error = error
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in SPAN_KEYS}

    @classmethod
    def from_json(cls, payload: dict) -> "Span":
        if set(payload) != set(SPAN_KEYS):
            raise ValueError(f"span keys {sorted(payload)} != {sorted(SPAN_KEYS)}")
        return cls(**payload)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patches: list = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str, attrs=None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), op=self.op, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, error=None) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")

    def call(self, name, fn, args=(), kwargs=None, before=None, after=None):
        kwargs = kwargs or {}
        span = self.begin(name, before(args, kwargs) if before else None)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.end(span, type(exc).__name__)
            raise
        if after:
            span.attrs.update(after(args, kwargs))
        self.end(span)
        return result

    def adopt(self, payloads, parent: Span) -> None:
        """Append spans recorded in another process below `parent`, renumbered."""
        base = len(self.spans)
        for raw in payloads:
            span = Span.from_json(raw)
            span.id += base
            span.parent = parent.id if span.parent is None else span.parent + base
            span.op = parent.op
            self.spans.append(span)

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        # import every module first: one imported after a patch would bind the wrapper
        modules = [importlib.import_module(module_name) for module_name, *_ in TARGETS]
        for module, (_, attr, name, before, after) in zip(modules, TARGETS):
            original = getattr(module, attr)
            if hasattr(original, "bench_span"):
                raise RuntimeError(f"{module.__name__}.{attr} is already wrapped")
            setattr(module, attr, self._wrapper(name, original, before, after))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrapper(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        traced.bench_span = name
        return traced


def wrapped_targets() -> list:
    """(module.attribute) of every target that is currently a benchmark wrapper."""
    out = []
    for module_name, attr, *_ in TARGETS:
        if hasattr(getattr(importlib.import_module(module_name), attr), "bench_span"):
            out.append(f"{module_name}.{attr}")
    return out


def self_time(span: Span, children) -> float:
    """Span duration minus the part of its interval that its children cover."""
    covered = 0.0
    reach = span.start
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered
