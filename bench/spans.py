"""Spans around the benchmark's calls into each su2dh layer.

A span records its name ``<layer>.<function>``, start, end, parent span and
op id, plus optional work counts.  Spans stay in memory and are summarised
when the run ends.  With tracing off, ``Tracer.span`` hands back a shared
no-op context, so the timed loop runs the same code in both modes and the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("series", "model", "spaces", "residue", "fourier", "expsum", "extrapolation", "cli")

# per-layer metric -> (end-to-end metric it should move, workloads)
LAYER_TO_METRIC = {
    "series.bose_kernel_us": ("ops_per_s", ["residue-scan"]),
    "series.mul_us": ("ops_per_s", ["residue-scan"]),
    "series.reciprocal_us": ("ops_per_s", ["residue-scan"]),
    "residue.scan_us_per_point": ("ops_per_s", ["residue-scan"]),
    "residue.density_us": ("op_p50_ms / op_p90_ms", ["dual-path", "residue-scan"]),
    "residue.central_us": ("ops_per_s", ["residue-scan"]),
    "model.load_space_us": ("op_p50_ms / setup_s", ["dual-path", "all"]),
    "model.save_space_us": ("op_p50_ms", ["dual-path"]),
    "spaces.builtin_space_us": ("setup_s", ["all"]),
    "fourier.reconstruct_ms": ("ops_per_s / op_p90_ms", ["dual-path", "cli-mix"]),
    "fourier.coefficient_us": ("ops_per_s", ["dual-path"]),
    "fourier.quadrature_ms": ("op_p90_ms", ["residue-scan"]),
    "fourier.quadrature_evals": ("op_p90_ms", ["residue-scan"]),
    "fourier.quadrature_useful_frac": ("op_p90_ms", ["residue-scan"]),
    "expsum.extrapolated_ms": ("ops_per_s", ["lemma-oracle"]),
    "expsum.residue_us": ("ops_per_s", ["lemma-oracle"]),
    "extrapolation.extrapolate_us": ("none (negligible)", []),
    "cli.interpreter_s": ("op_p50_ms / setup_s", ["cli-mix"]),
    "cli.import_s": ("op_p50_ms / setup_s", ["cli-mix"]),
    "cli.main_ms": ("op_p50_ms", ["cli-mix"]),
    "cli.remainder_ms": ("op_p50_ms", ["cli-mix"]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "failed", "work", "own")

    def __init__(self, name, parent, op, work):
        self.name = name
        self.parent = parent
        self.op = op
        self.work = work
        self.failed = False
        self.start = self.end = self.own = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Active:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer.stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        self.span.failed = exc_type is not None
        self.tracer.stack.pop()
        return False


class _NoSpan:
    work: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None

    def span(self, name: str, **work):
        if not self.enabled:
            return _NO_SPAN
        parent = self.stack[-1] if self.stack else None
        return _Active(self, Span(name, parent, self.op, work))

    def set_self_times(self) -> None:
        """Each span's own time: its duration minus its direct children's."""
        for s in self.spans:
            s.own = s.duration
        for s in self.spans:
            if s.parent is not None:
                self.spans[s.parent].own -= s.duration


class LayerStats:
    """Aggregates of finished spans.  Spans with an op id come from the timed
    ops, spans without one from the probes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        tracer.set_self_times()
        self.self_all = defaultdict(float)
        self.self_ops = defaultdict(float)
        self.failed = defaultdict(int)
        self.by_name = defaultdict(list)
        for span in tracer.spans:
            self.self_all[span.layer] += span.own
            if span.op is not None:
                self.self_ops[span.layer] += span.own
            self.failed[span.layer] += span.failed
            self.by_name[span.name].append(span)

    def op_spans(self, name: str) -> list[Span]:
        return [s for s in self.by_name[name] if s.op is not None]

    def spans(self, name: str) -> list[Span]:
        """Op spans of ``name`` when the ops made any, else probe spans."""
        return self.op_spans(name) or self.by_name[name]

    def mean_duration(self, name: str, scale: float) -> float:
        spans = self.spans(name)
        return scale * sum(s.duration for s in spans) / len(spans)

    def mean_self(self, name: str, scale: float) -> float:
        spans = self.spans(name)
        return scale * sum(s.own for s in spans) / len(spans)

    def work(self, name: str, key: str) -> float:
        """Total of a work count over the op spans of ``name``."""
        return sum(s.work.get(key, 0) for s in self.op_spans(name))
