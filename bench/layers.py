"""Layer probes and per-layer metrics of a traced run.

The timed ops reach some layers only through other layers (``series`` runs
inside ``residue`` and ``expsum``) and some not at all, so a traced run ends
with short probes that call every layer's public functions directly, on the
workload's own spaces and series windows.  A per-call metric is taken from
the op spans when the ops made that call, and from the probe spans otherwise.
Counts and shares cover the op spans only; ``<layer>.self_s`` covers the
whole traced run, probes included.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import sys

from spans import LAYERS
from workloads import quadrature, run_child

PROBE_REPEATS = 5
SERIES_REPEATS = 20
CHILD_REPEATS = 5
CLI_PROBE_ARGV = ["eval", "--builtin", "s4", "--t", "0.3"]


def _child_seconds(tr, name: str, argv: list[str], env, cwd) -> float:
    with tr.span(name) as span:
        code, _, err, _ = run_child(argv, env, cwd)
    if code != 0:
        raise RuntimeError(f"probe {argv!r} failed: {err.strip()}")
    return span.duration


def _cli_main(tr, cli, argv: list[str]) -> float:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tr.span("cli.main") as span:
            cli.main(argv)
    return span.duration


def run_probes(workload, tr, su2dh, traced) -> dict:
    from su2dh import cli, extrapolation, series

    tr.op = None
    spaces = workload.probe_spaces()
    for _ in range(PROBE_REPEATS):
        for selector in getattr(workload, "builtins", ["s4", "product:5"]):
            with tr.span("spaces.builtin_space"):
                su2dh.builtin_space(selector)
        for space in spaces:
            with tr.span("model.save_space"):
                text = su2dh.save_space(space)
            with tr.span("model.load_space"):
                su2dh.load_space(text)

    for high in workload.series_windows():
        a = series.exp_linear(1j * math.pi * 0.3, high)
        b = series.sin_linear(math.pi * 0.4, high)
        d = series.add(series.exp_linear(2j * math.pi, high + 2), series.monomial(-1.0, 0))
        for _ in range(SERIES_REPEATS):
            with tr.span("series.bose_kernel"):
                series.bose_kernel(high)
            with tr.span("series.mul"):
                series.mul(a, b)
            with tr.span("series.reciprocal"):
                series.reciprocal(d)

    space = spaces[0]
    walls = [float(c.mu) for c in space.components]
    grid = [t for t in (0.0125 + i / 16 for i in range(16))
            if all(abs(t - w) > 1e-3 for w in walls)]
    for _ in range(PROBE_REPEATS):
        with tr.span("residue.density", points=1):
            su2dh.density(space, grid[3])
        with tr.span("residue.central_density", points=1):
            su2dh.central_density(space, su2dh.CentralElement.IDENTITY)
        with tr.span("fourier.fourier_coefficient"):
            su2dh.fourier_coefficient(space, 3)
    with tr.span("residue.scan", points=len(grid)):
        su2dh.scan(space, grid)
    for t in grid[:2]:
        with tr.span("fourier.reconstruct_density"):
            su2dh.reconstruct_density(space, t)
    quadrature(su2dh, tr, su2dh.builtin_space("product:1"), 0)

    f = su2dh.RationalPoleFunction({2: 1.0, 3: 0.5j})
    for _ in range(PROBE_REPEATS):
        with tr.span("expsum.exp_sum_residue"):
            su2dh.exp_sum_residue(f, 1.3)
    with tr.span("expsum.exp_sum_extrapolated"):
        su2dh.exp_sum_extrapolated(f, 1.3)
    ladder = [(1e-4 * 2**j, complex(1.0 / (1 + j), 0.1 * j)) for j in range(3)]
    for _ in range(200):
        with tr.span("extrapolation.extrapolate_to_zero"):
            extrapolation.extrapolate_to_zero(ladder)

    # The parts of one CLI call are probed in turns, back to back, so that a
    # turn's remainder is not skewed by the machine's speed drifting between
    # probes.  cli-mix takes its argv from its own ops.
    env, cwd = workload.env, workload.cwd
    interpreter, imported, remainder, share = [], [], [], []
    for k in range(CHILD_REPEATS):
        argv = workload.pool[k]["argv"] if workload.name == "cli-mix" else CLI_PROBE_ARGV
        interpreter.append(
            _child_seconds(tr, "cli.interpreter", [sys.executable, "-c", "pass"], env, cwd))
        imported.append(
            _child_seconds(tr, "cli.import", [sys.executable, "-c", "import su2dh"], env, cwd))
        call = _child_seconds(tr, "cli.subprocess", [sys.executable, "-m", "su2dh", *argv],
                              env, cwd)
        remainder.append(call - imported[-1] - _cli_main(tr, cli, argv))
        share.append(imported[-1] / call)
    if workload.name == "cli-mix":
        for i in range(traced.attempted):
            _cli_main(tr, cli, workload.pool[i % len(workload.pool)]["argv"])
    return {"interpreter_s": statistics.median(interpreter),
            "import_s": statistics.median(imported) - statistics.median(interpreter),
            "remainder_s": statistics.median(remainder),
            "startup_share": statistics.median(share)}


def _scan_by_space(stats) -> dict:
    totals = {}
    for span in stats.op_spans("residue.scan"):
        seconds, points = totals.get(span.work["space"], (0.0, 0))
        totals[span.work["space"]] = (seconds + span.duration, points + span.work["points"])
    return {name: 1e6 * seconds / points for name, (seconds, points) in sorted(totals.items())}


def layer_metrics(workload, stats, plain, traced, extra) -> tuple[dict, dict]:
    op_latency = sum(traced.latencies)
    m = {}

    def per_call(name, metric, unit, scale):
        m[metric] = (stats.mean_duration(name, scale), unit)

    per_call("series.bose_kernel", "series.bose_kernel_us", "us", 1e6)
    per_call("series.mul", "series.mul_us", "us", 1e6)
    per_call("series.reciprocal", "series.reciprocal_us", "us", 1e6)
    per_call("model.load_space", "model.load_space_us", "us", 1e6)
    per_call("model.save_space", "model.save_space_us", "us", 1e6)
    per_call("spaces.builtin_space", "spaces.builtin_space_us", "us", 1e6)

    scans = stats.spans("residue.scan")
    m["residue.scan_us_per_point"] = (
        1e6 * sum(s.duration for s in scans) / sum(s.work["points"] for s in scans), "us")
    per_call("residue.density", "residue.density_us", "us", 1e6)
    per_call("residue.central_density", "residue.central_us", "us", 1e6)
    points = sum(stats.work(n, "points") for n in
                 ("residue.scan", "residue.density", "residue.central_density"))
    m["residue.points"] = (points, "count")

    per_call("fourier.reconstruct_density", "fourier.reconstruct_ms", "ms", 1e3)
    per_call("fourier.fourier_coefficient", "fourier.coefficient_us", "us", 1e6)
    m["fourier.quadrature_ms"] = (stats.mean_self("fourier.coefficient_quadrature", 1e3), "ms")
    quadratures = stats.spans("fourier.coefficient_quadrature")
    evals = sum(s.work["evals"] for s in quadratures)
    m["fourier.quadrature_evals"] = (evals / len(quadratures), "count")
    m["fourier.quadrature_useful_frac"] = (
        sum(s.work["useful"] for s in quadratures) / evals, "ratio")

    per_call("expsum.exp_sum_extrapolated", "expsum.extrapolated_ms", "ms", 1e3)
    per_call("expsum.exp_sum_residue", "expsum.residue_us", "us", 1e6)
    per_call("extrapolation.extrapolate_to_zero", "extrapolation.extrapolate_us", "us", 1e6)

    per_call("cli.main", "cli.main_ms", "ms", 1e3)
    m["cli.interpreter_s"] = (extra["interpreter_s"], "s")
    m["cli.import_s"] = (extra["import_s"], "s")
    m["cli.startup_share"] = (extra["startup_share"], "ratio")
    m["cli.invocations"] = (len(stats.op_spans("cli.subprocess")), "count")
    m["cli.remainder_ms"] = (1e3 * extra["remainder_s"], "ms")

    layers = {}
    for layer in LAYERS:
        layers[layer] = {
            "self_s": stats.self_all[layer],
            "op_self_s": stats.self_ops[layer],
            "share": stats.self_ops[layer] / op_latency,
        }
    for layer in ("residue", "fourier", "expsum"):
        m[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        m[f"{layer}.share"] = (layers[layer]["share"], "ratio")
    for layer in LAYERS:
        m[f"{layer}.failed"] = (stats.failed[layer], "count")
    m["trace.overhead_frac"] = (1.0 - traced.ops_per_s / plain.ops_per_s, "ratio")

    attributed = sum(entry["op_self_s"] for entry in layers.values())
    report = {
        "ops_untraced": plain.attempted,
        "ops_traced": traced.attempted,
        "op_latency_s": op_latency,
        "layers": layers,
        "coverage": attributed / op_latency,
        "unattributed_s": op_latency - attributed,
        "cli_remainder_ms": m["cli.remainder_ms"][0],
        "spans": len(stats.tracer.spans),
        "scan_us_per_point_by_space": _scan_by_space(stats),
    }
    return dict(sorted(m.items())), report
