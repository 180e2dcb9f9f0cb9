"""Benchmark of the su2dh package: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload residue-scan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays the same
ops with spans around every call into su2dh and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, op counts, trace report) is written to ``bench/out/``.

Only the benchmark's own processes are timed, with ``time.perf_counter``.
There is no system-wide tracing, no hardware performance counters and no
cache dropping.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # pin BLAS and OpenMP before numpy loads

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 3
LIMITS = (
    "only the benchmark's own processes are timed (time.perf_counter); "
    "no system-wide tracing, no perf counters, no cache dropping"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
        "threads": "BLAS/OpenMP pinned to 1 in the benchmark and its children",
        "limits": LIMITS,
        "loop": "closed loop, 1 client: 1 process, 1 thread, at most 1 child at a time",
    }


def time_setup(spec: dict) -> float:
    """Spawn-to-ready time of a fresh process running ``setup_probe.prepare``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
    )
    proc.stdin.write(json.dumps(spec))
    proc.stdin.close()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    return elapsed


class Phase:
    """One pass of the closed loop over the op pool."""

    def __init__(self, workload, tracer, seconds=None, count=None, min_ops=1):
        self.latencies: list[float] = []
        self.gate_s = 0.0  # time spent in the correctness gate, kept out of ops_per_s
        self.failed = 0
        self.raised = 0
        self.errors: list[str] = []
        pool = workload.pool
        start = time.perf_counter()
        i = 0
        while True:
            if count is not None:
                if i >= count:
                    break
            else:
                elapsed = time.perf_counter() - start
                if elapsed >= seconds and (i >= min_ops or elapsed >= 3 * seconds):
                    break
            op = pool[i % len(pool)]
            tracer.op = i
            t0 = time.perf_counter()
            try:
                output = workload.run(op, tracer)
            except Exception as exc:  # an op that raises is a failed op
                output = exc
            t1 = time.perf_counter()
            tracer.op = None
            ok = False
            if isinstance(output, Exception):
                self.raised += 1
                self._note(op, output)
            else:
                try:
                    ok = workload.check(op, output)
                except Exception as exc:  # malformed output fails the gate
                    self._note(op, exc)
                if not ok:
                    self._note(op, "output failed the correctness gate")
                self.gate_s += time.perf_counter() - t1
            self.latencies.append(t1 - t0)
            self.failed += not ok
            i += 1
        self.wall = time.perf_counter() - start

    def _note(self, op, error) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{op.get('kind', 'op')}: {error!r}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.raised) / (self.wall - self.gate_s)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100)[q - 1]


def self_check(workload) -> bool:
    """On the first op of each form, the gate passes the output and rejects
    it against a corrupted reference."""
    from spans import Tracer
    from workloads import op_form

    firsts = {}
    for op in workload.pool:
        firsts.setdefault(op_form(op), op)
    for op in firsts.values():
        try:
            output = workload.run(op, Tracer(False))
            passes = workload.check(op, output)
        except Exception:  # the timed loop records the error itself
            return False
        workload.gate.skew = 1000.0
        try:
            rejects = not workload.check(op, output)
        finally:
            workload.gate.skew = 0.0
        if not (passes and rejects):
            return False
    return True


def latency_by_form(workload, phase: Phase) -> dict:
    """Median latency and count of each op form in the phase."""
    from workloads import op_form

    by_form = {}
    for i, latency in enumerate(phase.latencies):
        by_form.setdefault(op_form(workload.pool[i % len(workload.pool)]), []).append(latency)
    return {k: {"ops": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(by_form.items())}


def end_to_end(workload, phase: Phase, setup_times: list[float]) -> dict:
    import resource

    if workload.name == "cli-mix":
        rss_kib = workload.max_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (phase.ops_per_s, "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(phase.latencies), "ms"),
        "op_p90_ms": (1e3 * percentile(phase.latencies, 90), "ms"),
        "failed_frac": (phase.failed / phase.attempted, "ratio"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "su2dh" / "__init__.py").is_file():
        print(f"error: su2dh sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from layers import layer_metrics, run_probes
    from setup_probe import prepare
    from spans import LAYER_TO_METRIC, LayerStats, Tracer
    from workloads import WORKLOADS, op_form

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    env_record = environment()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR, child_env(), ROOT)
    spec = workload.spec()
    setup_times = [time_setup(spec) for _ in range(SETUP_REPEATS)]

    spaces = prepare(spec)
    import su2dh

    workload.build(su2dh, spaces)
    gate_ok = self_check(workload)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_record, "gate_self_check": gate_ok,
              "setup_times_s": setup_times, "pool_ops": len(workload.pool),
              "self_checked_forms": sorted({op_form(op) for op in workload.pool})}
    if args.trace == 0:
        phase = Phase(workload, Tracer(False), seconds=args.seconds, min_ops=MIN_OPS)
        metrics = end_to_end(workload, phase, setup_times)
        attempted, failed = phase.attempted, phase.failed
        errors = phase.errors
        record["gate_share"] = phase.gate_s / phase.wall
        record["latency_ms_by_form"] = latency_by_form(workload, phase)
        shown = metrics
        metrics = {k: v for k, v in metrics.items() if k != "failed_frac"}
    else:
        plain = Phase(workload, Tracer(False), seconds=args.seconds / 2)
        tracer = Tracer(True)
        traced = Phase(workload, tracer, count=plain.attempted)
        extra = run_probes(workload, tracer, su2dh, traced)
        stats = LayerStats(tracer)
        metrics, report = layer_metrics(workload, stats, plain, traced, extra)
        report["layer_to_metric"] = LAYER_TO_METRIC
        record["trace_report"] = report
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        errors = plain.errors + traced.errors
        shown = metrics

    correct = gate_ok and failed == 0
    record.update(attempted=attempted, failed=failed, errors=errors,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in shown.items()})
    name = f"{'trace' if args.trace else 'result'}-{workload.name}-{args.seed}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}  gate self-check "
          f"{'rejects a corrupted reference' if gate_ok else 'FAILED'}")
    if args.trace == 0:
        print(f"  gate share of wall time {record['gate_share']:.4f} (kept out of ops_per_s)")
    for key, (value, unit) in shown.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    if args.trace:
        print(f"  layer self time and share of op latency (coverage "
              f"{report['coverage']:.3f}, remainder {report['unattributed_s']:.4f} s):")
        for layer, entry in report["layers"].items():
            print(f"    {layer:14s} {entry['self_s']:10.4f} s  {entry['share']:7.3f}")
    for error in errors:
        print(f"  error: {error}")
    print(f"  env {json.dumps(env_record)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
