"""Workload set-up: import su2dh, build or load the spaces, warm up.

``prepare`` is what a fresh process pays before a workload's first op.  The
benchmark calls it in its own process and also runs this file as a fresh
child process (spec as JSON on stdin) to time that cost, which is why it
imports nothing beyond the standard library and su2dh.  The child prints
``ready`` once set-up is done; the parent times spawn to ``ready``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def prepare(spec: dict) -> dict:
    import su2dh

    spaces = {name: su2dh.builtin_space(name) for name in spec.get("builtins", [])}
    for name, text in spec.get("documents", {}).items():
        spaces[name] = su2dh.load_space(text)
    for name, path in spec.get("space_files", {}).items():
        with open(path, encoding="utf-8") as handle:
            spaces[name] = su2dh.load_space(handle.read())
    _WARMUPS[spec["workload"]](su2dh, spaces, spec["warmup"])
    return spaces


def _warm_residue_scan(su2dh, spaces, w):
    space = spaces[w["space"]]
    su2dh.scan(space, [w["t"]], fail_fast=True)
    left = su2dh.EvalOptions(wall_policy=su2dh.WallPolicy.LEFT_LIMIT)
    su2dh.density(space, w["wall"], left)
    su2dh.central_density(space, su2dh.CentralElement.IDENTITY)
    quad_space = spaces[w["quad_space"]]
    su2dh.coefficient_quadrature(lambda t: su2dh.density(quad_space, t).total, 0)


def _warm_dual_path(su2dh, spaces, w):
    space = su2dh.load_space(su2dh.save_space(spaces[w["space"]]))
    su2dh.density(space, w["t"])
    su2dh.reconstruct_density(space, w["t"])
    su2dh.fourier_coefficient(space, 0)


def _warm_lemma_oracle(su2dh, spaces, w):
    f = su2dh.RationalPoleFunction({int(k): complex(*c) for k, c in w["coeffs"].items()})
    su2dh.exp_sum_residue(f, w["gamma"])
    su2dh.exp_sum_extrapolated(f, w["gamma"], M=100_000, damping_r=0.9999)


def _warm_cli_mix(su2dh, spaces, w):
    from su2dh import cli

    for argv in w["argv"]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


_WARMUPS = {
    "residue-scan": _warm_residue_scan,
    "dual-path": _warm_dual_path,
    "lemma-oracle": _warm_lemma_oracle,
    "cli-mix": _warm_cli_mix,
}


if __name__ == "__main__":
    prepare(json.load(sys.stdin))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
