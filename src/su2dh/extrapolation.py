"""Polynomial extrapolation of sampled limits (Richardson/Neville style),
and the Abel damping ladder that feeds it."""

from __future__ import annotations

from typing import Sequence


def extrapolate_to_zero(
    samples: Sequence[tuple[float, complex]],
) -> tuple[complex, float]:
    """Extrapolate ``f(h) -> f(0)`` from samples ``(h, f(h))`` with distinct h > 0.

    Uses the Neville tableau evaluated at h = 0, which reduces to classical
    Richardson extrapolation when the nodes form a geometric ladder.  Returns
    the extrapolated value together with the magnitude of the last tableau
    correction, a crude error indicator.
    """
    if not samples:
        raise ValueError("extrapolation requires at least one sample")
    xs = [float(h) for h, _ in samples]
    vals: list[complex] = [complex(v) for _, v in samples]
    if len(set(xs)) != len(xs):
        raise ValueError("extrapolation nodes must be distinct")
    if len(vals) == 1:
        return vals[0], float("nan")
    n = len(vals)
    for k in range(1, n):
        previous = vals[0]
        for i in range(n - k):
            xi, xik = xs[i], xs[i + k]
            vals[i] = (-xik * vals[i] + xi * vals[i + 1]) / (xi - xik)
    return vals[0], abs(vals[0] - previous)


def abel_ladder(damping_r: float, levels: int) -> list[float]:
    """Extrapolation nodes h_j = (1 - damping_r) * 2**j for j = 0..levels.

    Node j stands for the Abel radius r_j = 1 - h_j, so the least-damped
    node is ``damping_r`` itself; every node must stay inside (0, 1).
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if not (0.0 < damping_r < 1.0):
        raise ValueError("damping_r must lie in (0, 1) for extrapolation")
    ladder = []
    for j in range(levels + 1):
        # checked per node, so a huge ``levels`` fails after at most ~54 nodes
        h = (1.0 - damping_r) * 2.0**j
        if h >= 1.0:
            # no remedy is named: `exp_sum_extrapolated` has no levels to decrease
            raise ValueError(
                f"extrapolation ladder leaves (0, 1): (1 - {damping_r!r}) * 2**{j} >= 1"
            )
        ladder.append(h)
    return ladder
