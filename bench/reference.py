"""Reference values that share no code with ``su2dh.series``.

Every density the package computes is a sum over the full fixed-point family
of the character series

    density(t) = (2*pi/sqrt(2)) / sin(pi*t) * sum_{j>=1} a_j * sin(pi*j*t),
    a_j = j * sum_F sum_k c_k j^{-k} e^{i*pi*j*mu_F}.

Pairing each component with its Weyl partner (mu -> -mu, c_k -> (-1)^k c_k)
turns the j-sum for one power k into  c_k/(2i) * (J_s(x_A) - J_s(x_B))  with
s = k - 1, x_A = (mu + t)/2 and x_B = (mu - t)/2 taken mod 1, where

    J_s(x) = sum_{j>=1} j^{-s} (e^{2*pi*i*j*x} + (-1)^s e^{-2*pi*i*j*x})
           = -(2*pi*i)^s / s! * B_s(x)          (0 <= x <= 1)

is a Bernoulli polynomial (DLMF 24.8.1-2).  Low orders use the polynomial,
with exact rational coefficients; high orders use the Fourier series itself,
which converges to double precision in a handful of terms.  Central
components are counted once, i.e. half of the pair.  The same J_s gives the
exponential sums of the lemma and, differentiated, the central values.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)
_POLY_MAX_ORDER = 5  # J_s for s above this is summed as a Fourier series


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0 .. B_n with B_1 = -1/2, by the recurrence sum_k C(m+1,k) B_k = 0."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = sum(math.comb(m + 1, k) * values[k] for k in range(m))
        values.append(-acc / (m + 1))
    return tuple(values)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> tuple[Fraction, ...]:
    """Coefficients of B_n(x), constant term first."""
    numbers = bernoulli_numbers(n)
    return tuple(math.comb(n, n - p) * numbers[n - p] for p in range(n + 1))


def bernoulli_exact(n: int, x: Fraction) -> Fraction:
    value = Fraction(0)
    for coeff in reversed(bernoulli_poly(n)):
        value = value * x + coeff
    return value


def _bernoulli_float(n: int, x: np.ndarray) -> np.ndarray:
    value = np.zeros_like(x)
    for coeff in reversed(bernoulli_poly(n)):
        value = value * x + float(coeff)
    return value


@lru_cache(maxsize=None)
def _fourier_terms(s: int) -> np.ndarray:
    # tail sum_{j>J} j^{-s} <= J^{1-s}/(s-1) stays below 1e-18
    count = int(10.0 ** (18.0 / (s - 1))) + 2
    return np.arange(1, count + 1, dtype=float)


def j_sum(s: int, x: np.ndarray) -> np.ndarray:
    """J_s(x) for x in [0, 1]; at x = 0 or 1 the s = 1 value is one-sided."""
    x = np.asarray(x, dtype=float)
    if s <= _POLY_MAX_ORDER:
        factor = -((2j * math.pi) ** s) / math.factorial(s)
        return factor * _bernoulli_float(s, x)
    j = _fourier_terms(s)
    angles = 2.0 * math.pi * np.multiply.outer(x, j)
    weights = j ** (-float(s))
    if s % 2 == 0:
        return 2.0 * (np.cos(angles) @ weights) + 0j
    return 2j * (np.sin(angles) @ weights)


def _check_supported(component) -> None:
    if component.central and any(k % 2 for k in component.euler_integral):
        raise ValueError("reference covers central components with even powers only")


def density_reference(space, grid, policy: str | None = None):
    """Reference density on a grid of alcove points.

    ``policy`` decides the side for a point exactly on a wall t = mu:
    'left' takes the t < mu branch, 'right' the t > mu branch.  Returns
    (totals, per_component, scales); ``scales`` is the size of the terms
    that were summed, so a relative check stays meaningful under
    cancellation.
    """
    t = np.asarray(grid, dtype=float)
    prefactor = (2.0 * math.pi / _SQRT2) / np.sin(math.pi * t)
    totals = np.zeros_like(t)
    scales = np.zeros_like(t)
    per_component = {}
    for comp in space.components:
        _check_supported(comp)
        mu = float(comp.mu)
        below = (t < mu) | ((t == mu) & (policy == "left"))
        x_a = (mu + t) / 2.0
        x_b = (mu - t) / 2.0 + np.where(below, 0.0, 1.0)
        half = 0.5 if comp.central else 1.0
        value = np.zeros(t.shape, dtype=complex)
        scale = np.zeros_like(t)
        for k, c in comp.euler_integral.items():
            ja, jb = j_sum(k - 1, x_a), j_sum(k - 1, x_b)
            value += half * c / 2j * (ja - jb)
            scale += abs(half * c / 2.0) * (np.abs(ja) + np.abs(jb))
        per_component[comp.label] = (prefactor * value).real
        totals += per_component[comp.label]
        scales += np.abs(prefactor) * scale
    return totals, per_component, scales


def central_reference(space, at_identity: bool) -> tuple[float, float]:
    """Density at +e (t -> 0+ of the t < mu branch) or -e (t -> 1- of t > mu).

    d/dt J_s(x(t)) = -(2*pi*i)^s/(s-1)! * B_{s-1}(x) * x'(t), and both angles
    meet at x = mu/2 (at +e) or (mu+1)/2 (at -e), evaluated exactly.
    Returns (value, scale).
    """
    total = 0j
    scale = 0.0
    sign = 1.0 if at_identity else -1.0
    for comp in space.components:
        _check_supported(comp)
        x = comp.mu / 2 if at_identity else (comp.mu + 1) / 2
        half = 0.5 if comp.central else 1.0
        for k, c in comp.euler_integral.items():
            s = k - 1
            derivative = -((2j * math.pi) ** s) / math.factorial(s - 1) * float(
                bernoulli_exact(s - 1, x)
            )
            term = sign * _SQRT2 * half * c / 2j * derivative
            total += term
            scale += abs(term)
    return total.real, scale


def exp_sum_reference(coeffs: dict[int, complex], gamma: float) -> complex:
    """sum_{m != 0} e^{i*m*gamma} f(m) for f(z) = sum_k a_k z^{-k}, k <= 5."""
    x = (gamma / (2.0 * math.pi)) % 1.0
    return complex(
        sum(a * complex(j_sum(k, np.array([x]))[0]) for k, a in coeffs.items())
    )


def localization_coefficient(space, n: int) -> tuple[complex, float]:
    """<density, chi_n> summed over the full family; returns (value, scale)."""
    w = n + 1
    total = 0j
    scale = 0.0
    for comp in space.components:
        family = [(float(comp.mu), dict(comp.euler_integral))]
        if not comp.central:
            family.append(
                (-float(comp.mu), {k: (-1) ** k * c for k, c in comp.euler_integral.items()})
            )
        for mu, coeffs in family:
            phase = cmath.exp(1j * math.pi * w * mu)
            for k, c in coeffs.items():
                term = w * c * w ** (-k) * phase
                total += term
                scale += abs(term)
    return total, scale
