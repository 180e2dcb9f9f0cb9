"""Exponential sums over nonzero integers evaluated as residues.

For a rational function f with its only pole at zero, f(z) = sum_k a_k z^{-k}
with k >= 1 (so f -> 0 at infinity), the classical identity converts the
Abel-summed two-sided series into a single residue at the origin:

    0 < gamma < 2*pi:
        sum_{m != 0} e^{i*m*gamma} f(m)
            = -2*pi*i * Res_0[ f(z) e^{i*gamma*z} / (e^{2*pi*i*z} - 1) ]

The kernel is the Bernoulli generating function u e^{x*u}/(e^u - 1) =
sum_n B_n(x) u^n/n! (DLMF 24.2.3) at u = 2*pi*i*z, x = gamma/(2*pi), so

    sum_{m != 0} e^{i*m*gamma} f(m) = sum_k -a_k (2*pi*i)^k / k! * B_k(x),

with each (2*pi)^k B_k(x) / k! an exact rational (`bernoulli_values`, 2*pi
to 30 decimals) rounded once.  For -2*pi < gamma < 0 the substitution
m -> -m turns the sum into the one for f(-z), whose coefficients are
(-1)^k a_k, at the phase -gamma > 0.

The intervals are strictly open: at gamma in {-2*pi, 0, 2*pi} the series
changes regime (for k = 1 it diverges), so no analytic continuation across
the endpoints is attempted.

This module is both a standalone utility and the backbone consistency check
for the density evaluator: the density formulas are exactly two instances of
this identity with gamma = pi*(t + mu) and gamma = pi*(mu - t), and
`su2dh.residue` compiles its chamber polynomials from `bernoulli_values` too.

`RationalPoleFunction` evaluates sum_k a_k x^{-k} for the lemma; the Fourier
path folds the pair f(w), f(-w) into real polynomials in 1/w of its own
(`fourier._fold`).  A direct summation oracle is included.  It
pairs m with -m, so the terms are e^{i*m*gamma} f(m) + e^{-i*m*gamma} f(-m).
For k = 1 the series is only conditionally convergent, so the oracle
supports Abel damping r^{|m|}, and `exp_sum_extrapolated` removes the
damping bias by Richardson extrapolation in 1 - r.  Its ladder
(`extrapolation.abel_ladder`) increases the damping (r moving away from 1)
so that the truncation error at M terms stays negligible for every node; the
undamped terms are computed once and shared by all nodes.

The oracle's elementwise work runs in blocks of 4096 terms.  One ladder of
powers of 1/m per block gives both f(m) and f(-m)
(`RationalPoleFunction._both_signs`), and the phase is cos and sin of
gamma*m, written into the two halves of one complex array.  A block's
temporaries are at most 64 KB, under glibc's 128 KB threshold for serving an
allocation with a fresh mmap, so the heap reuses them.  Whole-length
temporaries, about 45 per call at M = 100,000, were each mapped and
page-faulted afresh, which took about half of the call.  Only the terms and
one array of damped terms are M long: about 33 bytes per term at the peak,
against 88 with whole-length temporaries.  Each sum is still one ``np.sum``
over all M terms, because partial sums per block would change numpy's
pairwise order, so the values are those of whole-array evaluation, bit for
bit.

numpy is imported inside the functions that build arrays, not at module
level, because the residue path and the CLI must start without it.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .extrapolation import abel_ladder, extrapolate_to_zero

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
# 2*pi to 30 decimals.  Near a root of B_k, B_k(x) magnifies an error in x,
# so x = gamma/(2*pi) is rounded to a multiple of 2^-64, far finer than a
# float quotient, with a denominator that keeps `bernoulli_values` fast.
_TWO_PI_EXACT = 2 * Fraction("3.141592653589793238462643383280")
_X_GRID = 2**64
# Terms per block of the damped-sum oracle (see the module docstring); 1024
# was slower, and 2048 to 16384 no faster.
_BLOCK = 4096


class GammaRangeError(ValueError):
    """Raised for gamma outside the open intervals (-2*pi, 0) and (0, 2*pi)."""


@dataclass(frozen=True)
class RationalPoleFunction:
    """f(z) = sum_k a_k z^{-k} with every k >= 1; the input class of the identity."""

    coeffs: Mapping[int, complex]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("pole coefficients must be nonempty")
        cleaned: dict[int, complex] = {}
        for k, a in self.coeffs.items():
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(f"pole order must be an integer >= 1, got {k!r}")
            a = complex(a)
            if not cmath.isfinite(a):
                raise ValueError(f"pole coefficient of order {k} must be finite, got {a!r}")
            cleaned[k] = a
        object.__setattr__(self, "coeffs", dict(sorted(cleaned.items())))

    @property
    def max_order(self) -> int:
        return max(self.coeffs)

    def __call__(self, m):
        """Evaluate at a scalar or numpy array of nonzero reals."""
        import numpy as np

        out, _ = self._both_signs(np.asarray(m, dtype=float))
        return complex(out) if out.shape == () else out

    def _both_signs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f(x) and f(-x) for a float array x; f(-x) has the bits of ``self(-x)``.

        ``__call__`` returns the first.  One ladder of powers of 1/x serves
        both signs: 1/(-x) = -(1/x) exactly, so a_k (-x)^{-k} is a_k x^{-k}
        negated for odd k, and it is subtracted instead of added.  The two can
        differ only in the sign of a zero, which a sum that starts at +0 never
        shows, since it cannot become -0.
        """
        import numpy as np

        inv = np.divide(1.0, x)
        power = np.ones_like(inv)
        product = np.empty(x.shape, dtype=complex)
        pos = np.zeros(x.shape, dtype=complex)
        neg = np.zeros(x.shape, dtype=complex)
        for k in range(1, self.max_order + 1):
            np.multiply(power, inv, out=power)
            a = self.coeffs.get(k)
            if a is not None:
                np.multiply(a, power, out=product)
                np.add(pos, product, out=pos)
                (np.subtract if k % 2 else np.add)(neg, product, out=neg)
        return pos, neg


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (-_TWO_PI < gamma < _TWO_PI) or gamma == 0.0 or math.isnan(gamma):
        raise GammaRangeError(
            f"gamma outside lemma range: {gamma!r} is not in (-2*pi, 0) or (0, 2*pi)"
        )
    return gamma


def bernoulli_values(x: Fraction, high: int) -> list[Fraction]:
    """The Bernoulli polynomial values B_0(x), ..., B_high(x), exactly.

    They follow from sum_{j<=n} C(n+1, j) B_j(x) = (n+1) x^n.  With x = p/q
    and D = lcm(1, ..., high + 1), each e_n = D q^n B_n(x) is an integer (by
    von Staudt-Clausen the denominator of B_j divides lcm(1, ..., j + 1)), so
    the recurrence runs in integers, every division by n + 1 exact:

        e_n = D p^n - sum_{j<n} C(n+1, j) q^(n-j) e_j / (n+1),

    with the sum taken by Horner's rule in q and the binomial row C(n+1, .)
    updated by Pascal's rule.
    """
    p, q = x.numerator, x.denominator
    scale = math.lcm(*range(1, high + 2))
    scaled: list[int] = []
    binomial = [1, 1]
    for n in range(high + 1):
        tail = 0
        for c, e in zip(binomial, scaled):
            tail = (tail + c * e) * q
        scaled.append(scale * p**n - tail // (n + 1))
        binomial = [1, *map(operator.add, binomial, binomial[1:]), 1]
    return [Fraction(e, scale * q**n) for n, e in enumerate(scaled)]


def exp_sum_residue(f: RationalPoleFunction, gamma: float) -> complex:
    """Value of sum_{m != 0} e^{i*m*gamma} f(m), in closed form from B_k(gamma/(2*pi))."""
    gamma = _check_gamma(gamma)
    coeffs = f.coeffs
    if gamma < 0:
        # m -> -m: the sum for f(-z) at -gamma
        coeffs = {k: -a if k % 2 else a for k, a in coeffs.items()}
        gamma = -gamma
    x = Fraction(round(Fraction(gamma) / _TWO_PI_EXACT * _X_GRID), _X_GRID)
    bernoulli = bernoulli_values(x, f.max_order)
    return sum(
        -a * 1j ** (k % 4) * float(_TWO_PI_EXACT**k * bernoulli[k] / math.factorial(k))
        for k, a in coeffs.items()
    )


def _blocks(M: int):
    """Slices of m = 1..M, ``_BLOCK`` at a time, with the values of m in each."""
    import numpy as np

    for start in range(0, M, _BLOCK):
        stop = min(start + _BLOCK, M)
        yield slice(start, stop), np.arange(start + 1, stop + 1, dtype=float)


def _paired_terms(f: RationalPoleFunction, gamma: float, M: int) -> np.ndarray:
    """The undamped terms e^{i*m*gamma} f(m) + e^{-i*m*gamma} f(-m), m = 1..M."""
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise ValueError("M must be an integer >= 1")
    import numpy as np

    terms = np.empty(M, dtype=complex)
    for block, m in _blocks(M):
        f_pos, f_neg = f._both_signs(m)
        angle = gamma * m
        phase = np.empty(len(m), dtype=complex)
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        # No complex product is written over one of its operands.  numpy
        # 2.4 on x86-64 rounds an in-place complex multiply of length 1
        # differently from an out-of-place one (917 of 2000 random pairs;
        # none differed at lengths 2 to 100,000), and a last block may
        # hold one term.
        np.multiply(phase, f_pos, out=terms[block])
        np.multiply(phase.conj(), f_neg, out=f_pos)
        terms[block] += f_pos
    return terms


def _damped_sums(
    f: RationalPoleFunction, gamma: float, M: int, radii: list[float]
) -> list[complex]:
    """sum_{0 < |m| <= M} e^{i*m*gamma} f(m) r^{|m|} for each r in ``radii``.

    The undamped terms are computed once, and every radius writes its damped
    terms into one shared array.  Each sum is one ``np.sum`` over all M
    terms: partial sums per block would change numpy's pairwise order, and
    with it the last bits.
    """
    import numpy as np

    terms = _paired_terms(f, gamma, M)
    damped = np.empty_like(terms)
    sums = []
    for r in radii:
        if r == 1.0:
            sums.append(complex(np.sum(terms)))
            continue
        log_r = math.log(r)
        for block, m in _blocks(M):
            np.multiply(terms[block], np.exp(m * log_r), out=damped[block])
        sums.append(complex(np.sum(damped)))
    return sums


def exp_sum_partial(
    f: RationalPoleFunction, gamma: float, M: int, damping_r: float = 1.0
) -> complex:
    """Damped partial sum  sum_{0 < |m| <= M} e^{i*m*gamma} f(m) r^{|m|}."""
    if not (0.0 < damping_r <= 1.0):
        raise ValueError("damping_r must lie in (0, 1]")
    return _damped_sums(f, gamma, M, [damping_r])[0]


def exp_sum_extrapolated(
    f: RationalPoleFunction,
    gamma: float,
    M: int = 100_000,
    damping_r: float = 0.9999,
    levels: int = 2,
) -> complex:
    """Abel value of the sum: damped partial sums extrapolated to r -> 1.

    The nodes are the ladder ``abel_ladder(damping_r, levels)``, so the
    least-damped node is the given ``damping_r`` and the truncation error of
    every node is controlled by it.  The undamped terms are computed once
    and each node only applies its damping.
    """
    ladder = abel_ladder(damping_r, levels)
    sums = _damped_sums(f, gamma, M, [1.0 - h for h in ladder])
    value, _ = extrapolate_to_zero(list(zip(ladder, sums)))
    return value
