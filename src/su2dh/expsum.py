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

with each (2*pi)^k B_k(x) / k! an exact rational, pi^k times the ratio
2^k B_k(x) / k! of `bernoulli_ratios` with pi to 30 decimals, rounded once
as one int/int division.  For -2*pi < gamma < 0 the substitution
m -> -m turns the sum into the one for f(-z), whose coefficients are
(-1)^k a_k, at the phase -gamma > 0.

The intervals are strictly open: at gamma in {-2*pi, 0, 2*pi} the series
changes regime (for k = 1 it diverges), so no analytic continuation across
the endpoints is attempted.

This module is both a standalone utility and the backbone consistency check
for the density evaluator: the density formulas are exactly two instances of
this identity with gamma = pi*(t + mu) and gamma = pi*(mu - t), and
`su2dh.residue` compiles its chamber polynomials from the same row of
`bernoulli_ratios`.

`RationalPoleFunction` holds the coefficients a_k of f, read-only.  A
direct summation oracle is included.  It pairs m with -m, so the terms are
e^{i*m*gamma} f(m) + e^{-i*m*gamma} f(-m).  For k = 1 the series is only
conditionally convergent, so the oracle supports Abel damping r^{|m|}, and
`exp_sum_extrapolated` removes the damping bias by Richardson extrapolation
in 1 - r.  Its ladder (`extrapolation.abel_ladder`) increases the damping (r
moving away from 1) so that the truncation error at M terms stays negligible
for every node; the undamped terms are computed once and shared by all nodes.

The oracle streams its terms in blocks of 4096 and builds no array of length
M, so its memory does not grow with M (under 1 MB at the peak).  A block
m = s + j, with s a multiple of 4096 and j = 1..4096, is built in real
arithmetic:

* Fold.  With f = E + O split into its even and odd orders, f(-m) = E - O,
  so a pair is 2*(cos(gamma*m)*E + i*sin(gamma*m)*O), the identity
  `fourier._fold` uses.  E and O are real Horner polynomials in 1/m^2 for
  their real and imaginary parts, from the rows of `_parity_rows`, the split
  `fourier._fold` reads too; no complex power of 1/m and no f(-m) is
  formed.
* Phases.  e^{i*gamma*m} = e^{i*gamma*s} e^{i*gamma*j}, from one table of
  the 4096 in-block phases and one of the ceil(M/4096) block heads, combined
  by angle addition.  Each angle gamma*k is formed exactly from a split of
  gamma (`_split`, `_phase_table`), so no phase carries the error of a
  rounded angle, 0.5 ulp(gamma*m), or 5.8e-11 rad at m = 1e5 near 2*pi.
* Damping.  r^m = r^s r^j, so with U the sum of a block's terms and X that of
  its terms times r^j - 1, from one expm1 table of 4096 per radius, the
  block adds U + r^s*X + (r^s - 1)*U to a node.  U and X are numpy's pairwise
  sums along contiguous rows.

Each node's block parts are added by ``math.fsum`` and rounded once, so a
node's value does not depend on the other radii of the call, and
`exp_sum_extrapolated` is exactly `extrapolate_to_zero` of the nodes'
`exp_sum_partial` values.  A sum that is not finite is refused with
`ExpSumOverflowError`.  `_fsum` and `_overflow` state this overflow rule for
`residue` and `fourier` as well: a sum by ``math.fsum``, NaN where an
intermediate overflows, and one message for a value that is not finite.

numpy is imported inside the functions that build arrays, not at module
level, because the residue path and the CLI must start without it.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping

from .extrapolation import abel_ladder, extrapolate_to_zero
from .model import _ReadOnlyDict

if TYPE_CHECKING:
    import numpy as np

_TWO_PI = 2.0 * math.pi
# 2*pi to 30 decimals.  Near a root of B_k, B_k(x) magnifies an error in x,
# so x = gamma/(2*pi) is rounded to a multiple of 2^-64, far finer than a
# float quotient, with a denominator that keeps `bernoulli_ratios` fast.
_TWO_PI_EXACT = 2 * Fraction("3.141592653589793238462643383280")
_PI_RATIO = (_TWO_PI_EXACT / 2).as_integer_ratio()
_X_GRID = 2**64
# Terms per block of the damped-sum oracle (see the module docstring); 2048
# and 16384 were slower, and 8192 no faster.  A power of two, so a block head
# b*_BLOCK has the significant bits of b, and `_split` keeps its angle exact.
_BLOCK = 4096


class GammaRangeError(ValueError):
    """Raised for gamma outside the open intervals (-2*pi, 0) and (0, 2*pi)."""


class ExpSumOverflowError(ArithmeticError):
    """Raised when an exponential sum of finite data is not finite."""


@dataclass(frozen=True)
class RationalPoleFunction:
    """f(z) = sum_k a_k z^{-k} with every k >= 1; the input class of the identity.

    ``coeffs`` maps k to a_k, read-only, as `FixedComponent.euler_integral` is.
    """

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
        object.__setattr__(self, "coeffs", _ReadOnlyDict(sorted(cleaned.items())))

    @property
    def max_order(self) -> int:
        return max(self.coeffs)


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not (-_TWO_PI < gamma < _TWO_PI) or gamma == 0.0:
        raise GammaRangeError(
            f"gamma outside lemma range: {gamma!r} is not in (-2*pi, 0) or (0, 2*pi)"
        )
    return gamma


def bernoulli_ratios(x: Fraction, high: int) -> list[tuple[int, int]]:
    """Integer pairs (a_n, b_n) with a_n / b_n = 2^n B_n(x) / n! for n = 0..high, unreduced.

    With x = p/q and D = lcm(1, ..., high + 1), the pair is
    (e_n << n, D q^n n!), where e_n = D q^n B_n(x) is an integer (by von
    Staudt-Clausen the denominator of B_j divides lcm(1, ..., j + 1)).  The
    e_n follow from sum_{j<=n} C(n+1, j) B_j(x) = (n+1) x^n, so the
    recurrence runs in integers, every division by n + 1 exact:

        e_n = D p^n - sum_{j<n} C(n+1, j) q^(n-j) e_j / (n+1),

    with the sum taken by Horner's rule in q and the binomial row C(n+1, .)
    updated by Pascal's rule.  One int/int division rounds a ratio, times
    any integer factors, correctly, as float(Fraction) does, reduced or not.
    """
    p, q = x.numerator, x.denominator
    scale = math.lcm(*range(1, high + 2))
    denominator = scale
    scaled: list[int] = []
    ratios: list[tuple[int, int]] = []
    binomial = [1, 1]
    for n in range(high + 1):
        tail = 0
        for c, e in zip(binomial, scaled):
            tail = (tail + c * e) * q
        scaled.append(scale * p**n - tail // (n + 1))
        if n:
            denominator *= n * q
        ratios.append((scaled[-1] << n, denominator))
        binomial = [1, *map(operator.add, binomial, binomial[1:]), 1]
    return ratios


def exp_sum_residue(f: RationalPoleFunction, gamma: float) -> complex:
    """Value of sum_{m != 0} e^{i*m*gamma} f(m), in closed form from B_k(gamma/(2*pi))."""
    gamma = _check_gamma(gamma)
    coeffs = f.coeffs
    if gamma < 0:
        # m -> -m: the sum for f(-z) at -gamma
        coeffs = {k: -a if k % 2 else a for k, a in coeffs.items()}
        gamma = -gamma
    x = Fraction(round(Fraction(gamma) / _TWO_PI_EXACT * _X_GRID), _X_GRID)
    ratios = bernoulli_ratios(x, f.max_order)
    pi_p, pi_q = _PI_RATIO
    # (2*pi)^k B_k(x) / k! = pi^k * 2^k B_k(x) / k!, rounded once
    value = sum(
        -a * 1j ** (k % 4) * (pi_p**k * ratios[k][0] / (pi_q**k * ratios[k][1]))
        for k, a in coeffs.items()
    )
    if not cmath.isfinite(value):
        raise _overflow(ExpSumOverflowError, "the residue value")
    return value


def _split(x: float) -> tuple[float, float]:
    """x = hi + lo exactly, with hi the float x truncated to 26 significant bits.

    hi * k is then exact for every integer k of at most 27 significant bits,
    and |lo| < 2^-25 |x|, so lo * k rounds off less than 2^-78 |x*k|.
    """
    mantissa, exponent = math.frexp(x)
    hi = math.ldexp(math.trunc(math.ldexp(mantissa, 26)), exponent - 26)
    return hi, x - hi


def _phase_table(gamma: tuple[float, float], k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of gamma*k for the integers k, with gamma = hi + lo from `_split`.

    The angle hi*k + lo*k rounds to a float a, and the fast two-sum
    (|hi*k| >= |lo*k|) gives its rounding error e, |e| <= ulp(a)/2, exactly;
    angle addition then gives the phase of a + e.
    """
    import numpy as np

    hi, lo = gamma[0] * k, gamma[1] * k
    angle = hi + lo
    error = (hi - angle) + lo
    cos, sin = np.cos(angle), np.sin(angle)
    cos_e, sin_e = np.cos(error), np.sin(error)
    return cos * cos_e - sin * sin_e, sin * cos_e + cos * sin_e


def _poly(coefficients: tuple[float, ...], v, factor, empty=None, out=None):
    """factor * sum_j coefficients[j] * v**j by Horner's rule; v is a float or an array.

    It is ``empty`` when every coefficient is 0, and zero coefficients above
    the last nonzero one cost nothing.  `fourier` keeps the default None and
    skips such a term; the oracle passes 0.0.  With an array ``out``, the
    value is built in it, in place: the same operations in the same order,
    so the same bits, as the float path.
    """
    total = None
    for c in reversed(coefficients):
        if total is not None:
            total *= v
        if c:
            if total is None:
                total = c
                if out is not None:
                    out.fill(c)
                    total = out
            else:
                total += c
    if total is None:
        return empty
    total *= factor
    return total


def _parity_rows(coeffs: Mapping[int, complex], first_odd: int) -> tuple[tuple[float, ...], ...]:
    """Real and imaginary rows of the even orders 2, 4, ... and the odd orders first_odd, ....

    The four rows, (even real, even imaginary, odd real, odd imaginary), run
    up to the highest order, with 0 for an order that is missing; `_poly`
    reads each as a polynomial in 1/z^2.  The oracle splits f itself, from
    order 1; `fourier._fold` splits w*I_F(w), whose odd orders start at 3.
    """
    top = max(coeffs)
    rows = []
    for first in (2, first_odd):
        values = [coeffs.get(k, 0j) for k in range(first, top + 1, 2)]
        rows += tuple(a.real for a in values), tuple(a.imag for a in values)
    return tuple(rows)


def _fsum(values: Iterable[float]) -> float:
    """math.fsum, or NaN where fsum raises: an intermediate overflow, or inf - inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _overflow(error: type[ArithmeticError], what: str) -> ArithmeticError:
    """The ``error`` for a value that is not finite; built only once a check has failed."""
    return error(f"numeric overflow: {what} is not finite")


def _damped_sums(
    f: RationalPoleFunction, gamma: float, M: int, radii: list[float]
) -> list[complex]:
    """sum_{0 < |m| <= M} e^{i*m*gamma} f(m) r^{|m|} for each r in ``radii``.

    The terms are built ``_BLOCK`` at a time, m = s + j with s a multiple of
    ``_BLOCK`` and j = 1..``_BLOCK`` (see the module docstring).  Each radius
    sums a block as U + r^s*X + (r^s - 1)*U, with U the sum of the block's
    undamped terms and X that of its terms times r^j - 1, and each node's
    block parts are added by ``math.fsum`` and rounded once.
    """
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise ValueError("M must be an integer >= 1")
    if not math.isfinite(gamma):
        raise GammaRangeError(f"gamma must be finite, got {gamma!r}")
    import numpy as np

    # f(z) = E + O with E = v*P(v) its even orders and O = u*Q(v) its odd
    # ones, u = 1/z and v = u^2; the pair m, -m gives 2*(cos*E + i*sin*O)
    even_re, even_im, odd_re, odd_im = _parity_rows(f.coeffs, 1)
    offsets = np.arange(1, min(M, _BLOCK) + 1, dtype=float)
    heads = np.arange(0, M, _BLOCK, dtype=float)
    log_r = np.log(np.array(radii, dtype=float))
    excess = np.expm1(np.multiply.outer(log_r, offsets))[:, None, :]
    head_excess = np.expm1(np.multiply.outer(log_r, heads))
    undamped = np.empty((len(heads), 2))
    excess_sums = np.empty((len(heads), len(radii), 2))
    with np.errstate(over="ignore", invalid="ignore"):  # judged on the sums below
        split = _split(gamma)
        cos_j, sin_j = _phase_table(split, offsets)
        cos_s, sin_s = _phase_table(split, heads)
        for b, s in enumerate(heads):
            n = min(_BLOCK, M - int(s))
            cos_b, sin_b = cos_j[:n], sin_j[:n]
            u = 1.0 / (s + offsets[:n])
            v = u * u
            cos_v = (cos_s[b] * cos_b - sin_s[b] * sin_b) * v
            sin_u = (sin_s[b] * cos_b + cos_s[b] * sin_b) * u
            # half of each term, as its real and imaginary rows
            half = np.empty((2, n))
            np.subtract(_poly(even_re, v, cos_v, 0.0), _poly(odd_im, v, sin_u, 0.0), out=half[0])
            np.add(_poly(even_im, v, cos_v, 0.0), _poly(odd_re, v, sin_u, 0.0), out=half[1])
            np.sum(half, axis=-1, out=undamped[b])
            np.sum(excess[..., :n] * half, axis=-1, out=excess_sums[b])
        sums = []
        for i, r in enumerate(radii):
            head = head_excess[i][:, None]
            parts = np.concatenate([undamped, (head + 1.0) * excess_sums[:, i], head * undamped])
            value = complex(*(2.0 * _fsum(parts[:, c]) for c in (0, 1)))
            if not cmath.isfinite(value):
                raise _overflow(ExpSumOverflowError, f"the damped sum at r = {r!r}")
            sums.append(value)
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
) -> complex:
    """Abel value of the sum: damped partial sums extrapolated to r -> 1.

    The nodes are the three-node ladder ``abel_ladder(damping_r, 2)``, so
    the least-damped node is the given ``damping_r`` and the truncation
    error of every node is controlled by it.  The undamped terms are
    computed once and each node only applies its damping.
    """
    ladder = abel_ladder(damping_r, 2)
    sums = _damped_sums(f, gamma, M, [1.0 - h for h in ladder])
    value, _ = extrapolate_to_zero(list(zip(ladder, sums)))
    if not cmath.isfinite(value):
        raise _overflow(ExpSumOverflowError, "the extrapolated sum")
    return value
