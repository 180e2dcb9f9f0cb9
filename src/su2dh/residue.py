"""Density and reduced-space volumes by residue evaluation.

For a fixed-point component F with alcove value mu and Euler-integral
coefficients c_k, the contribution to the density of the pushforward of the
Liouville measure, evaluated at exp(t*rho) with t in the open alcove, is

    t < mu:  -(4*pi^2*i/sqrt(2)) * (1/sin(pi*t)) *
             Res_0[ z * e^{pi*i*z*mu} * sin(pi*t*z) / (e^{2*pi*i*z} - 1)
                    * sum_k c_k z^{-k} ]

    t > mu:  +(4*pi^2*i/sqrt(2)) * (1/sin(pi*t)) *
             Res_0[ z * e^{pi*i*z*(mu+1)} * sin(pi*(1-t)*z) / (e^{2*pi*i*z} - 1)
                    * sum_k c_k z^{-k} ]

with an extra factor 1/2 for central components (mu exactly 0 or 1).  The
derivation from the localization Fourier series, including why the
1/sin(pi*t) prefactor is forced by the closed-form checks, is written out in
docs/derivation.md.

Chamber polynomials.  The evaluation point enters only through
sin(pi*x*z), with x = t below the wall and x = 1 - t above it, whose Taylor
terms are odd.  So each branch is P(x)/sin(pi*t), with P an odd polynomial
of degree at most max_power - 1.  The kernel z e^{pi*i*w*z}/(e^{2*pi*i*z} - 1),
w = mu below the wall and mu + 1 above it, is the Bernoulli generating
function at u = 2*pi*i*z (DLMF 24.2.3), so with n = k - 2 - 2j >= 0

    [x^(2j+1)] P = sqrt(2) * sum_k c_k pi^k i^n R,
    R = -+half * 2^n B_n(w/2) (-1)^j / (n! (2j+1)!),

with the minus sign below the wall and half = 1/2 for central components.
Each R is an exact rational, from the integer ratio row of
`expsum.bernoulli_ratios` that `exp_sum_residue` also reads, rounded once:
one division of its integer numerator by its integer denominator, which
Python rounds correctly, as float(Fraction) does, reduced or not.  Each
space object compiles each of its components once.  A wall's one-sided
limit is then the choice of branch, and the central values at +e and -e,
the t -> 0+ and t -> 1- limits of the two branches, are the linear
coefficients of P_below and P_above divided by pi.
Central values are meaningful only at a regular value of the moment map,
which the caller must assert: a component at mu = 0 (at +e) or mu = 1 (at
-e) refutes it, and no fixed-point data confirm it.  The above branch stays
in x = 1 - t: re-expanding it about t = 0 would multiply its coefficients by
binomials up to about 6e16 (product:30, degree 59).  docs/derivation.md has
the details.

Volumes of reduced spaces follow from the density and the generic stabilizer
order k:

    Vol = k * (2*sin(pi*t)/sqrt(2)) * density       for interior t,
    Vol = k * (2*pi/sqrt(2))        * density       at the central elements.

Data that respect the reflection symmetry (real c_k at even k, imaginary at
odd k) give i^n c_k real in every term, so their branch coefficients are
exactly real.  A branch keeps the real parts and one relative imaginary
residual, max_j |Im c_j| / max_j |c_j|.  Realness is judged once per call, on
the branches the call can reach; every point is then evaluated in real
arithmetic.  A coefficient, density or volume that overflows raises
`DensityOverflowError`.

Tables.  Compiled data live on the space and die with it (see `model`).
The first residue call on a `QHSpace` object compiles each component once,
into one row list, and stores a table for each reach: "interior" for
interior points, "below" for the values at +e and "above" for those at -e.
A table is that shared row list and the largest residual of the branches its
reach allows, judged from the exact mu, so a warm call only compares that
residual with its own `EvalOptions.imag_tolerance`.  The verdict is not
stored, because the tolerance belongs to the call.  A call whose tolerance
the residual fails judges the rows in order, so the first component at fault
raises with the message that names it and its branch.  A component's
contribution is its row, which `density` returns in
`DensityResult.per_component`.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    VOL_T,
    AlcoveRangeError,
    DensityResult,
    FixedComponent,
    QHSpace,
    require_interior_alcove,
)
from .expsum import _fsum, _overflow, bernoulli_ratios


class WallError(ArithmeticError):
    """Raised when evaluating exactly on a wall t = mu with policy 'error'."""


class NonRealDensityError(ArithmeticError):
    """Raised when a branch a call reaches has a relative imaginary residual above tolerance."""


class DensityOverflowError(ArithmeticError):
    """Raised when a branch coefficient, density or volume of finite data overflows."""


class WallPolicy(enum.Enum):
    ERROR = "error"
    LEFT_LIMIT = "left_limit"
    RIGHT_LIMIT = "right_limit"


class CentralElement(enum.Enum):
    IDENTITY = "e"
    MINUS_IDENTITY = "-e"


@dataclass(frozen=True)
class EvalOptions:
    imag_tolerance: float = 1e-9
    wall_policy: WallPolicy = WallPolicy.ERROR

    def __post_init__(self) -> None:
        if not (math.isfinite(self.imag_tolerance) and self.imag_tolerance > 0):
            raise ValueError("imag_tolerance must be finite and positive")


DEFAULT_OPTIONS = EvalOptions()


@dataclass(frozen=True)
class _BranchPolynomials:
    """One component's compiled branches: density(t)*sin(pi*t) = P(x).

    ``below[j]`` is the coefficient of t^(2j+1), valid for t < mu;
    ``above[j]`` is the coefficient of s^(2j+1) with s = 1 - t, valid for
    t > mu.  Both hold real parts, and ``residual`` maps each branch to the
    relative imaginary residual of its complex coefficients, which is at
    most 1, or inf when one of them overflowed.  ``interior`` names the
    branch that judges interior points, decided from the exact mu: the only
    one they reach when mu is 0 or 1, else the one with the larger residual.
    """

    mu: float
    below: tuple[float, ...]
    above: tuple[float, ...]
    residual: dict[str, float]
    interior: str

    def at(self, t: float, branch: str) -> float:
        """P(x) on ``branch`` ('below' or 'above'), by Horner's rule in x^2."""
        coeffs, x = (self.below, t) if branch == "below" else (self.above, 1.0 - t)
        x2 = x * x
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x2 + c
        return acc * x


def _branch(
    coefficients: tuple[tuple[int, complex], ...], weight: Fraction, sign: Fraction
) -> tuple[tuple[float, ...], float]:
    """Real coefficients of x^(2j+1) on one branch, and their relative imaginary residual.

    [x^(2j+1)] P = sqrt(2) * sum_k (c_k pi^k) i^n R with n = k - 2 - 2j and
    the exact rational R = sign * 2^n B_n(weight/2) (-1)^j / (n! (2j+1)!),
    rounded once, as one int/int division.  The residual is max_j |Im| /
    max_j |.| (0 if all vanish); a coefficient that is not finite or
    overflows gives no coefficients and the residual inf.
    """
    max_power = max(k for k, _ in coefficients)
    try:
        # first, so that pi**k, which overflows for k >= 621, fails before the Bernoulli values
        scaled = [(k, c * math.pi**k) for k, c in coefficients]
        ratios = bernoulli_ratios(weight / 2, max_power - 2)
        coeffs, odd_factorial = [], 1
        for j in range(max_power // 2):
            odd_factorial *= 2 * j * (2 * j + 1) or 1
            sign_j = -sign.numerator if j % 2 else sign.numerator
            scale_j = sign.denominator * odd_factorial
            acc = 0j
            for k, c in scaled:
                n = k - 2 - 2 * j
                if n >= 0:
                    numerator, denominator = ratios[n]
                    # one int/int division, correctly rounded, as float(Fraction) is
                    acc += c * 1j ** (n % 4) * (sign_j * numerator / (denominator * scale_j))
            coeffs.append(VOL_T * acc)
        size = max(map(abs, coeffs))  # overflows for a finite coefficient beyond the range
    except OverflowError:
        return (), math.inf
    if not all(map(cmath.isfinite, coeffs)):
        return (), math.inf
    real = tuple(c.real for c in coeffs)
    return real, max(abs(c.imag) for c in coeffs) / size if size else 0.0


def _compile(component: FixedComponent) -> _BranchPolynomials:
    """Both branch polynomials of a component; a pure function of its value."""
    mu, coefficients = component.mu, tuple(component.euler_integral.items())
    half = Fraction(1, 2) if component.central else Fraction(1)
    below, r_below = _branch(coefficients, mu, -half)
    above, r_above = _branch(coefficients, mu + 1, half)
    interior = "above" if mu == 0 else "below" if mu == 1 or r_below >= r_above else "above"
    residual = {"below": r_below, "above": r_above}
    return _BranchPolynomials(float(mu), below, above, residual, interior)


def _judged(poly: _BranchPolynomials, reach: str) -> tuple[str, float]:
    """The branch of a row that judges ``reach``, and its residual."""
    branch = poly.interior if reach == "interior" else reach
    return branch, poly.residual[branch]


def _table(
    space: QHSpace, reach: str, options: EvalOptions
) -> tuple[list[tuple[str, _BranchPolynomials]], float]:
    """The space's table for ``reach`` (see the module docstring), judged on every call."""
    table = space._compiled.get(reach)
    if table is None:
        # the first call builds every reach's table, all sharing one row list
        rows = [(comp.label, _compile(comp)) for comp in space.components]
        for each in ("interior", "below", "above"):
            space._compiled[each] = rows, max(_judged(poly, each)[1] for _, poly in rows)
        table = space._compiled[reach]
    if table[1] > options.imag_tolerance:
        # then some row fails; the first one raises, naming itself and its branch
        for label, poly in table[0]:
            branch, residual = _judged(poly, reach)
            if residual == math.inf:
                raise DensityOverflowError(
                    f"numeric overflow: component {label!r} has coefficients beyond the "
                    f"float range on its {branch} branch"
                )
            if residual > options.imag_tolerance:
                raise NonRealDensityError(
                    f"non-real density (check input data): component {label!r} has "
                    f"relative imaginary residual {residual:.3e} on its {branch} branch"
                )
    return table


def _select_branch(label: str, mu: float, t: float, options: EvalOptions) -> str:
    if 0.0 < mu < 1.0 and t == mu:
        if options.wall_policy is WallPolicy.ERROR:
            raise WallError(
                f"evaluation on a wall: t = mu = {t} for component "
                f"{label!r} (set a one-sided wall policy to take a limit)"
            )
        return "below" if options.wall_policy is WallPolicy.LEFT_LIMIT else "above"
    return "below" if t < mu else "above"


def _evaluate(
    compiled: list[tuple[str, _BranchPolynomials]], residual: float, t: float, options: EvalOptions
) -> DensityResult:
    t = require_interior_alcove(t)
    sin_pi_t = math.sin(math.pi * t)
    per_component = {
        label: poly.at(t, _select_branch(label, poly.mu, t, options)) / sin_pi_t
        for label, poly in compiled
    }
    total = _fsum(per_component.values())
    if not math.isfinite(total):
        raise _overflow(DensityOverflowError, f"density at t = {t}")
    return DensityResult(t, total, per_component, residual)


def density(space: QHSpace, t: float, options: EvalOptions = DEFAULT_OPTIONS) -> DensityResult:
    """Density at exp(t*rho): sum of the per-component contributions."""
    return _evaluate(*_table(space, "interior", options), t, options)


def central_density(
    space: QHSpace, which: CentralElement, options: EvalOptions = DEFAULT_OPTIONS
) -> float:
    """Density at +e or -e: the rows' linear coefficients on that branch, over pi.

    Valid only when the central element is a regular value of the moment
    map, which the caller asserts.  Localization data refute this hypothesis
    when a component sits at the element (mu = 0 at +e, mu = 1 at -e), but
    cannot confirm it.
    """
    branch = "below" if which is CentralElement.IDENTITY else "above"
    compiled, _ = _table(space, branch, options)
    total = _fsum([getattr(poly, branch)[0] / math.pi for _, poly in compiled])
    if not math.isfinite(total):
        raise _overflow(DensityOverflowError, f"density at {which.value}")
    return total


def interior_volume(space: QHSpace, t: float, density_value: float) -> float:
    """Reduced volume k * (2*sin(pi*t)/sqrt(2)) * density at an interior t."""
    volume = space.stabilizer_order * (2.0 * math.sin(math.pi * t) / VOL_T) * density_value
    if not math.isfinite(volume):
        raise _overflow(DensityOverflowError, f"volume at t = {t}")
    return volume


def reduced_volume(
    space: QHSpace, at: float | CentralElement, options: EvalOptions = DEFAULT_OPTIONS
) -> float:
    """Symplectic volume of the reduced space at exp(t*rho) or at +-e."""
    if isinstance(at, CentralElement):
        density_value = central_density(space, at, options)
        volume = space.stabilizer_order * (2.0 * math.pi / VOL_T) * density_value
        if not math.isfinite(volume):
            raise _overflow(DensityOverflowError, f"volume at {at.value}")
        return volume
    result = density(space, at, options)
    return interior_volume(space, result.t, result.total)


@dataclass(slots=True)
class ScanPoint:
    """One grid point of a density scan; exactly one of result/error is set."""

    t: float
    result: DensityResult | None
    volume: float | None
    error: str | None = None


def scan(
    space: QHSpace,
    t_grid: Iterable[float] | Sequence[float],
    options: EvalOptions = DEFAULT_OPTIONS,
    fail_fast: bool = False,
) -> list[ScanPoint]:
    """Evaluate density and volume over a grid, collecting per-point errors.

    With ``fail_fast`` false (the default) wall hits and points outside the
    alcove become error rows instead of aborting the scan; grid order is
    preserved.  Non-real data raise ``NonRealDensityError`` before any point.
    """
    compiled, residual = _table(space, "interior", options)
    points: list[ScanPoint] = []
    for t in t_grid:
        try:
            result = _evaluate(compiled, residual, t, options)
            volume = interior_volume(space, result.t, result.total)
            points.append(ScanPoint(result.t, result, volume))
        except (WallError, AlcoveRangeError) as exc:
            if fail_fast:
                raise
            points.append(ScanPoint(float(t), None, None, str(exc)))
    return points
