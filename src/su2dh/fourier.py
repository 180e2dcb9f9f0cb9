"""Independent density evaluation through Fourier localization.

The Fourier coefficient of the density against the irreducible character
chi_n (highest weight n*rho, dim V_n = n + 1) localizes on the fixed-point
components:

    <density, chi_n> = (n+1) * sum_F [ sum_k c_k (n+1)^{-k} ] * e^{pi*i*(n+1)*mu_F}

where the sum runs over the *full* fixed-point family: each stored
non-central component together with its Weyl-reflected partner, central
components once.  The partner has mu -> -mu and I_{F'}(z) = I_F(-z), so its
term is the component's own pole function (`RationalPoleFunction`)
evaluated at -(n+1).  The density is then reconstructed as the character series

    density(exp(t*rho)) = (2*pi/sqrt(2)) * sum_n <density, chi_n> * chi_n(exp(t*rho)),

with chi_n(exp(t*rho)) = sin(pi*(n+1)*t)/sin(pi*t) from the Weyl character
formula (characters are real, so no conjugation is needed).  Both dim V_n and
chi_n are computed from these formulas, never tabulated.

The coefficients do not depend on t.  `reconstruct_density` computes those
for n < terms once per space object and term count, and stores them on the
space (see `model`), so the calls of a grid, or of both paths on one space,
compute them once.  They are read-only and take 16 bytes per term for each
term count used, on each live space: 160 KB at the default 10,000 terms.
With them the space stores their relative imaginary residual
max_n |Im c_n| / max_n |c_n|; reflection-symmetric data give about 1e-15,
and a residual above `EvalOptions.imag_tolerance` is refused with
`NonRealDensityError`, as the residue path refuses a branch.  The weights
n + 1 and the damping arrays depend only on the `SummationMethod`, so a small
cache keeps them per method.  Only the characters and the damped sums are
computed per point, so a call on a warm space gives the same value, to the
bit, as one on a cold space.

For minimal-codimension data (coefficients starting at z^{-2}) the series is
only conditionally convergent, so summation methods are provided: plain
partial sums, Abel damping r^n with Richardson extrapolation in 1 - r
over the radii in `SummationMethod.abel_r` (the default, the ladder of
`extrapolation.abel_ladder`; Abel summation recovers the pointwise value at
smooth points), and Cesaro (C,1) means.

`coefficient_quadrature` closes the loop in the other direction: it recovers
the coefficient of a given density function by Weyl integration over the
alcove,

    <density, chi_n> = Vol G * integral_0^1 density(t) * chi_n(t) * 2*sin^2(pi*t) dt,

with the character and weight folded together analytically as
2*sin(pi*(n+1)*t)*sin(pi*t), which cancels the only endpoint singularities
occurring in this problem class.

numpy is imported inside the functions that build arrays, not at module
level, because `import su2dh`, the residue path and the CLI must start
without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .expsum import RationalPoleFunction
from .extrapolation import abel_ladder, extrapolate_to_zero
from .model import VOL_G, VOL_T, FixedComponent, QHSpace, require_interior_alcove
from .residue import DEFAULT_OPTIONS, DensityOverflowError, EvalOptions, NonRealDensityError

if TYPE_CHECKING:
    import numpy as np

_RECONSTRUCTION_FACTOR = 2.0 * math.pi / VOL_T

_KINDS = ("partial", "abel", "cesaro")


class SummationError(ArithmeticError):
    """Raised when a summation configuration fails its convergence check."""


class QuadratureError(ArithmeticError):
    """Raised when adaptive quadrature refinements fail to settle."""


@dataclass(frozen=True)
class SummationMethod:
    """How to sum the character series.

    ``abel_r`` holds the Abel damping radii, used directly as Richardson
    extrapolation nodes in h = 1 - r.  The default is the doubling ladder
    ``1 - h for h in abel_ladder(0.999, 2)``, about 0.999, 0.998, 0.996; see
    :func:`su2dh.extrapolation.abel_ladder`.  ``kind`` "partial" and
    "cesaro" ignore ``abel_r``.
    """

    kind: str = "abel"
    terms: int = 10_000
    abel_r: tuple[float, ...] = tuple(1.0 - h for h in abel_ladder(0.999, 2))

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"summation kind must be one of {_KINDS}, got {self.kind!r}")
        if not isinstance(self.terms, int) or isinstance(self.terms, bool) or self.terms < 1:
            raise ValueError("terms must be an integer >= 1")
        if not isinstance(self.abel_r, (tuple, list)) or not self.abel_r:
            raise ValueError(f"abel_r must be a nonempty tuple of radii, got {self.abel_r!r}")
        object.__setattr__(self, "abel_r", tuple(float(r) for r in self.abel_r))
        for r in self.abel_r:
            if not (0.0 < r < 1.0):
                raise ValueError(f"abel_r values must lie in (0, 1), got {r!r}")
        if len({1.0 - r for r in self.abel_r}) != len(self.abel_r):
            raise ValueError(f"abel_r must give distinct nodes 1 - r, got {self.abel_r!r}")


def _localization_terms(components: Sequence[FixedComponent], weights: np.ndarray) -> np.ndarray:
    """Coefficients <density, chi_n> for n + 1 = weights (a float array).

    The Weyl partner F' of a non-central component has mu_{F'} = -mu_F and
    I_{F'}(z) = I_F(-z), so it is the same pole function evaluated at -w,
    with the conjugate phase.
    """
    import numpy as np

    total = np.zeros(weights.shape, dtype=complex)
    for comp in components:
        f_pos, f_neg = RationalPoleFunction(comp.euler_integral)._both_signs(weights)
        phase = np.exp(1j * math.pi * float(comp.mu) * weights)
        total += weights * f_pos * phase
        if not comp.central:
            total += weights * f_neg * np.conj(phase)
    return total


def _coefficients(space: QHSpace, terms: int) -> tuple[np.ndarray, float]:
    """Read-only <density, chi_n> for n < terms, and their realness, stored on the space.

    The second value is max_n |Im c_n| / max_n |c_n| (0 if all vanish, inf
    if one overflowed).
    """
    entry = space._compiled.get(("fourier", terms))
    if entry is None:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
            values = _localization_terms(space.components, np.arange(1, terms + 1, dtype=float))
        values.flags.writeable = False
        if not np.all(np.isfinite(values)):
            residual = math.inf
        else:
            size = np.max(np.abs(values))
            residual = float(np.max(np.abs(values.imag)) / size) if size else 0.0
        entry = space._compiled[("fourier", terms)] = values, residual
    return entry


# Bounded, because a caller may try many methods.  An entry holds 8 bytes per
# term for the weights and 8 more per damping array: 320 KB for the default
# Abel ladder at 10,000 terms.
@lru_cache(maxsize=4)
def _ladder(
    method: SummationMethod,
) -> tuple[np.ndarray, tuple[tuple[float, np.ndarray | float], ...]]:
    """Read-only weights n + 1 for n < terms, and the method's (node, damping) pairs.

    The pairs are the extrapolation node h and the damping of term n.  A
    single pair extrapolates to itself, with a NaN correction that never
    trips the tolerance check.
    """
    import numpy as np

    n_terms = method.terms
    weights = np.arange(1, n_terms + 1, dtype=float)
    n_index = np.arange(n_terms, dtype=float)
    if method.kind == "partial":
        ladder: tuple = ((1.0, 1.0),)
    elif method.kind == "cesaro":
        ladder = ((1.0, 1.0 - n_index / n_terms),)
    else:
        ladder = tuple((1.0 - r, np.exp(n_index * math.log(r))) for r in method.abel_r)
    for array in (weights, *(damping for _, damping in ladder)):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return weights, ladder


def fourier_coefficient(space: QHSpace, n: int) -> complex:
    """Localization value of <density, chi_n> for one n >= 0."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("n must be an integer >= 0")
    import numpy as np

    value = _localization_terms(space.components, np.array([float(n + 1)]))
    return complex(value[0])


def reconstruct_density(
    space: QHSpace,
    t: float,
    method: SummationMethod = SummationMethod(),
    convergence_tol: float | None = None,
    options: EvalOptions = DEFAULT_OPTIONS,
) -> float:
    """Sum the character series for the density at exp(t*rho), 0 < t < 1.

    The coefficients <density, chi_n>, n < ``method.terms``, do not depend
    on ``t``; they are computed on the first call and stored on the space
    object, so a grid of calls on it computes them once.  Their relative
    imaginary residual max_n |Im c_n| / max_n |c_n| is judged against
    ``options.imag_tolerance`` (the wall policy plays no part here), and
    :class:`NonRealDensityError` is raised above it.

    With ``convergence_tol`` set, Abel extrapolation raises
    :class:`SummationError` when the last two Richardson levels disagree by
    more than ten times the target tolerance.
    """
    import numpy as np

    t = require_interior_alcove(t)
    coefficients, residual = _coefficients(space, method.terms)
    if residual == math.inf:
        raise DensityOverflowError(
            f"numeric overflow: space {space.name!r} has non-finite Fourier coefficients"
        )
    if residual > options.imag_tolerance:
        raise NonRealDensityError(
            f"non-real density (check input data): space {space.name!r} has Fourier "
            f"coefficients with relative imaginary residual {residual:.3e}"
        )
    weights, ladder = _ladder(method)
    characters = np.sin(math.pi * t * weights) / math.sin(math.pi * t)
    base_terms = coefficients * characters
    samples = [
        (h, _RECONSTRUCTION_FACTOR * complex(np.sum(base_terms * damping)))
        for h, damping in ladder
    ]
    value, last_change = extrapolate_to_zero(samples)
    if not cmath.isfinite(value):
        raise DensityOverflowError(f"numeric overflow: Fourier density at t = {t} is not finite")
    if convergence_tol is not None and last_change > 10.0 * convergence_tol:
        raise SummationError(
            f"Abel/Richardson levels disagree by {last_change:.3e}, "
            f"more than 10x the target tolerance {convergence_tol:.3e}"
        )
    return value.real


# Panel doubling stops when two estimates agree to these tolerances; the
# interval is clipped to [_QUAD_CLIP, 1 - _QUAD_CLIP].
_QUAD_REL_TOL = 1e-11
_QUAD_ABS_TOL = 1e-12
_QUAD_CLIP = 1e-9


@dataclass(frozen=True)
class QuadratureRule:
    """Adaptive composite Gauss-Legendre configuration."""

    points: int = 64
    max_refinements: int = 12

    def __post_init__(self) -> None:
        points, refinements = self.points, self.max_refinements
        if not isinstance(points, int) or isinstance(points, bool) or points < 2:
            raise ValueError("quadrature needs at least 2 points per panel")
        if not isinstance(refinements, int) or isinstance(refinements, bool) or refinements < 1:
            raise ValueError("max_refinements must be an integer >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


@lru_cache(maxsize=8)
def _gauss_nodes(points: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(points)
    return nodes, weights


def _composite_gauss(
    integrand: Callable[[float], float], a: float, b: float, panels: int, points: int
) -> float:
    nodes, weights = _gauss_nodes(points)
    width = (b - a) / panels
    total = 0.0
    for p in range(panels):
        left = a + p * width
        mid = left + 0.5 * width
        half = 0.5 * width
        total += half * math.fsum(
            w * integrand(mid + half * x) for x, w in zip(nodes, weights)
        )
    return total


def coefficient_quadrature(
    density_values: Callable[[float], float],
    n: int,
    quad: QuadratureRule = QuadratureRule(),
) -> QuadratureResult:
    """Coefficient <density, chi_n> of a density function by Weyl integration.

    The density callable only needs to be finite on the open alcove; the
    integration interval is clipped to [1e-9, 1 - 1e-9] and the character
    weight 2*sin(pi*(n+1)*t)*sin(pi*t) suppresses the endpoints, so densities
    blowing up like 1/sin(pi*t) integrate cleanly.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("n must be an integer >= 0")

    weight = math.pi * (n + 1)

    def integrand(t: float) -> float:
        return VOL_G * density_values(t) * 2.0 * math.sin(weight * t) * math.sin(math.pi * t)

    a = _QUAD_CLIP
    b = 1.0 - _QUAD_CLIP
    previous: float | None = None
    panels = 1
    for _ in range(quad.max_refinements + 1):
        current = _composite_gauss(integrand, a, b, panels, quad.points)
        if previous is not None:
            disagreement = abs(current - previous)
            if disagreement <= max(_QUAD_ABS_TOL, _QUAD_REL_TOL * abs(current)):
                return QuadratureResult(
                    value=current, error_estimate=disagreement, panels=panels
                )
        previous = current
        panels *= 2
    raise QuadratureError(
        f"quadrature did not converge after {quad.max_refinements} refinements; "
        f"last refinement changed the value by {abs(current - previous):.3e}"
    )
