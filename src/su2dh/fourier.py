"""Independent density evaluation through Fourier localization.

The Fourier coefficient of the density against the irreducible character
chi_n (highest weight n*rho, dim V_n = n + 1) localizes on the fixed-point
components:

    <density, chi_n> = (n+1) * sum_F [ sum_k c_k (n+1)^{-k} ] * e^{pi*i*(n+1)*mu_F}

where the sum runs over the *full* fixed-point family: each stored
non-central component together with its Weyl-reflected partner, central
components once.  The partner has mu -> -mu and I_{F'}(z) = I_F(-z), so its
term is the component's own pole function evaluated at -(n+1), with the
conjugate phase.  The density is then reconstructed as the character series

    density(exp(t*rho)) = (2*pi/sqrt(2)) * sum_n <density, chi_n> * chi_n(exp(t*rho)),

with chi_n(exp(t*rho)) = sin(pi*(n+1)*t)/sin(pi*t) from the Weyl character
formula (characters are real, so no conjugation is needed).  Both dim V_n and
chi_n are computed from these formulas, never tabulated.

The arithmetic is real.  `_fold` folds a pair's two terms into real
polynomials in 1/(n+1) times cos and sin of pi*mu*(n+1), and `_phases` gives
those phases, and the characters' sines, from exactly reduced tables, so no
rounded angle larger than pi/4 reaches cos or sin, at any n.  Where
(pi*t*terms)^2 < 2^-53 each character rounds to n + 1, and the weights
n + 1 are used in its place; a subnormal t, whose reduced angles would lose
their precision, is among these.
`fourier_coefficient` runs the same fold in Python floats at the exact
integer n + 1, with its one phase reduced by one divmod.

Phases.  For x = p/q, w = n + 1 is split as 1 + j + block*m with
block = ceil(sqrt(terms)), and the phases of the about 2*sqrt(terms) values
k = 1..block and k = block*m are reduced exactly: with M = 8q, the integer
4*p*k + q mod M gives the quadrant of x*k, as its quotient by 2q, and the
angle left, as its remainder less q.  `_turns` reduces each table's start
and stride mod M once, in Python ints, and forms the table's values in one
numpy pass in uint64, read as int64.  Each value is below M*block, so it is
exact while M*block < 2^63, which every mu of small denominator meets.
When M is a power of two up to 2^64, as it is for Fraction(t) of every
float t >= 2^-9, a wrap-around, or the read as int64, changes a value by a
multiple of 2^64, which is a multiple of 4*2q: its remainder by 2q and its
quotient mod 4 do not change.  Any other x forms the same rows in Python
ints, as a numpy object array.  One complex exp gives both tables'
phases, and one matrix product per table of cos or sin combines them by
angle addition.  `reconstruct_density` asks for the sines alone, which are
the same product as the sine rows of the full table, so the same bits.

Allocation.  A coefficient build allocates the real parts, which the space
keeps, and one block of five rows: u = 1/w, v = u^2, the imaginary parts
and `_fold`'s two scratch rows.  Each component is folded into them in
place, by the operations of the float fold in the same order, so every
value has the same bits; only `_phases` allocates per component.
`reconstruct_density` divides and multiplies in its own sine table and sums
each damped series through one scratch array, and never writes to a stored
array.  The reason is glibc's heap: it returns the freed pages at its top
to the system once they exceed its trim threshold, and the next space faults
them back in.  With glibc 2.36 on a 2-core x86-64 VM, a build of fresh
80 KB temporaries (1.0 MB at the peak for three components) cost 120-145
minor faults per `dual-path` op.  The rows are one block because the block,
400 KB at the default 10,000 terms, lies above glibc's mmap threshold
(128 KB by default): its first free raises that threshold to its size, and
the trim threshold to twice that, past a build's working set, so later
builds take it from the heap and never trim it.  Five separate rows still
took about 45 faults per op in a fresh process; the block takes none after
the first build.

The coefficients do not depend on t.  `reconstruct_density` computes those
for n < terms once per space object and term count, and stores them on the
space (see `model`), so the calls of a grid, or of both paths on one space,
compute them once.  Their real and imaginary parts are judged together: the
space stores the relative imaginary residual max_n |Im c_n| / max_n |c_n|
(exactly 0 for reflection-symmetric data), and a residual above
`EvalOptions.imag_tolerance` is refused with `NonRealDensityError`, as the
residue path refuses a branch.  Only the real parts are kept: they are
read-only and take 8 bytes per term for each term count used, on each live
space, 80 KB at the default 10,000 terms.  The damping arrays depend only on
the `SummationMethod`, so a small cache keeps them per method.  Only the
characters and the damped sums are computed per point, so a call on a warm
space gives the same value, to the bit, as one on a cold space.

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
occurring in this problem class.  Its Gauss-Legendre nodes and weights are
Python floats from Newton's method on the Legendre recurrence (`_gauss_nodes`),
built once per point count in O(points^2), so `QuadratureRule` takes at most
1024 points.  An integrand value that is not finite is refused at once.

numpy is imported inside the functions that build arrays, not at module
level, because `import su2dh`, the residue path and the CLI must start
without it; `fourier_coefficient` and `coefficient_quadrature` never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from .expsum import _overflow, _parity_rows, _poly
from .extrapolation import abel_ladder, extrapolate_to_zero
from .model import VOL_G, VOL_T, FixedComponent, QHSpace, require_interior_alcove
from .residue import DEFAULT_OPTIONS, DensityOverflowError, EvalOptions, NonRealDensityError

if TYPE_CHECKING:
    import numpy as np

_RECONSTRUCTION_FACTOR = 2.0 * math.pi / VOL_T

_KINDS = ("partial", "abel", "cesaro")


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


def _turn_scale(turns, q: int) -> tuple:
    """The numerators r - q of pi*y, and their scale pi/(4q), as `_turns` defines them.

    For a q too large for 4q to convert to a float they are returned as the
    quotients (r - q)/(4q), with the scale pi.  ``turns`` is a Python int or
    an array of them.
    """
    if q.bit_length() > 1000:  # 4q would not convert to a float
        return turns / (4 * q), math.pi
    return turns, math.pi / (4 * q)


_UNITS = (1, 1j, -1, -1j)  # i^n for the quadrant n mod 4


def _turns(x: Fraction, block: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Quadrants n mod 4, numerators of pi*y and their scale, for x*k = n/2 + y, -1/4 <= y < 1/4.

    k runs over 1..block and over 0, block, ..., as two rows of block, and
    e^{pi*i*x*k} is i^n e^{pi*i*y}.  With x = p/q the reduction is exact, in
    integers: 4*p*k + q = 2*q*n + r with 0 <= r < 2q gives pi*y = (r - q) *
    pi/(4q) (see `_turn_scale`).  Only the angle, at most pi/4 in size, is
    rounded, so a multiple of a quarter turn gives its cos and sin exactly.
    Only 4*p*k + q mod M = 8q matters, so each row's start and stride are
    reduced mod M in Python ints, and the row start + i*stride, i < block, is
    formed in one numpy pass: in uint64 read as int64 where that is exact
    (see the module docstring), else in Python ints.
    """
    import numpy as np

    p, q = x.numerator, x.denominator
    modulus = 8 * q
    fits = modulus * block < 2**63 or (modulus <= 2**64 and not modulus & (modulus - 1))
    dtype = np.uint64 if fits else object
    starts = np.array([[(4 * p + q) % modulus], [q]], dtype=dtype)
    strides = np.array([[4 * p % modulus], [4 * p * block % modulus]], dtype=dtype)
    values = np.arange(block, dtype=dtype) * strides + starts
    if fits:
        # a wrapped value v reads as v - 2^64 in int64, the same mod 8q, as 8q divides 2^64
        quadrants, turns = np.divmod(values.view(np.int64), 2 * q)
    else:
        # numpy's divmod has no loop for Python ints
        quadrants, turns = (values // (2 * q)).astype(np.int64), values % (2 * q)
    turns, scale = _turn_scale(turns - q, q)
    return quadrants & 3, turns.astype(float), scale


def _phases(x: Fraction, terms: int, sine_only: bool = False) -> tuple[np.ndarray, ...]:
    """cos(pi*x*w) and sin(pi*x*w), or only the sines, for w = 1..terms, for an exact rational x.

    With block = ceil(sqrt(terms)), w = 1 + j + block*m with j < block, so
    each angle is the sum of a low one, for k = 1..block, and a high one, for
    k = block*m.  `_turns` reduces both, and one complex exp gives their
    phases.  Angle addition combines them: each of cos and sin is the sum of
    two outer products, one matrix product of (count, 2) high rows by the
    (2, block) low ones.
    """
    import numpy as np

    block = math.isqrt(terms - 1) + 1
    quadrants, turns, scale = _turns(x, block)
    phases = np.exp(1j * scale * turns) * np.array(_UNITS)[quadrants]
    low, high = phases[0], phases[1, : -(-terms // block)]
    sines = [high.imag, high.real]
    rows = [sines] if sine_only else [[high.real, -high.imag], sines]
    table = np.array(rows).transpose(0, 2, 1) @ np.array([low.real, low.imag])
    return tuple(row.ravel()[:terms] for row in table)


def _fold(component: FixedComponent, u, v, cos, sin, real, imag, scratch) -> tuple:
    """real + Re and imag + Im of the term of one component's full family in <density, chi_n>.

    Here u = 1/w with w = n + 1, v = u^2 and cos + i*sin = e^{pi*i*mu*w}.
    Split w*I_F(w) = sum_k a_k u^{k-1} = E + O into the even orders,
    E = u * sum_j a_{2j+2} v^j, and the odd ones, O = v * sum_j a_{2j+3} v^j:
    real polynomials in v for the real and the imaginary parts, the rows of
    `expsum._parity_rows` with the odd orders from 3.  The Weyl
    partner adds w*I_F(-w) e^{-pi*i*mu*w}, and w*I_F(-w) = E - O, so a
    non-central pair gives 2*E*cos + 2i*O*sin, whose parts are twice
    Re E*cos + (-Im O)*sin and Im E*cos + Re O*sin.  A central component is
    its own partner, and its sin is 0, so it gives (E + O)*cos.  Each
    component stores the two rows of (E, O) coefficients that its parts take.

    u, v, the phases and the totals are floats, with ``scratch`` (None, None),
    or arrays.  Then ``scratch`` is two rows that hold E and O, and every
    step, the update of the totals included, is in place: the float steps in
    the same order, so each element gets the same bits.  An E or O with no
    nonzero coefficient is skipped.  That changes at most the sign of a zero
    that the update drops, since a total, starting at 0.0, is never -0.0.
    """
    rows = component._compiled.get("fold")
    if rows is None:
        even_re, even_im, odd_re, odd_im = _parity_rows(component.euler_integral, 3)
        if component.central:
            rows = (even_re, odd_re), (even_im, odd_im)
        else:
            rows = (even_re, tuple(-a for a in odd_im)), (even_im, odd_re)
        component._compiled["fold"] = rows
    odd_phase = cos if component.central else sin
    totals = []
    for total, (even, odd) in zip((real, imag), rows):
        value = _poly(even, v, u, out=scratch[0])
        if value is not None:
            value *= cos
        other = _poly(odd, v, v, out=scratch[1])
        if other is not None:
            other *= odd_phase
            if value is None:
                value = other
            else:
                value += other
        if value is not None:
            if not component.central:
                # the sum is formed before the doubling, which overflows only with it
                value *= 2.0
            total += value
        totals.append(total)
    return tuple(totals)


def _localization_terms(
    components: Sequence[FixedComponent], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Re and Im of <density, chi_n> for n + 1 = weights, the floats 1..len(weights).

    The real parts, which the space keeps, are allocated alone.  u, v, the
    imaginary parts and `_fold`'s two scratch rows are the rows of one block
    (see the module docstring for why one), and every component is folded
    into them in place.
    """
    import numpy as np

    block = np.empty((5, len(weights)))
    u, v, imag, *scratch = block
    np.divide(1.0, weights, out=u)
    np.multiply(u, u, out=v)
    imag.fill(0.0)
    real = np.zeros(weights.shape)
    for comp in components:
        real, imag = _fold(comp, u, v, *_phases(comp.mu, len(weights)), real, imag, scratch)
    return real, imag


def _coefficients(space: QHSpace, terms: int) -> tuple[np.ndarray, float]:
    """Read-only <density, chi_n> for n < terms, and their realness, stored on the space.

    The coefficients are built as real and imaginary parts, and the second
    value is max_n |Im c_n| / max_n |c_n| (0 if all vanish, inf if one
    overflowed).  Only the real parts are stored.
    """
    entry = space._compiled.get(("fourier", terms))
    if entry is None:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
            real, imag = _localization_terms(
                space.components, np.arange(1, terms + 1, dtype=float)
            )
            if imag.any():
                # NaN and inf propagate to the largest size
                size, peak = float(np.max(np.hypot(real, imag))), float(np.max(np.abs(imag)))
            else:
                # hypot(x, 0) = |x|, and a NaN propagates to both max and min
                size, peak = max(float(real.max()), -float(real.min())), 0.0
        if not math.isfinite(size):
            residual = math.inf
        else:
            residual = peak / size if size else 0.0
        real.flags.writeable = False
        entry = space._compiled[("fourier", terms)] = real, residual
    return entry


# Bounded, because a caller may try many methods.  An entry holds 8 bytes per
# term for each damping - 1 array: 240 KB for the default Abel ladder at
# 10,000 terms.
@lru_cache(maxsize=4)
def _ladder(method: SummationMethod) -> tuple[tuple[float, np.ndarray | float], ...]:
    """The method's (node, damping - 1) pairs, with read-only arrays.

    The pairs are the extrapolation node h and the damping of term n less
    1, which is what `reconstruct_density` sums against.  A single pair
    extrapolates to itself.
    """
    import numpy as np

    n_terms = method.terms
    n_index = np.arange(n_terms, dtype=float)
    if method.kind == "partial":
        ladder: tuple = ((1.0, 1.0),)
    elif method.kind == "cesaro":
        ladder = ((1.0, 1.0 - n_index / n_terms),)
    else:
        ladder = tuple((1.0 - r, np.exp(n_index * math.log(r))) for r in method.abel_r)
    ladder = tuple((h, damping - 1.0) for h, damping in ladder)
    for _, excess in ladder:
        if isinstance(excess, np.ndarray):
            excess.flags.writeable = False
    return ladder


def fourier_coefficient(space: QHSpace, n: int) -> complex:
    """Localization value of <density, chi_n> for one n >= 0.

    It is the fold of `_coefficients` for the exact weight w = n + 1, in
    Python floats, with each phase reduced exactly at w.  A value that is
    not finite raises `DensityOverflowError`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("n must be an integer >= 0")
    w = n + 1
    u = 1 / w
    real = imag = 0.0
    for comp in space.components:
        p, q = comp.mu.numerator, comp.mu.denominator
        quadrant, turn = divmod(4 * p * w + q, 2 * q)
        turn, scale = _turn_scale(turn - q, q)
        c, s = math.cos(turn * scale), math.sin(turn * scale)
        phase = ((c, s), (-s, c), (-c, -s), (s, -c))[quadrant & 3]
        real, imag = _fold(comp, u, u * u, *phase, real, imag, (None, None))
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise DensityOverflowError(
            f"numeric overflow: space {space.name!r} has a non-finite Fourier coefficient "
            f"at n = {n}"
        )
    return complex(real, imag)


def reconstruct_density(
    space: QHSpace,
    t: float,
    method: SummationMethod = SummationMethod(),
    options: EvalOptions = DEFAULT_OPTIONS,
) -> float:
    """Sum the character series for the density at exp(t*rho), 0 < t < 1.

    The coefficients <density, chi_n>, n < ``method.terms``, do not depend
    on ``t``; they are computed on the first call and stored on the space
    object, so a grid of calls on it computes them once.  Their relative
    imaginary residual max_n |Im c_n| / max_n |c_n| is judged against
    ``options.imag_tolerance`` (the wall policy plays no part here), and
    :class:`NonRealDensityError` is raised above it.  The characters come
    from the sines of `_phases` at ``Fraction(t)``, or at a t so small that
    they round to n + 1, are n + 1; the sums are real.
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
    if (math.pi * t * method.terms) ** 2 < 2.0**-53:
        # chi_n(t) = (n+1) * (1 - O((pi*(n+1)*t)^2)) rounds to n + 1.  This also keeps a
        # subnormal t exact, whose sines below would be rounded one by one.
        base_terms = coefficients * np.arange(1.0, method.terms + 1)
    else:
        # chi_n(t) = sin(pi*(n+1)*t) / sin(pi*t), and sin(pi*t) is the first sine; the
        # table is this call's own, so the terms are built in it
        (base_terms,) = _phases(Fraction(t), method.terms, sine_only=True)
        base_terms /= base_terms[0]
        base_terms *= coefficients
    scratch = np.empty_like(base_terms)
    # Each damping is 1 - O(n) near n = 0, so the undamped sum is split off: the large
    # early terms enter it alone, not every node's sum, whose rounding Richardson's
    # weights amplify.  The Neville step maps the constant undamped part to itself.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
        undamped = _RECONSTRUCTION_FACTOR * float(np.add.reduce(base_terms))
        samples = []
        for h, excess in _ladder(method):
            np.multiply(base_terms, excess, out=scratch)
            samples.append((h, _RECONSTRUCTION_FACTOR * float(np.add.reduce(scratch))))
    change, _ = extrapolate_to_zero(samples)
    value = undamped + change.real
    if not math.isfinite(value):
        raise _overflow(DensityOverflowError, f"Fourier density at t = {t}")
    return value


# Panel doubling stops when two estimates agree to these tolerances; the
# interval is clipped to [_QUAD_CLIP, 1 - _QUAD_CLIP].
_QUAD_REL_TOL = 1e-11
_QUAD_ABS_TOL = 1e-12
_QUAD_CLIP = 1e-9
# The nodes cost O(points^2) to build in Python: about 0.5-0.9 s at this bound.
_QUAD_MAX_POINTS = 1024


@dataclass(frozen=True)
class QuadratureRule:
    """Adaptive composite Gauss-Legendre configuration."""

    points: int = 64
    max_refinements: int = 12

    def __post_init__(self) -> None:
        points, refinements = self.points, self.max_refinements
        if not isinstance(points, int) or isinstance(points, bool) or points < 2:
            raise ValueError("quadrature needs at least 2 points per panel")
        if points > _QUAD_MAX_POINTS:
            raise ValueError(
                f"quadrature takes at most {_QUAD_MAX_POINTS} points per panel, got {points}"
            )
        if not isinstance(refinements, int) or isinstance(refinements, bool) or refinements < 1:
            raise ValueError("max_refinements must be an integer >= 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels: int


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence, in floats."""
    p0, p1 = 1.0, x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, p0


def _legendre_fixed(n: int, x: float) -> tuple[float, float]:
    """`_legendre` in integers scaled by 2^128, each value rounded once to a float.

    x is a float, so it is exact at this scale, and each step adds an error
    of under two units of 2^-128.
    """
    numerator, denominator = x.as_integer_ratio()
    one = 1 << 128
    scaled = (numerator << 128) // denominator
    p0, p1 = one, scaled
    for k in range(1, n):
        p0, p1 = p1, (((2 * k + 1) * scaled * p1 >> 128) - k * p0) // (k + 1)
    return p1 / one, p0 / one


@lru_cache(maxsize=8)
def _gauss_nodes(points: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1], in Python floats.

    Each positive root x of P_n is found by Newton's method from
    cos(pi*(i + 3/4)/(n + 1/2)), with P_n'(x) = n*(x*P_n - P_{n-1})/(x^2 - 1),
    until the step stops shrinking.  One last step takes P_n and P_{n-1}
    from `_legendre_fixed`, and so does the weight 2/((1 - x^2)*P_n'(x)^2),
    to first order at the root: against a 40-digit reference the nodes are
    within half an ulp and the weights within a few.  A node -x pairs with
    each x, and an odd count has the middle node 0.0.  The cost is
    O(points^2).
    """
    n = points
    roots = [math.cos(math.pi * (i + 0.75) / (n + 0.5)) for i in range(n // 2)]
    nodes, weights = [0.0] * n, [0.0] * n
    for i, x in enumerate(roots + [0.0] * (n % 2)):
        last = math.inf
        while x:
            p, q = _legendre(n, x)
            step = p * (x - 1.0) * (x + 1.0) / (n * (x * p - q))
            if not abs(step) < last:
                break
            x, last = x - step, abs(step)
        p, q = _legendre_fixed(n, x)
        dp = n * (x * p - q) / ((x - 1.0) * (x + 1.0))
        # (1 - r^2) P_n'(r)^2 at the root r = x - p/dp, to first order in p/dp
        denominator = (1.0 - x) * (1.0 + x) * dp * dp - 2.0 * x * p * dp
        weights[i] = weights[n - 1 - i] = 2.0 / denominator
        x -= p / dp
        nodes[i], nodes[n - 1 - i] = -x, x
    return tuple(nodes), tuple(weights)


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
        value = VOL_G * density_values(t) * 2.0 * math.sin(weight * t) * math.sin(math.pi * t)
        if not math.isfinite(value):
            raise QuadratureError(f"the integrand is not finite at t = {t!r}: {value!r}")
        return value

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
        f"last refinement changed the value by {disagreement:.3e}"
    )
