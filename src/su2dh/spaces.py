"""Built-in spaces with closed-form answers, used as golden references.

Two families are provided:

* the four-sphere with SU(2) acting by rotations, whose reduced spaces are
  points (volume 1), and
* the fusion products SU(2)^{2n} built from n copies of the conjugation
  double, whose reduced spaces are moduli-space orbifolds; for n = 1 the
  reduced volume is 1 - t, matching the classical moduli-volume answer.

`product_closed_form` evaluates the product-space density through an
independent code path: a direct power-series coefficient extraction on the
truncated-Laurent-series engine (`su2dh.series`), with its own prefactor
plumbing.  The residue path computes its coefficients from exact Bernoulli
values instead, so the two share no code, and this serves as a cross-check
oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import VOL_T, FixedComponent, QHSpace, require_interior_alcove
from .series import bose_kernel, exp_linear, mul, sin_linear


def make_s4() -> QHSpace:
    """Rotation four-sphere: two fixed points, at the identity and at -e.

    Both points have Euler class +-pi^2 z^2 at 2*pi*i*z*rho; the sign
    assignment below (+1/pi^2 at mu = 0, -1/pi^2 at mu = 1) is the one forced
    by the per-component densities (1-t)/(sqrt(2) sin(pi t)) and
    t/(sqrt(2) sin(pi t)).
    """
    pi2 = math.pi**2
    return QHSpace(
        name="s4",
        components=(
            FixedComponent("e", Fraction(0), {2: 1.0 / pi2}),
            FixedComponent("-e", Fraction(1), {2: -1.0 / pi2}),
        ),
        stabilizer_order=1,
    )


def make_product_space(n: int) -> QHSpace:
    """Fusion product SU(2)^{2n}: one central fixed component, a 2n-torus.

    The torus maps to the identity (mu = 0), its normal bundle is trivial
    with Euler class (2z)^{2n} pi^{2n}, and the integral of exp(omega) over
    it is (Vol T)^{2n} = 2^n, giving the single coefficient
    c_{2n} = 2^{-n} pi^{-2n}.  The generic stabilizer is the center, of
    order 2.  n = 1 is the conjugation double of SU(2).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"product space requires an integer n >= 1, got {n!r}")
    coeff = 2.0 ** (-n) * math.pi ** (-2 * n)
    return QHSpace(
        name=f"product:{n}",
        components=(FixedComponent("F", Fraction(0), {2 * n: coeff}),),
        stabilizer_order=2,
    )


def product_closed_form(n: int, t: float) -> float:
    """Product-space density via direct coefficient extraction.

    Evaluates  sqrt(2) * i * g_{2n-2} / (2^n * pi^{2n-2} * sin(pi*t))  where
    g_{2n-2} is the coefficient of z^{2n-2} in
    e^{pi*i*z} * sin(pi*(1-t)*z) / (e^{2*pi*i*z} - 1), i.e. the (2n-2)-nd
    derivative at 0 divided by (2n-2)!.  No numerical differentiation and no
    residue extraction are involved.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"closed form requires an integer n >= 1, got {n!r}")
    t = require_interior_alcove(t)
    high = 2 * n + 4
    g = mul(
        mul(exp_linear(1j * math.pi, high), sin_linear(math.pi * (1.0 - t), high)),
        bose_kernel(high),
    )
    coefficient = g.coefficient(2 * n - 2)
    value = VOL_T * (1j * coefficient) / (2.0**n * math.pi ** (2 * n - 2) * math.sin(math.pi * t))
    if abs(value.imag) > 1e-9 * (1.0 + abs(value.real)):
        raise ArithmeticError(
            f"closed form produced a non-real value (imag {value.imag:.3e})"
        )
    return value.real


def witten_volume_n1(t: float) -> float:
    """Classical moduli-volume answer for the n = 1 product space: 1 - t."""
    t = require_interior_alcove(t)
    return 1.0 - t


def builtin_space(selector: str) -> QHSpace:
    """Resolve a builtin selector: ``s4``, ``double``, or ``product:N``."""
    if selector == "s4":
        return make_s4()
    if selector == "double":
        return make_product_space(1)
    if selector.startswith("product:"):
        text = selector.split(":", 1)[1]
        try:
            n = int(text)
        except ValueError:
            raise ValueError(f"unknown builtin space {selector!r}") from None
        return make_product_space(n)
    raise ValueError(f"unknown builtin space {selector!r}")
