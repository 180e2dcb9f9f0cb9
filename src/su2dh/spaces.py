"""Built-in spaces with closed-form answers, used as golden references.

Two families are provided:

* the four-sphere with SU(2) acting by rotations, whose reduced spaces are
  points (volume 1), and
* the fusion products SU(2)^{2n} built from n copies of the conjugation
  double, whose reduced spaces are moduli-space orbifolds; for n = 1 the
  reduced volume is 1 - t, matching the classical moduli-volume answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .model import FixedComponent, QHSpace


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
