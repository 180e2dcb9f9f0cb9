"""Accuracy of the chamber polynomials and the lemma against high-precision mpmath.

The references use only mpmath: its Bernoulli polynomials at 50 or 80
digits, with the data's floats read exactly.  Nothing here shares code with
the library's exact-rational evaluation.
"""

import math
import random
from fractions import Fraction

import mpmath

from su2dh.expsum import RationalPoleFunction, exp_sum_residue
from su2dh.model import FixedComponent
from su2dh.residue import _compile, density
from su2dh.spaces import make_product_space
from conftest import exp_sum_reference

GRID = [i / 20 for i in range(1, 20)]


def branch_reference(mu: Fraction, coeffs: dict[int, complex], branch: str) -> list:
    """[x^(2j+1)] P of one branch in mpmath at the working precision.

    sqrt(2) * sum_k c_k pi^k i^n * -+half 2^n B_n(w/2) (-1)^j / (n! (2j+1)!),
    n = k - 2 - 2j, w = mu below the wall and mu + 1 above it.
    """
    w = mpmath.mpf(mu.numerator) / mu.denominator + (branch == "above")
    sign = (1 if branch == "above" else -1) * (mpmath.mpf(1) / 2 if mu in (0, 1) else 1)
    max_power = max(coeffs)
    out = []
    for j in range(max_power // 2):
        total = mpmath.mpc(0)
        for k, c in coeffs.items():
            n = k - 2 - 2 * j
            if n >= 0:
                rational = sign * 2**n * mpmath.bernpoly(n, w / 2) * (-1) ** j
                rational /= mpmath.factorial(n) * mpmath.factorial(2 * j + 1)
                total += mpmath.mpc(c) * mpmath.pi**k * mpmath.mpc(0, 1) ** n * rational
        out.append(mpmath.sqrt(2) * total)
    return out


def test_compiled_branches_match_fifty_digits():
    # 300 random complex components, mu at twentieths, powers 2-11: each
    # stored real part within 1e-13 of the branch's largest coefficient
    rng = random.Random(9_031)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(300):
            mu = Fraction(rng.randint(0, 20), 20)
            powers = sorted(rng.sample(range(2, 12), k=rng.randint(1, 4)))
            coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in powers}
            poly = _compile(FixedComponent("c", mu, coeffs))
            for branch in ("below", "above"):
                reference = branch_reference(mu, coeffs, branch)
                size = max(abs(r) for r in reference)
                if size == 0:
                    assert set(getattr(poly, branch)) == {0.0}
                    continue
                for value, r in zip(getattr(poly, branch), reference):
                    worst = max(worst, float(abs(value - r.real) / size))
    assert worst <= 1e-13


def test_products_match_eighty_digits():
    # product:1..30 on the 19-point grid; mu = 0 < t, so the above branch
    worst = 0.0
    with mpmath.workdps(80):
        for n in range(1, 31):
            space = make_product_space(n)
            (component,) = space.components
            reference = branch_reference(component.mu, component.euler_integral, "above")
            for t in GRID:
                s = 1 - mpmath.mpf(t)
                exact = mpmath.fsum(c.real * s ** (2 * j + 1) for j, c in enumerate(reference))
                exact /= mpmath.sin(mpmath.pi * t)
                worst = max(worst, float(abs(density(space, t).total - exact) / abs(exact)))
    assert worst <= 5e-14


def test_exp_sum_matches_fifty_digits():
    # 500 random (f, gamma), both signs of gamma, orders 1-8: within 1e-13
    # of the sum of the term sizes
    rng = random.Random(4_417)
    worst = 0.0
    for _ in range(500):
        orders = rng.sample(range(1, 9), k=rng.randint(1, 4))
        f = RationalPoleFunction(
            {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in orders}
        )
        gamma = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 2 * math.pi - 1e-3)
        reference, size = exp_sum_reference(f.coeffs, gamma)
        worst = max(worst, abs(exp_sum_residue(f, gamma) - reference) / size)
    assert worst <= 1e-13
