"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Tolerances are fixed here and are not calibration knobs.
"""

import functools
import math
import random
from fractions import Fraction

from su2dh.expsum import RationalPoleFunction, exp_sum_extrapolated, exp_sum_residue
from su2dh.extrapolation import extrapolate_to_zero
from su2dh.fourier import SummationMethod, coefficient_quadrature, fourier_coefficient, reconstruct_density
from su2dh.model import FixedComponent
from su2dh.residue import CentralElement, central_density, density, reduced_volume
from su2dh.series import (
    TruncSeries,
    add,
    bose_kernel,
    exp_linear,
    monomial,
    mul,
    reciprocal,
    shift,
)
from su2dh.spaces import make_product_space, make_s4
from conftest import component_density, product_closed_form, witten_volume_n1

SQRT2 = math.sqrt(2.0)
GRID = [i / 20 for i in range(1, 20)]


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "rotation-sphere golden values on the 19-point grid (<= 1e-10)")
def test_criterion_1_s4_golden():
    space = make_s4()
    for t in GRID:
        expected_total = 1.0 / (SQRT2 * math.sin(math.pi * t))
        result = density(space, t)
        assert abs(result.total - expected_total) <= 1e-10 * abs(expected_total)
        expected_e = (1.0 - t) * expected_total
        expected_me = t * expected_total
        assert abs(result.per_component["e"] - expected_e) <= 1e-10 * abs(expected_e)
        assert abs(result.per_component["-e"] - expected_me) <= 1e-10 * abs(expected_me)
        assert abs(reduced_volume(space, t) - 1.0) <= 1e-10


@criterion(2, "double golden values: density (1-t)/(2*sqrt2*sin(pi t)), volume 1-t (<= 1e-10)")
def test_criterion_2_double_golden():
    space = make_product_space(1)
    for t in GRID:
        expected = (1.0 - t) / (2.0 * SQRT2 * math.sin(math.pi * t))
        assert abs(density(space, t).total - expected) <= 1e-10 * abs(expected)
        volume = reduced_volume(space, t)
        assert abs(volume - (1.0 - t)) <= 1e-10 * abs(1.0 - t)
        assert abs(volume - witten_volume_n1(t)) <= 1e-10 * abs(witten_volume_n1(t))


@criterion(3, "product spaces n=2,3: closed form (<= 1e-10 rel) and partial sums N=2000 (<= 1e-5)")
def test_criterion_3_product_spaces():
    partial = SummationMethod(kind="partial", terms=2000)
    for n in (2, 3):
        space = make_product_space(n)
        for t in GRID:
            value = density(space, t).total
            closed = product_closed_form(n, t)
            assert abs(value - closed) <= 1e-10 * abs(closed)
            summed = reconstruct_density(space, t, partial)
            assert abs(value - summed) <= 1e-5


@criterion(4, "conditionally convergent oracle: Abel r in {0.99,0.995,0.999} + Richardson (<= 1e-3)")
def test_criterion_4_abel_oracle():
    space = make_s4()
    method = SummationMethod(kind="abel", terms=100_000, abel_r=(0.99, 0.995, 0.999))
    for t in (0.25, 0.5, 0.75):
        reconstructed = reconstruct_density(space, t, method)
        exact = density(space, t).total
        assert abs(reconstructed - exact) <= 1e-3


@criterion(5, "exponential-sum identity: 200 random instances (<= 1e-6 rel) and exact classics (<= 1e-8)")
def test_criterion_5_lemma_suite():
    rng = random.Random(1_702_017)
    for _ in range(200):
        orders = rng.sample([1, 2, 3, 4, 5], k=rng.randint(1, 3))
        coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in orders}
        f = RationalPoleFunction(coeffs)
        sign = rng.choice([1.0, -1.0])
        gamma = sign * rng.uniform(0.1, 2.0 * math.pi - 0.1)
        residue_value = exp_sum_residue(f, gamma)
        oracle_value = exp_sum_extrapolated(f, gamma, M=100_000, damping_r=0.9999)
        assert abs(residue_value - oracle_value) <= 1e-6 * (1.0 + abs(residue_value))

    alternating = exp_sum_residue(RationalPoleFunction({2: 1.0}), math.pi)
    assert abs(alternating - (-math.pi**2 / 6.0)) <= 1e-8
    sawtooth = RationalPoleFunction({1: 1.0})
    for gamma in (0.5, 1.0, math.pi, 4.0, 6.0):
        assert abs(exp_sum_residue(sawtooth, gamma) - 1j * (math.pi - gamma)) <= 1e-8


@criterion(6, "coefficient round trip: quadrature vs localization for n <= 10 (<= 1e-8)")
def test_criterion_6_round_trip():
    spaces = [make_s4(), make_product_space(1), make_product_space(2), make_product_space(3)]
    for space in spaces:
        for n in range(0, 11):
            quadrature = coefficient_quadrature(lambda t: density(space, t).total, n)
            localized = fourier_coefficient(space, n)
            assert abs(quadrature.value - localized.real) <= 1e-8
            assert abs(localized.imag) <= 1e-10
    double = make_product_space(1)
    for n in range(0, 11):
        value = fourier_coefficient(double, n)
        expected = 1.0 / (2.0 * math.pi**2 * (n + 1))
        assert abs(value.real - expected) <= 1e-10 * expected


@criterion(7, "central value at -e for the double: exact, limit-consistent, volume 1 (<= 1e-10 / 1e-6)")
def test_criterion_7_central_consistency():
    space = make_product_space(1)
    value = central_density(space, CentralElement.MINUS_IDENTITY)
    expected = 1.0 / (2.0 * SQRT2 * math.pi)
    assert abs(value - expected) <= 1e-10 * expected
    samples = [(h, density(space, 1.0 - h).total) for h in (1e-2, 1e-3, 1e-4)]
    limit, _ = extrapolate_to_zero(samples)
    assert abs(limit.real - value) <= 1e-6
    assert abs(reduced_volume(space, CentralElement.MINUS_IDENTITY) - 1.0) <= 1e-10


@criterion(8, "formula rederivation from the exponential-sum identity (<= 1e-12)")
def test_criterion_8_rederivation():
    rng = random.Random(8_311_845)
    for i in range(60):
        central = rng.random() < 0.3
        if central:
            mu = Fraction(rng.choice([0, 1]))
            orders = rng.sample([2, 4, 6], k=rng.randint(1, 2))
            coeffs = {k: complex(rng.uniform(-1, 1), 0.0) for k in orders}
        else:
            mu = Fraction(rng.randint(1, 19), 20)
            orders = rng.sample([2, 3, 4, 5], k=rng.randint(1, 3))
            coeffs = {
                k: complex(rng.uniform(-1, 1), 0.0)
                if k % 2 == 0
                else complex(0.0, rng.uniform(-1, 1))
                for k in orders
            }
        component = FixedComponent(f"c{i}", mu, coeffs)
        while True:
            t = rng.uniform(0.1, 0.9)
            if abs(t - float(mu)) > 0.05:
                break
        direct = component_density(component, t)
        # the m-series behind the residue formula, summed by two identity calls
        pole = RationalPoleFunction({k - 1: c for k, c in coeffs.items()})
        upper = exp_sum_residue(pole, math.pi * (t + float(mu)))
        lower = exp_sum_residue(pole, math.pi * (float(mu) - t))
        half = 0.5 if component.central else 1.0
        rebuilt = (
            (2.0 * math.pi / SQRT2)
            / (2j * math.sin(math.pi * t))
            * (upper - lower)
            * half
        )
        assert abs(direct - rebuilt) <= 1e-12


@criterion(9, "series engine: ring laws, reciprocal, kernel identity, parity (<= 1e-13)")
def test_criterion_9_series_suite():
    rng = random.Random(905_417)
    low, high = -2, 8

    def draw():
        return TruncSeries(
            low,
            tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(high - low + 1)
            ),
        )

    for _ in range(50):
        s1, s2, s3 = draw(), draw(), draw()
        sum_assoc = add(add(s1, s2), s3)
        sum_assoc_b = add(s1, add(s2, s3))
        for e in range(low, high + 1):
            assert abs(sum_assoc.coefficient(e) - sum_assoc_b.coefficient(e)) <= 1e-13
        prod_ab = mul(s1, s2)
        prod_ba = mul(s2, s1)
        for e in range(prod_ab.low_exp, prod_ab.high_exp + 1):
            assert abs(prod_ab.coefficient(e) - prod_ba.coefficient(e)) <= 1e-13
        assoc_a = mul(mul(s1, s2), s3)
        assoc_b = mul(s1, mul(s2, s3))
        for e in range(assoc_a.low_exp, assoc_a.high_exp + 1):
            assert abs(assoc_a.coefficient(e) - assoc_b.coefficient(e)) <= 1e-13
        dist_a = mul(s1, add(s2, s3))
        dist_b = add(mul(s1, s2), mul(s1, s3))
        for e in range(dist_a.low_exp, dist_a.high_exp + 1):
            assert abs(dist_a.coefficient(e) - dist_b.coefficient(e)) <= 1e-13

    for _ in range(50):
        length = rng.randint(3, 8)
        lead = complex(rng.uniform(0.5, 1.0) * rng.choice([-1, 1]), rng.uniform(-0.5, 0.5))
        tail = [complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) for _ in range(length)]
        s = TruncSeries(0, tuple([lead] + tail))
        identity = mul(s, reciprocal(s))
        for e in range(identity.low_exp, identity.high_exp + 1):
            target = 1.0 if e == 0 else 0.0
            assert abs(identity.coefficient(e) - target) <= 1e-13

    kernel_high = 10
    exp_minus_one = add(exp_linear(2j * math.pi, kernel_high + 2), monomial(-1.0, 0))
    kernel_identity = mul(exp_minus_one, bose_kernel(kernel_high))
    for e in range(kernel_identity.low_exp, kernel_identity.high_exp + 1):
        target = 1.0 if e == 0 else 0.0
        assert abs(kernel_identity.coefficient(e) - target) <= 1e-13

    parity = mul(exp_linear(1j * math.pi, 12), shift(bose_kernel(12), 1))
    for e in range(1, parity.high_exp + 1, 2):
        assert abs(parity.coefficient(e)) <= 1e-13
