"""Exponential-sum/residue identity: classics, oracle agreement, branches."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from su2dh import expsum
from su2dh.expsum import (
    ExpSumOverflowError,
    GammaRangeError,
    RationalPoleFunction,
    exp_sum_extrapolated,
    exp_sum_partial,
    exp_sum_residue,
)
from su2dh.extrapolation import abel_ladder, extrapolate_to_zero
from su2dh.series import add, bose_kernel, exp_linear, monomial, mul, reciprocal, scale
from conftest import bernoulli_fractions, exp_sum_reference

TWO_PI = 2.0 * math.pi
BLOCK = expsum._BLOCK
# fixed-point unit of the same-sum reference: 2^-140, about 42 digits
UNIT_BITS = 140
UNIT = 1 << UNIT_BITS


def same_damped_sums(coeffs, gamma, radii, checkpoints):
    """The oracle's truncated damped sums at far more than 30 digits.

    For each M in ``checkpoints``: the sums of the terms
    e^{i*m*gamma} f(m) + e^{-i*m*gamma} f(-m) times r^m, m = 1..M, for each
    r in ``radii`` (as Fractions), and the sum of |terms| (a float).  The float
    gamma, coefficients and radii are taken exactly.  cos and sin of gamma
    come from mpmath; the rest runs in integers in units of 2^-140, where each
    product truncates once, so after 10^5 terms the sums are good to about
    10^-36.
    """
    def fixed(x):
        return round(Fraction(x) * UNIT)

    with mpmath.workprec(UNIT_BITS + 20):
        angle = mpmath.mpf(gamma)
        c1, s1 = (int(mpmath.nint(g(angle) * UNIT)) for g in (mpmath.cos, mpmath.sin))
    parts = [(k, fixed(a.real), fixed(a.imag)) for k, a in coeffs.items()]
    factors = [fixed(r) for r in radii]
    damping = [UNIT] * len(radii)
    sums = [[0, 0] for _ in radii]
    c, s, size, out = UNIT, 0, 0.0, {}
    for m in range(1, max(checkpoints) + 1):
        c, s = (c * c1 - s * s1) >> UNIT_BITS, (s * c1 + c * s1) >> UNIT_BITS
        # f(m) = E + O by parity of the order; the pair is 2*(cos*E + i*sin*O)
        even, odd = [0, 0], [0, 0]
        for k, re, im in parts:
            power = m**k
            part = odd if k % 2 else even
            part[0] += re // power
            part[1] += im // power
        term_re = 2 * (c * even[0] - s * odd[1]) >> UNIT_BITS
        term_im = 2 * (c * even[1] + s * odd[0]) >> UNIT_BITS
        size += math.hypot(term_re / UNIT, term_im / UNIT)
        for i, factor in enumerate(factors):
            damping[i] = damping[i] * factor >> UNIT_BITS
            sums[i][0] += term_re * damping[i] >> UNIT_BITS
            sums[i][1] += term_im * damping[i] >> UNIT_BITS
        if m in checkpoints:
            out[m] = [(Fraction(re, UNIT), Fraction(im, UNIT)) for re, im in sums], size
    return out


def neville(nodes, values):
    """The Neville step of `extrapolate_to_zero`, in exact arithmetic on Fraction pairs."""
    nodes = [Fraction(h) for h in nodes]
    values = list(values)
    for k in range(1, len(values)):
        for i in range(len(values) - k):
            values[i] = tuple(
                (-nodes[i + k] * a + nodes[i] * b) / (nodes[i] - nodes[i + k])
                for a, b in zip(values[i], values[i + 1])
            )
    return values[0]


def off_by(value, exact):
    return abs(value - complex(float(exact[0]), float(exact[1])))


def pole_values(f, m):
    """f at the nonzero reals m, a numpy array, by a plain ladder of powers of 1/m."""
    import numpy as np

    out = np.zeros(m.shape, dtype=complex)
    inv = 1.0 / m
    power = np.ones_like(m)
    for k in range(1, f.max_order + 1):
        power = power * inv
        a = f.coeffs.get(k)
        if a is not None:
            out = out + a * power
    return out


class TestPoleFunction:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            RationalPoleFunction({0: 1.0})
        with pytest.raises(ValueError):
            RationalPoleFunction({})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="order 3 must be finite"):
            RationalPoleFunction({2: 1.0, 3: bad})

    def test_coefficients_are_read_only(self):
        # a stored order 0 would get past the order >= 1 rule: the residue at
        # gamma = 1 then read -4.3517 in place of 0.6483, with no error
        import copy
        import pickle

        f = RationalPoleFunction({2: 1.0})
        before = exp_sum_residue(f, 1.0)
        with pytest.raises(TypeError, match="read-only"):
            f.coeffs[0] = 5.0
        for mutate in (f.coeffs.clear, lambda: f.coeffs.update({2: 2.0})):
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        assert f.coeffs == {2: 1.0} and exp_sum_residue(f, 1.0) == before
        for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert copied == f and exp_sum_residue(copied, 1.0) == before
            with pytest.raises(TypeError, match="read-only"):
                copied.coeffs[0] = 5.0


def ratio_values(x: Fraction, high: int) -> list[Fraction]:
    """B_n(x) = n! / 2^n times the ratios of `expsum.bernoulli_ratios`."""
    return [
        Fraction(a, b) * math.factorial(n) / 2**n
        for n, (a, b) in enumerate(expsum.bernoulli_ratios(x, high))
    ]


class TestBernoulliValues:
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(7, 40), Fraction(47, 40),
                                   Fraction(-3, 7), Fraction(0.3 / TWO_PI)])
    def test_exact_against_the_binomial_sum(self, x):
        # B_n(x) = sum_j C(n, j) B_j x^(n-j), with sympy's exact Bernoulli numbers
        # (sympy >= 1.12 gives B_1 = +1/2; the sum needs B_1 = -1/2)
        numbers = [Fraction(str(sympy.bernoulli(j))) for j in range(61)]
        numbers[1] = Fraction(-1, 2)
        # the unreduced integers that both consumers divide: (e_n << n, D q^n n!)
        ratios = expsum.bernoulli_ratios(x, 60)
        assert len(ratios) == 61
        for n, (a, b) in enumerate(ratios):
            assert isinstance(a, int) and isinstance(b, int) and a % 2**n == 0
            assert b == math.lcm(*range(1, 62)) * x.denominator**n * math.factorial(n)
            value = sum(math.comb(n, j) * numbers[j] * x ** (n - j) for j in range(n + 1))
            assert Fraction(a, b) == 2**n * value / math.factorial(n)

    def test_reflection_and_difference_identities(self):
        # B_n(1 - x) = (-1)^n B_n(x) and B_n(x + 1) - B_n(x) = n x^(n-1)
        x = Fraction(3, 11)
        low, reflected, shifted = (ratio_values(y, 20) for y in (x, 1 - x, x + 1))
        for n in range(21):
            assert reflected[n] == (-1) ** n * low[n]
            assert shifted[n] - low[n] == (n * x ** (n - 1) if n else 0)


# 2*pi to 30 decimals, the constant of the library's closed form
TWO_PI_EXACT = 2 * Fraction("3.141592653589793238462643383280")


def fraction_residue(f: RationalPoleFunction, gamma: float) -> complex:
    """`exp_sum_residue` with each (2*pi)^k B_k(x) / k! built from Fraction
    operations and rounded by float(Fraction)."""
    coeffs = f.coeffs
    if gamma < 0:
        coeffs = {k: -a if k % 2 else a for k, a in coeffs.items()}
        gamma = -gamma
    x = Fraction(round(Fraction(gamma) / TWO_PI_EXACT * 2**64), 2**64)
    bernoulli = bernoulli_fractions(x, max(coeffs))
    return sum(
        -a * 1j ** (k % 4) * float(TWO_PI_EXACT**k * bernoulli[k] / math.factorial(k))
        for k, a in coeffs.items()
    )


class TestResidueRounding:
    """Each order's exact rational is rounded once, as one integer division."""

    def test_orders_round_as_fractions(self):
        rng = random.Random(2205)
        cases = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(1000)]
        cases += [[20], [60], [150], [2, 61, 150], [1, 20, 149]] * 2
        ends = (5e-324, 1e-9, math.nextafter(TWO_PI, 0.0))
        for i, orders in enumerate(cases):
            coeffs = {k: complex(rng.uniform(-2, 2), rng.choice((0.0, rng.uniform(-2, 2))))
                      for k in orders}
            gamma = rng.uniform(0.0, TWO_PI) if i % 50 else rng.choice(ends)
            gamma = -gamma if i % 2 else gamma
            f = RationalPoleFunction(coeffs)
            value, expected = exp_sum_residue(f, gamma), fraction_residue(f, gamma)
            assert (value.real.hex(), value.imag.hex()) == (
                expected.real.hex(), expected.imag.hex()
            ), (coeffs, gamma)


class TestResidueSide:
    def test_overflow_is_refused(self):
        # a finite coefficient whose term is beyond the float range gave (inf+0j)
        f = RationalPoleFunction({2: 1.7e308})
        with pytest.raises(ExpSumOverflowError, match="^numeric overflow: the residue value is "):
            exp_sum_residue(f, 0.1)

    def test_alternating_inverse_squares(self):
        # sum over m != 0 of (-1)^m / m^2 = -pi^2/6
        value = exp_sum_residue(RationalPoleFunction({2: 1.0}), math.pi)
        assert value.real == pytest.approx(-math.pi**2 / 6.0, abs=1e-12)
        assert abs(value.imag) <= 1e-12
        assert value.real == pytest.approx(-1.6449341, abs=5e-8)

    def test_sawtooth(self):
        f = RationalPoleFunction({1: 1.0})
        for gamma in (0.3, math.pi / 2, math.pi, 2.0, 5.9):
            value = exp_sum_residue(f, gamma)
            assert value == pytest.approx(1j * (math.pi - gamma), abs=1e-12)

    def test_sawtooth_negative_range(self):
        f = RationalPoleFunction({1: 1.0})
        for gamma in (-0.3, -math.pi / 2, -3.5, -5.9):
            value = exp_sum_residue(f, gamma)
            assert value == pytest.approx(-1j * (math.pi + gamma), abs=1e-12)

    def test_negative_range_matches_reflected_kernel_exactly(self, rng):
        # gamma < 0 is evaluated as f(-z), coefficients (-1)^k a_k, at -gamma:
        # the same bits as that call, and within 1e-13 of the sum's terms
        # of a 50-digit value that takes gamma mod 2*pi instead of reflecting
        for _ in range(300):
            ks = rng.sample(range(1, 9), k=rng.randint(1, 4))
            f = RationalPoleFunction(
                {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in ks}
            )
            gamma = -rng.uniform(1e-3, TWO_PI - 1e-3)
            reflected = RationalPoleFunction({k: (-1) ** k * a for k, a in f.coeffs.items()})
            expected = exp_sum_residue(reflected, -gamma)
            value = exp_sum_residue(f, gamma)
            assert (value.real, value.imag) == (expected.real, expected.imag)
            reference, size = exp_sum_reference(f.coeffs, gamma)
            assert abs(value - reference) <= 1e-13 * size

    def test_real_even_data_gives_real_output(self):
        f = RationalPoleFunction({2: 0.7, 4: -0.2})
        value = exp_sum_residue(f, math.pi)
        assert abs(value.imag) <= 1e-13

    def test_gamma_range_rejected(self):
        f = RationalPoleFunction({1: 1.0})
        for gamma in (0.0, TWO_PI, -TWO_PI, 7.0, -7.0, math.nan):
            with pytest.raises(GammaRangeError, match="gamma outside lemma range"):
                exp_sum_residue(f, gamma)

    def test_reflection_conjugates_real_data(self, rng):
        # for real coefficients, m <-> -m gives value(-gamma) = conj(value(gamma))
        for _ in range(20):
            ks = rng.sample([1, 2, 3, 4, 5], k=rng.randint(1, 3))
            f = RationalPoleFunction({k: rng.uniform(-1, 1) for k in ks})
            gamma = rng.uniform(0.1, TWO_PI - 0.1)
            forward = exp_sum_residue(f, gamma)
            backward = exp_sum_residue(f, -gamma)
            assert backward == pytest.approx(forward.conjugate(), abs=1e-12)

    def test_linearity_in_f(self, rng):
        for _ in range(10):
            gamma = rng.uniform(0.2, TWO_PI - 0.2)
            a6 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            base = RationalPoleFunction({2: 0.3, 3: -0.4j})
            extended = RationalPoleFunction({2: 0.3, 3: -0.4j, 6: a6})
            only_tail = RationalPoleFunction({6: a6})
            lhs = exp_sum_residue(extended, gamma)
            rhs = exp_sum_residue(base, gamma) + exp_sum_residue(only_tail, gamma)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_negative_branch_kernel_equivalence(self):
        # 1/(1 - e^{-2 pi i z}) equals e^{2 pi i z}/(e^{2 pi i z} - 1)
        high = 9
        direct = reciprocal(
            add(monomial(1.0, 0), scale(-1.0, exp_linear(-2j * math.pi, high + 2)))
        )
        via_bose = mul(exp_linear(2j * math.pi, high + 1), bose_kernel(high + 1))
        for e in range(-1, min(direct.high_exp, via_bose.high_exp) + 1):
            assert abs(direct.coefficient(e) - via_bose.coefficient(e)) <= 1e-13


class TestPartialSums:
    def test_two_term_cancellation(self):
        # M = 1, f = 1/z, gamma = pi: e^{i pi} - e^{-i pi} = 0
        value = exp_sum_partial(RationalPoleFunction({1: 1.0}), math.pi, 1)
        assert abs(value) <= 1e-15

    def test_alternating_inverse_squares_undamped(self):
        value = exp_sum_partial(RationalPoleFunction({2: 1.0}), math.pi, 100_000)
        assert value.real == pytest.approx(-math.pi**2 / 6.0, abs=1e-5)

    def test_damped_sawtooth(self):
        value = exp_sum_partial(
            RationalPoleFunction({1: 1.0}), math.pi / 2, 100_000, damping_r=0.9999
        )
        assert value == pytest.approx(1j * math.pi / 2, abs=1e-3)

    def test_validation(self):
        f = RationalPoleFunction({1: 1.0})
        with pytest.raises(ValueError):
            exp_sum_partial(f, 1.0, 0)
        with pytest.raises(ValueError):
            exp_sum_partial(f, 1.0, 10, damping_r=1.5)
        # a float or bool M is refused, not rounded up or read as 1
        for bad in (2.5, 1.0, True, 1e5):
            with pytest.raises(ValueError, match="M must be an integer >= 1"):
                exp_sum_partial(f, 1.0, bad)
            with pytest.raises(ValueError, match="M must be an integer >= 1"):
                exp_sum_extrapolated(f, 1.0, bad)

    @pytest.mark.parametrize("M", [1, 2, 4095, 4096, 4097, 3 * 4096 + 5])
    @pytest.mark.parametrize("damping_r", [1.0, 0.999])
    def test_block_edges(self, rng, M, damping_r):
        # the terms are evaluated 4096 at a time; each block edge must give
        # the sum that a plain evaluation of f and a complex exponential give
        import numpy as np

        f = RationalPoleFunction(
            {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in (1, 2, 5)}
        )
        gamma = -2.3
        m = np.arange(1, M + 1, dtype=float)
        terms = np.exp(1j * gamma * m) * pole_values(f, m)
        terms += np.exp(-1j * gamma * m) * pole_values(f, -m)
        terms = terms * damping_r**m
        value = exp_sum_partial(f, gamma, M, damping_r)
        assert abs(value - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    def test_oracle_memory_does_not_grow_with_M(self):
        # the terms are streamed in fixed-size blocks; no array is M long
        import tracemalloc

        f = RationalPoleFunction({1: 0.3 + 0.2j, 2: -0.5, 5: 0.7j})
        M = 400_000
        exp_sum_extrapolated(f, 1.3, M=M)
        tracemalloc.start()
        try:
            exp_sum_extrapolated(f, 1.3, M=M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_non_finite_gamma_rejected(self):
        f = RationalPoleFunction({1: 1.0})
        for gamma in (math.inf, -math.inf, math.nan):
            with pytest.raises(GammaRangeError, match="gamma must be finite"):
                exp_sum_partial(f, gamma, 10)

    @pytest.mark.parametrize(
        "coeffs, gamma, M",
        [
            # 1e308 sums to about 1.2e308, but its terms overflow on the way
            ({2: 1e308, 3: 1e308j}, -1.0, 5000),
            # the half sums at the block edges pass 1.8e308 in math.fsum
            ({1: 1.05e308}, math.pi / 8192, 8192),
        ],
    )
    def test_overflow_is_refused(self, coeffs, gamma, M):
        f = RationalPoleFunction(coeffs)
        with pytest.raises(ExpSumOverflowError, match="numeric overflow: the damped sum"):
            exp_sum_partial(f, gamma, M)
        with pytest.raises(ExpSumOverflowError, match="numeric overflow: the damped sum"):
            exp_sum_extrapolated(f, gamma, M)


class TestOracleSameSums:
    """The oracle against far more precise values of the same truncated sums."""

    @pytest.mark.parametrize(
        "gamma", [-2.3, 1.3, 1e-3, -1e-3, TWO_PI - 1e-3, -(TWO_PI - 1e-3)]
    )
    def test_block_edges_against_exact_sums(self, rng, gamma):
        # orders 1, 2 and 5 cover both parities; M covers one term, the block
        # edges and a last partial block; the ladder radii give the Neville step
        f = RationalPoleFunction(
            {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in (1, 2, 5)}
        )
        ladder = abel_ladder(0.999, 2)
        radii = [1.0, *(1.0 - h for h in ladder)]
        checkpoints = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
        exact = same_damped_sums(f.coeffs, gamma, radii, checkpoints)
        for M in checkpoints:
            sums, size = exact[M]
            for r, value in zip(radii[:2], sums[:2]):
                assert off_by(exp_sum_partial(f, gamma, M, r), value) <= 1e-14 * size
            extrapolated = exp_sum_extrapolated(f, gamma, M, 0.999)
            assert off_by(extrapolated, neville(ladder, sums[1:])) <= 1e-14 * size

    @pytest.mark.parametrize("gamma", [1.3, -2.3, 1e-3, TWO_PI - 1e-3])
    def test_phase_tables_match_mpmath(self, rng, gamma):
        # in-block offsets and block heads up to m = 10^6: each phase is within
        # 2 ulp(1) of cos and sin of the exact gamma*k, where a rounded angle
        # fl(gamma*k) would be off by up to 0.5 ulp(gamma*k), about 4.7e-10
        import numpy as np

        ks = [0, 1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1]
        ks += [rng.randrange(BLOCK) for _ in range(50)]
        ks += [BLOCK * rng.randrange(10**6 // BLOCK) for _ in range(50)]
        cos, sin = expsum._phase_table(expsum._split(gamma), np.array(ks, dtype=float))
        with mpmath.workdps(40):
            for k, c, s in zip(ks, cos, sin):
                angle = mpmath.mpf(gamma) * k
                assert abs(c - mpmath.cos(angle)) <= 2 * 2.0**-52
                assert abs(s - mpmath.sin(angle)) <= 2 * 2.0**-52

    def test_long_sum_keeps_its_phases(self):
        # f = 1/z at M = 10^5: a phase cos(fl(gamma*m)) is off by up to
        # 0.5 ulp(gamma*m), 5.8e-11 rad at the last term
        f = RationalPoleFunction({1: 1.0})
        M = 100_000
        for gamma in (TWO_PI - 1e-3, -2.9):
            (value,), size = same_damped_sums(f.coeffs, gamma, [1.0], [M])[M]
            assert off_by(exp_sum_partial(f, gamma, M), value) <= 1e-15 * size


class TestAbelLadder:
    def test_nodes_double(self):
        assert abel_ladder(0.9, 3) == [(1.0 - 0.9) * 2.0**j for j in range(4)]
        assert abel_ladder(0.999, 0) == [1.0 - 0.999]

    def test_validation(self):
        with pytest.raises(ValueError, match="levels"):
            abel_ladder(0.999, -1)
        for r in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="damping_r"):
                abel_ladder(r, 2)
        with pytest.raises(ValueError, match="leaves"):
            abel_ladder(0.5, 1)
        with pytest.raises(ValueError, match="leaves"):
            abel_ladder(0.999, 2000)  # fails at the first bad node, before 2.0**j overflows

    def test_extrapolated_is_the_ladder_of_partial_sums(self, rng):
        # one shared evaluation of the undamped terms gives the same bits as
        # one damped partial sum per node; M = 40_000 is past the size where
        # numpy may reuse temporaries in place; the ladder always has three nodes
        for gamma, M, r in ((1.3, 7, 0.9), (-2.1, 5000, 0.999), (4.0, 40_000, 0.9999)):
            ks = rng.sample([1, 2, 3, 4, 5], k=rng.randint(1, 3))
            coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in ks}
            f = RationalPoleFunction(coeffs)
            samples = [(h, exp_sum_partial(f, gamma, M, 1 - h)) for h in abel_ladder(r, 2)]
            assert exp_sum_extrapolated(f, gamma, M, r) == extrapolate_to_zero(samples)[0]


class TestOracleAgreement:
    def test_extrapolated_oracle_matches_residue(self, rng):
        worst = 0.0
        for _ in range(60):
            ks = rng.sample([1, 2, 3, 4, 5], k=rng.randint(1, 3))
            coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in ks}
            f = RationalPoleFunction(coeffs)
            sign = rng.choice([1.0, -1.0])
            gamma = sign * rng.uniform(0.1, TWO_PI - 0.1)
            residue_value = exp_sum_residue(f, gamma)
            oracle_value = exp_sum_extrapolated(f, gamma, M=100_000, damping_r=0.9999)
            rel = abs(residue_value - oracle_value) / (1.0 + abs(residue_value))
            worst = max(worst, rel)
        assert worst <= 1e-6
