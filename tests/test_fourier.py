"""Fourier-localization oracle: coefficients, reconstruction, quadrature."""

import gc
import hashlib
import math
import random
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2dh import fourier
from su2dh.extrapolation import abel_ladder
from su2dh.fourier import (
    QuadratureRule,
    SummationMethod,
    coefficient_quadrature,
    fourier_coefficient,
    reconstruct_density,
)
from su2dh.model import AlcoveRangeError, FixedComponent, QHSpace, load_space, save_space
from su2dh.residue import DensityOverflowError, EvalOptions, NonRealDensityError, density
from su2dh.spaces import make_product_space, make_s4
from conftest import interior_t_avoiding_walls, make_random_space, minor_faults
from fractions import Fraction

SQRT2 = math.sqrt(2.0)


def zero_space() -> QHSpace:
    return QHSpace("null", (FixedComponent("z", Fraction(0), {2: 0.0}),), 1)


class TestCoefficients:
    def test_s4_n0(self):
        value = fourier_coefficient(make_s4(), 0)
        assert value.real == pytest.approx(2.0 / math.pi**2, rel=1e-13)
        assert value.real == pytest.approx(0.2026424, abs=5e-8)
        assert abs(value.imag) <= 1e-15

    def test_s4_parity(self):
        # odd-n coefficients cancel between the two fixed points
        space = make_s4()
        for n in (1, 3, 5):
            assert abs(fourier_coefficient(space, n)) <= 1e-15
        for n in (2, 4):
            assert fourier_coefficient(space, n).real == pytest.approx(
                2.0 / (math.pi**2 * (n + 1)), rel=1e-13
            )

    def test_zero_space(self):
        assert fourier_coefficient(zero_space(), 4) == 0.0

    def test_product1_closed_form(self):
        space = make_product_space(1)
        for n in range(0, 11):
            value = fourier_coefficient(space, n)
            assert value.real == pytest.approx(
                1.0 / (2.0 * math.pi**2 * (n + 1)), rel=1e-13
            )

    def test_conjugation_symmetry_makes_coefficients_real(self, rng):
        for _ in range(15):
            space = make_random_space(rng)
            for n in range(0, 8):
                value = fourier_coefficient(space, n)
                assert abs(value.imag) <= 1e-12 * (1.0 + abs(value.real))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            fourier_coefficient(make_s4(), -1)

    def test_full_family_sum(self, rng):
        # formula (1) of docs/derivation.md summed over the full family, with
        # each Weyl partner written out by the documented rule: mu -> -mu,
        # c_k -> (-1)^k c_k, central components counted once.  The phase is
        # reduced exactly: at mu*w = 3/2 the value is exactly 0, and a float
        # phase would leave 1e-16 of rounding to compare against
        def family(space):
            for comp in space.components:
                yield comp.mu, dict(comp.euler_integral)
                if not comp.central:
                    flipped = {k: (-1) ** k * c for k, c in comp.euler_integral.items()}
                    yield -comp.mu, flipped

        def phase(turns: Fraction) -> complex:
            turns %= 2
            return complex(mpmath.expjpi(mpmath.mpf(turns.numerator) / turns.denominator))

        for _ in range(40):
            space = make_random_space(rng)
            for n in (0, 1, 5, 37):
                w = n + 1
                expected = w * sum(
                    sum(c * w**-k for k, c in coeffs.items()) * phase(w * mu)
                    for mu, coeffs in family(space)
                )
                value = fourier_coefficient(space, n)
                assert abs(value - expected) <= 1e-12 * abs(expected)


class TestReconstruction:
    ABEL_NODES = SummationMethod(kind="abel", terms=100_000, abel_r=(0.99, 0.995, 0.999))

    def test_s4_at_half(self):
        value = reconstruct_density(make_s4(), 0.5, self.ABEL_NODES)
        assert value == pytest.approx(1.0 / SQRT2, abs=1e-3)

    def test_zero_space_all_methods(self):
        for method in (
            SummationMethod(kind="partial", terms=100),
            SummationMethod(kind="abel", terms=100, abel_r=(0.99, 0.98)),
            SummationMethod(kind="cesaro", terms=100),
        ):
            assert reconstruct_density(zero_space(), 0.37, method) == 0.0

    def test_product2_partial_sums(self):
        space = make_product_space(2)
        method = SummationMethod(kind="partial", terms=2000)
        for t in (0.1, 0.3, 0.7):
            lhs = reconstruct_density(space, t, method)
            rhs = density(space, t).total
            assert abs(lhs - rhs) <= 1e-5

    def test_abel_error_decreases_with_r(self):
        # single-radius Abel sums approach the residue value monotonically
        space = make_s4()
        for t in (0.25, 0.5, 0.75):
            exact = density(space, t).total
            errors = [
                abs(
                    reconstruct_density(
                        space,
                        t,
                        SummationMethod(kind="abel", terms=100_000, abel_r=(r,)),
                    )
                    - exact
                )
                for r in (0.99, 0.995, 0.999)
            ]
            assert errors[0] > errors[1] > errors[2]

    def test_partial_sums_bounded_on_compact_interior(self):
        # no blow-up of the summation machinery away from the endpoints
        for space in (make_s4(), make_product_space(1)):
            for terms in (10, 100, 1000, 5000):
                method = SummationMethod(kind="partial", terms=terms)
                for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                    assert abs(reconstruct_density(space, t, method)) < 100.0

    def test_oracle_agreement_across_walls(self, rng):
        # both paths agree on either side of an interior wall
        space = QHSpace(
            "walled",
            (
                FixedComponent("w", Fraction(1, 2), {2: 0.5, 4: -0.25}),
                FixedComponent("c", Fraction(0), {2: 0.3}),
            ),
            1,
        )
        method = SummationMethod(kind="abel", terms=50_000, abel_r=(0.999, 0.998, 0.996))
        for t in (0.3, 0.45, 0.55, 0.7):
            lhs = reconstruct_density(space, t, method)
            rhs = density(space, t).total
            assert abs(lhs - rhs) <= 1e-3

    def test_alcove_validation(self):
        with pytest.raises(AlcoveRangeError):
            reconstruct_density(make_s4(), 0.0)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            SummationMethod(kind="euler")
        with pytest.raises(ValueError):
            SummationMethod(terms=0)
        with pytest.raises(ValueError):
            SummationMethod(abel_r=1.5)
        with pytest.raises(ValueError):
            SummationMethod(abel_r=(0.9, 1.0))
        with pytest.raises(ValueError):
            SummationMethod(abel_r=())

    @pytest.mark.parametrize("kind", ["abel", "partial", "cesaro"])
    @pytest.mark.parametrize("radii", [(0.99, 0.99), (0.999, 0.99, 0.999), (1e-20, 2e-20)])
    def test_repeated_nodes_are_refused(self, kind, radii):
        # the nodes 1 - r must be distinct, whatever the kind; the extrapolation
        # would otherwise refuse them in every call, after the coefficients are built
        with pytest.raises(ValueError, match=r"abel_r must give distinct nodes 1 - r"):
            SummationMethod(kind=kind, terms=100, abel_r=radii)

    def test_default_nodes_are_the_abel_ladder(self):
        assert SummationMethod().abel_r == tuple(1.0 - h for h in abel_ladder(0.999, 2))
        assert SummationMethod().abel_r == pytest.approx((0.999, 0.998, 0.996), abs=1e-15)

    def test_abel_at_a_wall_is_the_midpoint_of_the_limits(self):
        # the character series of a jump converges to the mean of its two
        # sides; walled.json at t = 1/2: 3.23849 against 3.23930, jump 6.98
        from pathlib import Path

        from su2dh.model import load_space
        from su2dh.residue import EvalOptions, WallPolicy

        text = (Path(__file__).parent / "golden" / "walled.json").read_text()
        space = load_space(text)
        left, right = (
            density(space, 0.5, EvalOptions(wall_policy=policy)).total
            for policy in (WallPolicy.LEFT_LIMIT, WallPolicy.RIGHT_LIMIT)
        )
        value = reconstruct_density(space, 0.5, SummationMethod())
        assert abs(value - (left + right) / 2) <= 1e-3 * abs(right - left)
        assert abs(right - left) > 6.0

    def test_non_real_data_are_refused(self):
        # a real odd power makes the data non-real at any scale; the
        # coefficients' relative imaginary residual is 0.81 here
        odd = QHSpace("odd", (FixedComponent("c", Fraction(3, 10), {2: 1e-30, 3: 1e-30}),), 1)
        with pytest.raises(NonRealDensityError, match="Fourier coefficients"):
            reconstruct_density(odd, 0.4)
        loose = EvalOptions(imag_tolerance=1.0)
        assert math.isfinite(reconstruct_density(odd, 0.4, options=loose))

    def test_overflow_is_refused(self, recwarn):
        # two {2: 1e308} components overflow the coefficients, whose residual
        # then read NaN and passed the realness check; one overflows only the sum
        cases = ((2, "non-finite Fourier coefficients"), (1, "Fourier density at t = 0.5"))
        for count, match in cases:
            comps = tuple(FixedComponent(f"c{i}", Fraction(1, 4), {2: 1e308}) for i in range(count))
            with pytest.raises(DensityOverflowError, match=f"numeric overflow: .*{match}"):
                reconstruct_density(QHSpace("big", comps, 1), 0.5)
        assert not recwarn.list

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1).map(random.Random))
    def test_agrees_with_the_residue_path_off_walls(self, rand):
        # the dual-path benchmark gate, at points 0.02 or more from every wall
        space = make_random_space(rand)
        t = interior_t_avoiding_walls(rand, space)
        assert abs(reconstruct_density(space, t) - density(space, t).total) <= 1e-3


class TestCoefficientCache:
    """Each space object stores its coefficients per term count; they die with it."""

    METHOD = SummationMethod(terms=2000)

    @staticmethod
    def counted(monkeypatch) -> list:
        builds = []
        build = fourier._localization_terms

        def counting(components, weights):
            builds.append(len(weights))
            return build(components, weights)

        monkeypatch.setattr(fourier, "_localization_terms", counting)
        return builds

    def test_each_space_object_builds_its_own_coefficients(self, monkeypatch, rng):
        text = save_space(make_random_space(rng))
        first, second = load_space(text), load_space(text)
        builds = self.counted(monkeypatch)
        for space, t in ((first, 0.41), (second, 0.63), (first, 0.2), (second, 0.8)):
            reconstruct_density(space, t, self.METHOD)
        assert builds == [2000, 2000]
        assert first == second

    def test_terms_are_part_of_the_key(self, monkeypatch):
        builds = self.counted(monkeypatch)
        space = make_s4()
        for terms in (1000, 2000, 1000, 2000):
            reconstruct_density(space, 0.37, SummationMethod(terms=terms))
        assert builds == [1000, 2000]

    def test_coefficients_die_with_the_space(self):
        space = make_s4()
        reconstruct_density(space, 0.37, self.METHOD)
        values = weakref.ref(fourier._coefficients(space, self.METHOD.terms)[0])
        assert values() is not None
        del space
        gc.collect()
        assert values() is None

    def test_cached_arrays_are_read_only(self):
        space = make_s4()
        reconstruct_density(space, 0.37, self.METHOD)
        values, _ = fourier._coefficients(space, self.METHOD.terms)
        assert fourier._coefficients(space, self.METHOD.terms)[0] is values
        ladder = fourier._ladder(SummationMethod())
        for array in (values, *(damping for _, damping in ladder)):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_warm_values_equal_cold_values_bit_for_bit(self, rng):
        space = make_random_space(rng)
        for method in (
            SummationMethod(kind="partial", terms=3000),
            SummationMethod(kind="abel"),
            SummationMethod(kind="cesaro"),
        ):
            reconstruct_density(space, 0.21, method)
            warm = reconstruct_density(space, 0.58, method)
            fresh = QHSpace(space.name, space.components, space.stabilizer_order)
            cold = reconstruct_density(fresh, 0.58, method)
            assert warm.hex() == cold.hex()


def fresh_spaces(items):
    """Builds and sums on fresh spaces: warms up on five, returns the rest's work.

    Each item is a saved space and its points.  `minor_faults` runs this in a
    fresh interpreter, so it imports what it uses.
    """
    from su2dh import fourier
    from su2dh.fourier import SummationMethod, reconstruct_density
    from su2dh.model import load_space

    def run(chunk):
        for text, points in chunk:
            space = load_space(text)
            fourier._coefficients(space, SummationMethod().terms)
            for t in points:
                reconstruct_density(space, t)

    run(items[:5])
    return lambda: run(items[5:])


class TestAllocation:
    """The coefficient build and the per-point sums work in arrays they allocate once."""

    def test_fresh_spaces_do_not_refault_the_heap(self):
        # Freed temporaries at the top of the heap were trimmed and faulted back
        # in by the next space: about 100 minor faults per space.
        rand = random.Random(2029)
        items = []
        for _ in range(25):
            space = make_random_space(rand)
            points = [interior_t_avoiding_walls(rand, space) for _ in range(4)]
            items.append((save_space(space), points))
        assert minor_faults(fresh_spaces, items) <= 8 * 20


class TestOneFold:
    """`_fold` runs the same steps on floats and, in place, on arrays."""

    @pytest.mark.parametrize("central", [False, True])
    @pytest.mark.parametrize("mask", range(16))
    def test_arrays_fold_as_their_elements(self, central, mask):
        # bits 0-3 of the mask make Re E, Im E, Re O and Im O nonzero
        rand = random.Random(16 * central + mask)
        coeffs = {}
        for k in range(2, 10):
            odd = k % 2
            re = rand.uniform(-1.0, 1.0) if mask >> (2 * odd) & 1 else 0.0
            im = rand.uniform(-1.0, 1.0) if mask >> (2 * odd + 1) & 1 else 0.0
            if re or im or k == 2:
                coeffs[k] = complex(re, im)
        mu = Fraction(rand.choice([0, 1])) if central else Fraction(rand.randint(1, 39), 40)
        comp = FixedComponent("c", mu, coeffs)
        terms = 64
        u = 1.0 / np.arange(1, terms + 1, dtype=float)
        v = u * u
        cos, sin = (np.array([rand.uniform(-1.0, 1.0) for _ in range(terms)]) for _ in "cs")
        start = [np.array([rand.choice([0.0, rand.uniform(-9.0, 9.0)]) for _ in range(terms)])
                 for _ in "ri"]
        real, imag = (total.copy() for total in start)
        folded = fourier._fold(comp, u, v, cos, sin, real, imag, np.empty((2, terms)))
        assert folded[0] is real and folded[1] is imag
        for i in range(terms):
            expected = fourier._fold(
                comp, float(u[i]), float(v[i]), float(cos[i]), float(sin[i]),
                float(start[0][i]), float(start[1][i]), (None, None),
            )
            assert [x.hex() for x in expected] == [float(real[i]).hex(), float(imag[i]).hex()]

    def test_sums_leave_the_stored_arrays_alone(self, rng):
        space = make_random_space(rng)
        methods = [
            SummationMethod(kind="partial", terms=3000),
            SummationMethod(),
            SummationMethod(kind="cesaro", terms=3000),
        ]

        def digests() -> list[str]:
            arrays = [fourier._coefficients(space, method.terms)[0] for method in methods]
            for method in methods:
                arrays += [e for _, e in fourier._ladder(method) if isinstance(e, np.ndarray)]
            return [hashlib.sha1(array.tobytes()).hexdigest() for array in arrays]

        before = digests()
        # 1e-20 is a tiny t, whose characters are the weights n + 1
        points = [1e-20] + [interior_t_avoiding_walls(rng, space) for _ in range(4)]
        for i in range(50):
            reconstruct_density(space, points[i % 5], methods[i % 3])
        assert digests() == before


class TestJudge:
    """The realness residual of the coefficients, with and without imaginary parts."""

    TERMS = 2000

    def parts(self, space: QHSpace) -> tuple:
        return fourier._localization_terms(
            space.components, np.arange(1, self.TERMS + 1, dtype=float)
        )

    def test_overflow_with_zero_imaginary_parts_is_refused(self):
        space = QHSpace("big", tuple(
            FixedComponent(label, Fraction(1, 4), {2: 1e308}) for label in "ab"
        ), 1)
        with np.errstate(over="ignore"):
            real, imag = self.parts(space)
        assert not imag.any() and not np.isfinite(real).all()
        assert fourier._coefficients(space, self.TERMS)[1] == math.inf
        with pytest.raises(DensityOverflowError, match="non-finite Fourier coefficients"):
            reconstruct_density(space, 0.5, SummationMethod(terms=self.TERMS))

    @pytest.mark.parametrize("power", [2, 3])
    def test_nan_coefficients_are_refused(self, power):
        # inf - inf: in the real parts at power 2, in the imaginary ones at power 3
        space = QHSpace("nan", (
            FixedComponent("a", Fraction(1, 4), {power: 1.7e308}),
            FixedComponent("b", Fraction(1, 4), {power: -1.7e308}),
        ), 1)
        with np.errstate(over="ignore", invalid="ignore"):
            real, imag = self.parts(space)
        assert np.isnan(real if power == 2 else imag).any()
        assert fourier._coefficients(space, self.TERMS)[1] == math.inf
        with pytest.raises(DensityOverflowError, match="non-finite Fourier coefficients"):
            reconstruct_density(space, 0.5, SummationMethod(terms=self.TERMS))

    def test_non_real_residual_is_max_imag_over_max_modulus(self, rng):
        for _ in range(5):
            space = make_random_space(rng)
            odd = FixedComponent("odd", Fraction(rng.randint(1, 19), 20), {2: 1.0, 3: 0.3})
            space = QHSpace("odd", (*space.components, odd), 1)
            real, imag = self.parts(space)
            expected = float(np.max(np.abs(imag))) / float(np.max(np.hypot(real, imag)))
            assert fourier._coefficients(space, self.TERMS)[1].hex() == expected.hex()

    def test_reflection_symmetric_data_are_exactly_real(self, rng):
        spaces = [make_s4(), make_product_space(5), *(make_random_space(rng) for _ in range(20))]
        for space in spaces:
            assert fourier._coefficients(space, self.TERMS)[1] == 0.0


def mp_localization(space: QHSpace, w: int) -> tuple[complex, float]:
    """<density, chi_{w-1}> at 40 digits with exactly reduced phases, and the size of its terms.

    The size is 2*w*sum_F sum_k |a_k| w^-k, the bound that a phase error of
    one unit multiplies.
    """
    with mpmath.workdps(40):
        value, size = mpmath.mpc(0), mpmath.mpf(0)
        for comp in space.components:
            for sign in (1,) if comp.central else (1, -1):
                turns = sign * comp.mu * w % 2
                phase = mpmath.expjpi(mpmath.mpf(turns.numerator) / turns.denominator)
                pole = sum(mpmath.mpc(a) * mpmath.mpf(sign * w) ** -k
                           for k, a in comp.euler_integral.items())
                value += w * pole * phase
            size += 2 * w * sum(abs(a) * mpmath.mpf(w) ** -k
                                for k, a in comp.euler_integral.items())
        return complex(value), float(size)


def mp_same_sums(space: QHSpace, t: float, methods: list[SummationMethod]) -> list[float]:
    """Each method's truncated character series at 30 digits, with exact t and mu.

    The terms, the damping values (1 plus the method's float damping - 1)
    and the Richardson step are those of `reconstruct_density`; only the
    arithmetic is exact.
    The methods share one term count.
    """
    with mpmath.workdps(30):
        theta = mpmath.pi * mpmath.mpf(t)
        sine, two_cos = mpmath.sin(theta), 2 * mpmath.cos(theta)
        terms, previous, current = [], mpmath.mpf(0), sine
        for w in range(1, methods[0].terms + 1):
            terms.append(mp_localization(space, w)[0].real * current / sine)
            previous, current = current, two_cos * current - previous
        sums = []
        for method in methods:
            samples = []
            for h, excess in fourier._ladder(method):
                excesses = [excess] * len(terms) if isinstance(excess, float) else excess
                total = mpmath.fdot(terms, [1 + mpmath.mpf(float(e)) for e in excesses])
                samples.append((mpmath.mpf(h), 2 * mpmath.pi / mpmath.sqrt(2) * total))
            nodes, values = [h for h, _ in samples], [v for _, v in samples]
            for k in range(1, len(values)):
                for i in range(len(values) - k):
                    values[i] = (nodes[i] * values[i + 1] - nodes[i + k] * values[i]) / (
                        nodes[i] - nodes[i + k]
                    )
            sums.append(float(values[0]))
        return sums


class TestExactPhases:
    """Phases are reduced exactly in integers, so large n and small t keep their accuracy."""

    @pytest.mark.parametrize("terms", [1, 2, 3, 99, 100, 101])
    @pytest.mark.parametrize(
        "x", [Fraction(123_456_789_012_345_678, 987_654_321_098_765_431), Fraction(3e-9)]
    )
    def test_phase_tables_match_mpmath(self, x, terms):
        # a mu with a large denominator, and Fraction(t) of a small float t, at
        # term counts around the table boundaries, in both modes
        cos, sin = fourier._phases(x, terms)
        (sines,) = fourier._phases(x, terms, sine_only=True)
        assert len(cos) == len(sin) == len(sines) == terms
        with mpmath.workdps(40):
            for w in range(1, terms + 1):
                exact = mpmath.expjpi(mpmath.mpf(x.numerator) / x.denominator * w)
                assert abs(cos[w - 1] - exact.real) <= 1e-15
                assert abs(sin[w - 1] - exact.imag) <= 1e-15
                assert abs(sines[w - 1] - exact.imag) <= 1e-15

    @pytest.mark.parametrize("n", [999, 9_999, 999_999, 2**40, 2**60])
    def test_large_n_coefficients(self, n):
        # a float phase pi*mu*(n+1) was off by 6.6e-13 of the term size at
        # n = 9,999 and by 1.3 at n = 2**60
        space = QHSpace(
            "large-n",
            (
                FixedComponent("a", Fraction(7, 10), {3: 1j}),
                FixedComponent("b", Fraction(1, 3), {2: 0.5}),
            ),
            1,
        )
        expected, size = mp_localization(space, n + 1)
        assert abs(fourier_coefficient(space, n) - expected) <= 1e-14 * size

    @pytest.mark.parametrize("q", [2**999 + 5, 2**1000 + 7, 10**25 + 7])
    def test_large_denominator_coefficients(self, q):
        # 1000 and 1001 bits, on either side of the turns taken as quotients with
        # the scale pi, and an odd q whose 8q does not fit 64 bits
        mu = odd_numerator(q)
        space = QHSpace(
            "large-q",
            (FixedComponent("a", mu, {2: 0.5, 3: 1j}), FixedComponent("b", 1 - mu, {2: 0.25})),
            1,
        )
        for n in (0, 1, 7, 999, 2**40):
            expected, size = mp_localization(space, n + 1)
            assert abs(fourier_coefficient(space, n) - expected) <= 1e-14 * size, n

    def test_overflowing_coefficient_is_refused(self):
        # reconstruct_density refused these, and fourier_coefficient gave (inf+0j)
        mus = (Fraction(1, 4), Fraction(1, 4) + Fraction(1, 10**9))
        comps = tuple(FixedComponent(f"c{i}", mu, {2: 1.7e308}) for i, mu in enumerate(mus))
        space = QHSpace("big", comps, 1)
        with pytest.raises(DensityOverflowError, match="non-finite Fourier coefficients"):
            reconstruct_density(space, 0.5)
        with pytest.raises(DensityOverflowError, match="non-finite Fourier coefficient at n = 0"):
            fourier_coefficient(space, 0)

    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_subnormal_t_keeps_the_characters(self, t):
        # sines of exact phases, each rounded into the subnormal range, gave
        # 425.74 at t = 5e-324 for this sum of 406.57
        method = SummationMethod(terms=1000)
        (expected,) = mp_same_sums(make_s4(), t, [method])
        value = reconstruct_density(make_s4(), t, method)
        assert abs(value - expected) <= 1e-14 * abs(expected)

    def test_sums_match_the_same_sums_in_mpmath(self, rng):
        methods = [SummationMethod(kind=k, terms=2000) for k in ("abel", "partial", "cesaro")]
        spaces = (make_s4(), make_product_space(5), make_random_space(rng), make_random_space(rng))
        for space, t in zip(spaces, (0.37, 0.81, 0.23, 0.64)):
            for method, expected in zip(methods, mp_same_sums(space, t, methods)):
                value = reconstruct_density(space, t, method)
                assert abs(value - expected) <= 1e-14 * abs(expected), (space.name, method.kind)


def loop_quarter_turns(x: Fraction, first: int, step: int, count: int) -> tuple[list, list, float]:
    """One row of `fourier._turns` by its definition, one divmod per k: the tests' reference."""
    p, q = x.numerator, x.denominator
    quadrants, turns = [], []
    for i in range(count):
        quadrant, r = divmod(4 * p * (first + i * step) + q, 2 * q)
        quadrants.append(quadrant & 3)
        turns.append(r - q)
    if q.bit_length() > 1000:
        return quadrants, [turn / (4 * q) for turn in turns], math.pi
    return quadrants, [float(turn) for turn in turns], math.pi / (4 * q)


def odd_numerator(q: int) -> Fraction:
    """A Fraction with denominator q and a numerator of about q's size."""
    p = q * 5 // 7 | 1
    while math.gcd(p, q) != 1:
        p += 2
    return Fraction(p, q)


# block = ceil(sqrt(terms)) for the term counts around the table boundaries
BLOCKS = sorted({math.isqrt(terms - 1) + 1 for terms in (1, 2, 3, 99, 100, 101)})


def boundary_fractions(block: int) -> list[Fraction]:
    """x on each side of `fourier._turns`' bounds for its numpy pass, for rows of this block."""
    largest = (2**63 - 1) // (8 * block)  # the largest q with 8q*block < 2^63
    power = 2 ** (largest.bit_length() - 1)
    return [
        odd_numerator(largest),  # no wrap, 8q*block = 2^63 - 1 less at most 8*block
        odd_numerator(largest + 1),  # wraps if q is a power of two, else the loop
        Fraction(3, power),  # no wrap, the largest power of two
        Fraction(3, 2 * power),  # wraps, 8q*block >= 2^63
        Fraction(3, 2**61),  # 8q = 2^64: the largest modulus that wraps
        Fraction(2**62 - 1, 2**61),  # x > 1
        Fraction(5, 2**62),  # 8q = 2^65: the loop
        odd_numerator(2**1000 + 7),  # 1001 bits: the turns as quotients
        odd_numerator(2**999 + 5),  # 1000 bits: the turns as integers
        Fraction(5e-324),
        Fraction(1e-310),
        Fraction(2.0**-9),
        Fraction(math.nextafter(2.0**-9, 0.0)),
        Fraction(0.3137),
        Fraction(7, 20),
        Fraction(0),
        Fraction(1),
    ]


class TestTurns:
    """`_turns` reduces exactly as the per-k loop does, on each side of its bounds."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_rows_match_the_loop(self, block):
        for x in boundary_fractions(block):
            quadrants, turns, scale = fourier._turns(x, block)
            assert quadrants.shape == turns.shape == (2, block)
            for row, (first, step) in enumerate(((1, 1), (0, block))):
                expected = loop_quarter_turns(x, first, step, block)
                assert [int(n) for n in quadrants[row]] == expected[0], (x, row)
                assert [float(y).hex() for y in turns[row]] == [y.hex() for y in expected[1]]
                assert scale.hex() == expected[2].hex()

    @pytest.mark.parametrize("terms", [1, 2, 3, 99, 100, 101, 10_000])
    def test_sine_only_table_is_the_sine_row(self, terms):
        block = math.isqrt(terms - 1) + 1
        for x in boundary_fractions(block):
            (sines,) = fourier._phases(x, terms, sine_only=True)
            _, full = fourier._phases(x, terms)
            assert sines.tobytes() == full.tobytes(), x


class TestQuadrature:
    def test_constant_density_shape(self):
        # density 1/(sqrt(2) sin(pi t)) against the trivial character
        result = coefficient_quadrature(
            lambda t: 1.0 / (SQRT2 * math.sin(math.pi * t)), 0
        )
        assert result.value == pytest.approx(2.0 / math.pi**2, abs=1e-8)

    def test_zero_density(self):
        result = coefficient_quadrature(lambda t: 0.0, 5)
        assert result.value == 0.0

    def test_product1_closed_form_n3(self):
        result = coefficient_quadrature(
            lambda t: (1.0 - t) / (2.0 * SQRT2 * math.sin(math.pi * t)), 3
        )
        assert result.value == pytest.approx(1.0 / (8.0 * math.pi**2), abs=1e-8)

    def test_round_trip_builtins(self):
        for space in (make_s4(), make_product_space(1), make_product_space(2)):
            for n in range(0, 11):
                quad = coefficient_quadrature(lambda t: density(space, t).total, n)
                localized = fourier_coefficient(space, n)
                assert abs(quad.value - localized.real) <= 1e-8
                assert abs(localized.imag) <= 1e-12

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            coefficient_quadrature(lambda t: 0.0, -1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("points", 1),
            ("points", 2.5),
            ("points", True),
            ("max_refinements", -1),
            ("max_refinements", 0),
            ("max_refinements", 2.5),
            ("max_refinements", True),
        ],
    )
    def test_rule_fields_are_checked(self, field, value):
        # refused here, not later in coefficient_quadrature as an UnboundLocalError,
        # a QuadratureError about a change of 0, or a TypeError from range
        message = {
            "points": "quadrature needs at least 2 points per panel",
            "max_refinements": "max_refinements must be an integer >= 1",
        }[field]
        with pytest.raises(ValueError, match=message):
            QuadratureRule(**{field: value})

    def test_smallest_rule_converges(self):
        rule = QuadratureRule(points=2, max_refinements=1)
        result = coefficient_quadrature(lambda t: 0.0, 0, rule)
        assert (result.value, result.panels) == (0.0, 2)

    def test_non_convergence_is_flagged(self):
        # a non-integrable interior singularity defeats panel refinement
        from su2dh.fourier import QuadratureError

        rule = QuadratureRule(points=8, max_refinements=6)
        with pytest.raises(QuadratureError, match="did not converge"):
            coefficient_quadrature(lambda t: 1.0 / abs(t - 0.5), 0, rule)

    def test_points_above_the_bound_are_refused(self):
        # the nodes cost O(points^2) in Python, so an absurd count would hang
        assert QuadratureRule(points=1024).points == 1024
        with pytest.raises(ValueError, match="at most 1024 points per panel, got 1025"):
            QuadratureRule(points=1025)

    def test_non_convergence_reports_the_last_change(self):
        # the message gave the change of the last estimate against itself, 0 or nan
        from su2dh.fourier import QuadratureError

        rule = QuadratureRule(points=8, max_refinements=6)
        with pytest.raises(QuadratureError) as info:
            coefficient_quadrature(lambda t: 1.0 if t < 1 / 3 else 0.0, 0, rule)
        change = float(str(info.value).rsplit(" ", 1)[1])
        assert 1e-9 < change < 1e-3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_is_refused_at_once(self, value):
        # refused on the first panel, not after 12 refinements of NaN
        from su2dh.fourier import QuadratureError

        calls = []

        def values(t):
            calls.append(t)
            return value if t > 0.7 else 1.0

        with pytest.raises(QuadratureError, match="the integrand is not finite at t = ") as info:
            coefficient_quadrature(values, 3)
        assert len(calls) <= 64
        assert f"at t = {calls[-1]!r}:" in str(info.value)


def mp_gauss_nodes(n: int, indices: list[int]) -> list[tuple]:
    """40-digit Gauss-Legendre node and weight for each i, the i-th largest root of P_n.

    Newton's method on the three-term recurrence from cos(pi*(i + 3/4)/(n + 1/2));
    i = n // 2 for an odd n is the middle root 0.
    """
    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1)

    pairs = []
    with mpmath.workdps(40):
        for i in indices:
            x = mpmath.cos(mpmath.pi * (4 * i + 3) / (4 * n + 2)) if 2 * i + 1 < n else 0
            for _ in range(50):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < mpmath.mpf(10) ** -30:
                    break
            _, dp = legendre(x)
            pairs.append((x, 2 / ((1 - x * x) * dp * dp)))
    return pairs


class TestGaussNodes:
    COUNTS = (2, 3, 64, 65, 1024)  # 1024 is the bound

    @pytest.mark.parametrize("n", COUNTS)
    def test_nodes_and_weights_against_mpmath(self, n):
        nodes, weights = fourier._gauss_nodes(n)
        assert all(type(v) is float for v in nodes + weights)
        indices = list(range((n + 1) // 2))
        if n > 100:  # every 32nd root, the smallest and the largest, to keep mpmath quick
            indices = indices[::32] + [indices[-1]]
        for i, (x, w) in zip(indices, mp_gauss_nodes(n, indices)):
            node, weight = nodes[n - 1 - i], weights[n - 1 - i]
            assert abs(node - x) <= math.ulp(node) if node else node == x == 0, (n, i)
            assert abs(weight - w) <= 4 * math.ulp(weight), (n, i)

    @pytest.mark.parametrize("n", COUNTS)
    def test_nodes_ascend_symmetrically(self, n):
        nodes, weights = fourier._gauss_nodes(n)
        assert len(nodes) == len(weights) == n
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        assert nodes == tuple(-x for x in reversed(nodes)) and weights == weights[::-1]
        if n % 2:
            middle = nodes[n // 2]
            assert middle == 0.0 and math.copysign(1.0, middle) == 1.0
        assert -1.0 < nodes[0] and all(w > 0.0 for w in weights)

    @pytest.mark.parametrize("n", (2, 3, 64, 65))
    def test_even_powers_integrate_exactly(self, n):
        # an n-point rule is exact to degree 2n - 1: integral x^(2k) over [-1, 1] = 2/(2k + 1)
        nodes, weights = fourier._gauss_nodes(n)
        for k in range(n):
            exact = 2.0 / (2 * k + 1)
            value = math.fsum(w * x ** (2 * k) for x, w in zip(nodes, weights))
            assert abs(value - exact) <= 4 * (k + 1) * 2.0**-52 * exact, (n, k)
