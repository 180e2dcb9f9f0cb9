"""Residue evaluation path: golden values, walls, central elements, properties."""

import copy
import dataclasses
import gc
import math
import random
import struct
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2dh.residue as residue_module
from su2dh.extrapolation import extrapolate_to_zero
from su2dh.model import (
    VOL_T,
    AlcoveRangeError,
    DensityResult,
    FixedComponent,
    QHSpace,
    load_space,
    save_space,
)
from su2dh.residue import (
    CentralElement,
    DensityOverflowError,
    EvalOptions,
    NonRealDensityError,
    ScanPoint,
    WallError,
    WallPolicy,
    _compile,
    central_density,
    density,
    interior_volume,
    reduced_volume,
    scan,
)
from su2dh.series import bose_kernel, exp_linear, from_coefficients, mul, residue, shift, sin_linear
from su2dh.spaces import make_product_space, make_s4
from conftest import (
    bernoulli_fractions,
    branch_value,
    component_central_density,
    component_density,
    interior_t_avoiding_walls,
    make_random_space,
    odd_real_components,
    product_closed_form,
    symmetric_components,
)

SQRT2 = math.sqrt(2.0)
GRID = [i / 20 for i in range(1, 20)]
WALLED = Path(__file__).parent / "golden" / "walled.json"


def s4_total(t: float) -> float:
    return 1.0 / (SQRT2 * math.sin(math.pi * t))


class TestComponentDensity:
    def test_s4_component_at_quarter(self):
        # mu = 1 fixed point: t/(sqrt(2) sin(pi t)); sqrt(2) sin(pi/4) = 1
        comp = make_s4().component("-e")
        assert component_density(comp, 0.25) == pytest.approx(0.25, abs=1e-12)

    def test_zero_coefficients_give_zero(self):
        comp = FixedComponent("z", Fraction(1, 4), {2: 0.0, 3: 0.0})
        assert component_density(comp, 0.6) == 0.0

    def test_product_component_at_half(self):
        comp = make_product_space(1).components[0]
        expected = 0.5 / (2.0 * SQRT2)
        assert component_density(comp, 0.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.1767767, abs=5e-8)

    def test_t_out_of_alcove(self):
        comp = make_s4().component("e")
        for t in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(AlcoveRangeError, match="t out of open alcove"):
                component_density(comp, t)


class TestDensity:
    def test_s4_total_everywhere(self):
        space = make_s4()
        for t in GRID:
            result = density(space, t)
            assert result.total == pytest.approx(s4_total(t), rel=1e-12)
            assert result.per_component["e"] == pytest.approx(
                (1 - t) * s4_total(t), rel=1e-12
            )
            assert result.per_component["-e"] == pytest.approx(
                t * s4_total(t), rel=1e-12
            )

    def test_total_is_sum_of_components(self, rng):
        for _ in range(10):
            space = make_random_space(rng)
            t = interior_t_avoiding_walls(rng, space)
            result = density(space, t)
            assert result.total == pytest.approx(
                sum(result.per_component.values()), abs=1e-15
            )

    def test_zero_component_space(self):
        space = QHSpace("null", (FixedComponent("z", Fraction(1, 2), {2: 0.0}),), 1)
        assert density(space, 0.25).total == 0.0

    def test_product2_matches_closed_form(self):
        space = make_product_space(2)
        value = density(space, 0.3).total
        assert value == pytest.approx(product_closed_form(2, 0.3), rel=1e-10)

    def test_realness_on_random_symmetric_spaces(self, rng):
        for _ in range(25):
            space = make_random_space(rng)
            t = interior_t_avoiding_walls(rng, space)
            result = density(space, t)
            assert result.max_imag_residual <= 1e-9 * (1.0 + abs(result.total))

    def test_non_real_data_is_flagged(self):
        # a real odd-power coefficient breaks reflection symmetry (odd powers
        # must be purely imaginary for the density to be real)
        space = QHSpace("bad", (FixedComponent("c", Fraction(3, 10), {3: 1.0}),), 1)
        with pytest.raises(NonRealDensityError, match="non-real density"):
            density(space, 0.6)

    @pytest.mark.parametrize("coeffs", [{2: 1e-30, 3: 1e-30}, {3: 1e-12}])
    def test_tiny_non_real_data_is_flagged(self, coeffs):
        # the residual is relative to the size of the coefficients, so a
        # non-real space is refused however small its density is
        space = QHSpace("bad", (FixedComponent("c", Fraction(3, 10), coeffs),), 1)
        with pytest.raises(NonRealDensityError, match="non-real density"):
            density(space, 0.6)
        with pytest.raises(NonRealDensityError, match="non-real density"):
            scan(space, [0.2, 0.4, 0.6, 0.8])

    def test_central_value_reads_only_its_branch(self):
        # {3: 1.0} at mu = 0: the above branch is annihilated by parity and
        # is all an interior point reaches; +e reads the non-real below branch
        comp = FixedComponent("c", Fraction(0), {3: 1.0})
        assert component_density(comp, 0.3) == 0.0
        assert component_central_density(comp, CentralElement.MINUS_IDENTITY) == 0.0
        with pytest.raises(NonRealDensityError, match="below branch"):
            component_central_density(comp, CentralElement.IDENTITY)

    def test_central_odd_power_is_annihilated_by_parity(self):
        # on a central component the kernel is even in z, so an odd power
        # contributes exactly zero rather than a complex artifact
        space = QHSpace("odd", (FixedComponent("c", Fraction(0), {3: 1.0}),), 1)
        assert density(space, 0.3).total == 0.0

    def test_linearity_in_coefficients(self, rng):
        for _ in range(10):
            space = make_random_space(rng, n_components=1)
            comp = space.components[0]
            t = interior_t_avoiding_walls(rng, space)
            lam = rng.uniform(0.2, 3.0)
            scaled = FixedComponent(
                comp.label, comp.mu, {k: lam * c for k, c in comp.euler_integral.items()}
            )
            assert component_density(scaled, t) == pytest.approx(
                lam * component_density(comp, t), rel=1e-13, abs=1e-15
            )

    def test_additivity_over_components(self, rng):
        for _ in range(10):
            a = make_random_space(rng, n_components=1).components[0]
            b = make_random_space(rng, n_components=1).components[0]
            merged = QHSpace(
                "merged",
                (
                    FixedComponent("a", a.mu, a.euler_integral),
                    FixedComponent("b", b.mu, b.euler_integral),
                ),
                1,
            )
            t = interior_t_avoiding_walls(rng, merged)
            total = density(merged, t).total
            parts = component_density(a, t) + component_density(b, t)
            assert total == pytest.approx(parts, rel=1e-13, abs=1e-14)


class TestWalls:
    WALL_SPACE = QHSpace(
        "walled",
        (FixedComponent("w", Fraction(1, 2), {2: 0.5, 4: -0.25}),),
        1,
    )

    def test_default_policy_errors(self):
        with pytest.raises(WallError, match="evaluation on a wall"):
            density(self.WALL_SPACE, 0.5)

    def test_one_sided_policies(self):
        left = density(self.WALL_SPACE, 0.5, EvalOptions(wall_policy=WallPolicy.LEFT_LIMIT))
        right = density(self.WALL_SPACE, 0.5, EvalOptions(wall_policy=WallPolicy.RIGHT_LIMIT))
        # the one-sided values continue the adjacent open intervals
        just_left = density(self.WALL_SPACE, 0.5 - 1e-9).total
        just_right = density(self.WALL_SPACE, 0.5 + 1e-9).total
        assert left.total == pytest.approx(just_left, abs=1e-6)
        assert right.total == pytest.approx(just_right, abs=1e-6)

    def test_walls_only_matter_for_interior_mu(self):
        # central components never wall inside the open alcove
        space = make_product_space(1)
        assert density(space, 0.5).total > 0.0


class TestCentral:
    def test_product1_at_minus_identity(self):
        space = make_product_space(1)
        value = central_density(space, CentralElement.MINUS_IDENTITY)
        assert value == pytest.approx(1.0 / (2.0 * SQRT2 * math.pi), rel=1e-12)
        assert value == pytest.approx(0.11253954, abs=5e-9)

    def test_product2_at_minus_identity(self):
        space = make_product_space(2)
        value = central_density(space, CentralElement.MINUS_IDENTITY)
        assert value == pytest.approx(1.0 / (24.0 * SQRT2 * math.pi), rel=1e-12)

    def test_zero_coefficients(self):
        space = QHSpace("null", (FixedComponent("z", Fraction(0), {2: 0.0}),), 1)
        for which in CentralElement:
            assert central_density(space, which) == 0.0

    def test_limits_match_central_formulas(self, rng):
        # per component, the below-branch continues to t=0 and the
        # above-branch to t=1; Richardson over h in {1e-2, 1e-3, 1e-4}
        offsets = [1e-2, 1e-3, 1e-4]

        def branch_density(comp, t, branch):
            return branch_value(_compile(comp), t, branch) / math.sin(math.pi * t)

        for _ in range(8):
            space = make_random_space(rng, n_components=1)
            comp = space.components[0]
            below = extrapolate_to_zero(
                [(h, branch_density(comp, h, "below")) for h in offsets]
            )[0]
            expected_e = component_central_density(comp, CentralElement.IDENTITY)
            assert abs(below.real - expected_e) <= 1e-6 * (1.0 + abs(expected_e))
            above = extrapolate_to_zero(
                [(h, branch_density(comp, 1.0 - h, "above")) for h in offsets]
            )[0]
            expected_me = component_central_density(comp, CentralElement.MINUS_IDENTITY)
            assert abs(above.real - expected_me) <= 1e-6 * (1.0 + abs(expected_me))


def series_branch_value(component, t, branch):
    """One branch of the residue formula with every series rebuilt at t.

    The per-point evaluation the chamber polynomials replace, kept as the
    reference they are checked against.
    """
    mu = float(component.mu)
    high = component.max_power + 4
    if branch == "below":
        phase = exp_linear(1j * math.pi * mu, high)
        oscillation = sin_linear(math.pi * t, high)
        sign = -1.0
    else:
        phase = exp_linear(1j * math.pi * (mu + 1.0), high)
        oscillation = sin_linear(math.pi * (1.0 - t), high)
        sign = 1.0
    coefficients = from_coefficients({-k: c for k, c in component.euler_integral.items()})
    product = shift(mul(mul(phase, oscillation), mul(bose_kernel(high), coefficients)), 1)
    half = 0.5 if component.central else 1.0
    prefactor = 4.0 * math.pi**2 * 1j / SQRT2
    return sign * prefactor * half * residue(product) / math.sin(math.pi * t)


class TestChamberPolynomials:
    def test_branches_match_per_point_series(self, rng):
        for _ in range(20):
            comp = make_random_space(rng, n_components=1).components[0]
            poly = _compile(comp)
            for t in (0.03, 0.3, 0.5, 0.77, 0.97):
                for branch in ("below", "above"):
                    expected = series_branch_value(comp, t, branch)
                    value = branch_value(poly, t, branch) / math.sin(math.pi * t)
                    assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected))

    @pytest.mark.parametrize("n", range(1, 31))
    def test_products_match_closed_form(self, n):
        space = make_product_space(n)
        for t in GRID:
            closed = product_closed_form(n, t)
            assert abs(density(space, t).total - closed) <= 1e-10 * abs(closed)

    def test_one_sided_wall_values_are_chamber_limits(self, rng):
        # Richardson limits of the adjacent chambers' densities as t -> mu
        offsets = [1e-3, 5e-4, 2.5e-4, 1.25e-4]
        left = EvalOptions(wall_policy=WallPolicy.LEFT_LIMIT)
        right = EvalOptions(wall_policy=WallPolicy.RIGHT_LIMIT)
        walls_checked = 0
        for _ in range(25):
            space = make_random_space(rng)
            for wall in {float(c.mu) for c in space.components if not c.central}:
                from_left = extrapolate_to_zero(
                    [(h, density(space, wall - h).total) for h in offsets]
                )[0].real
                from_right = extrapolate_to_zero(
                    [(h, density(space, wall + h).total) for h in offsets]
                )[0].real
                assert density(space, wall, left).total == pytest.approx(
                    from_left, rel=1e-7, abs=1e-7
                )
                assert density(space, wall, right).total == pytest.approx(
                    from_right, rel=1e-7, abs=1e-7
                )
                walls_checked += 1
        assert walls_checked >= 20

    def test_each_component_is_compiled_once(self, monkeypatch, rng):
        # once per component and space object, whichever entry point comes
        # first; both branches are compiled together
        branches = []
        compile_branch = residue_module._branch

        def counting(*args):
            branches.append(args)
            return compile_branch(*args)

        monkeypatch.setattr(residue_module, "_branch", counting)
        space = make_random_space(rng, n_components=3)
        n = len(space.components)
        for _ in range(2):
            for which in CentralElement:
                central_density(space, which)
                reduced_volume(space, which)
            scan(space, GRID, EvalOptions(wall_policy=WallPolicy.LEFT_LIMIT))
            density(space, 0.37)
            reduced_volume(space, 0.37)
        assert len(branches) == 2 * n
        # another space object of the same component objects compiles its own
        copied = copy.copy(space)
        assert all(a is b for a, b in zip(copied.components, space.components))
        for _ in range(2):
            density(copied, 0.37)
            central_density(copied, CentralElement.IDENTITY)
        assert len(branches) == 4 * n
        # so does each one-component space of the conftest helpers
        for comp in space.components:
            component_density(comp, 0.37)
            component_central_density(comp, CentralElement.MINUS_IDENTITY)
        assert len(branches) == 8 * n


def fraction_branch(coefficients, weight: Fraction, sign: Fraction) -> tuple:
    """`_branch` with each R = sign 2^n B_n(weight/2) (-1)^j / (n! (2j+1)!) built
    from Fraction operations and rounded by float(Fraction)."""
    max_power = max(k for k, _ in coefficients)
    scaled = [(k, c * math.pi**k) for k, c in coefficients]
    bernoulli = bernoulli_fractions(weight / 2, max_power - 2)
    coeffs = []
    for j in range(max_power // 2):
        acc = 0j
        for k, c in scaled:
            n = k - 2 - 2 * j
            if n >= 0:
                exact = sign * 2**n * bernoulli[n] * (-1) ** j
                exact /= math.factorial(n) * math.factorial(2 * j + 1)
                acc += c * 1j ** (n % 4) * float(exact)
        coeffs.append(VOL_T * acc)
    size = max(map(abs, coeffs))
    return tuple(c.real for c in coeffs), max(abs(c.imag) for c in coeffs) / size if size else 0.0


class TestBranchRounding:
    """Each exact R is rounded once, as one integer division: the bits of float(Fraction)."""

    @pytest.mark.parametrize(
        "comp",
        [
            *(make_product_space(n).components[0] for n in range(1, 41)),
            FixedComponent("deep", Fraction(2, 7), {2: 1.0, 151: 0.5j, 300: 1e-120}),
            FixedComponent("e", Fraction(0), {2: 0.3, 4: -0.5, 6: 0.25}),
            FixedComponent("-e", Fraction(1), {2: -0.3, 4: 0.5, 8: 1.5}),
            FixedComponent("wall", Fraction(3, 10), {2: 1.0, 3: 0.5j, 5: -0.25j, 6: 2.0}),
        ],
        ids=lambda comp: f"{comp.label}-{comp.max_power}",
    )
    def test_coefficients_round_as_fractions(self, comp):
        coefficients = tuple(comp.euler_integral.items())
        half = Fraction(1, 2) if comp.central else Fraction(1)
        for weight, sign in ((comp.mu, -half), (comp.mu + 1, half)):
            real, residual = residue_module._branch(coefficients, weight, sign)
            expected, expected_residual = fraction_branch(coefficients, weight, sign)
            assert [c.hex() for c in real] == [c.hex() for c in expected]
            assert residual.hex() == expected_residual.hex()

    def test_pole_order_beyond_pi_power_range_keeps_its_message(self):
        space = QHSpace("deep", (FixedComponent("a", Fraction(1, 4), {640: 1e-300}),), 1)
        with pytest.raises(DensityOverflowError) as refused:
            density(space, 0.3)
        assert str(refused.value) == (
            "numeric overflow: component 'a' has coefficients beyond the float range "
            "on its below branch"
        )


class TestReducedVolume:
    def test_s4_volume_is_one(self):
        space = make_s4()
        for t in GRID:
            assert reduced_volume(space, t) == pytest.approx(1.0, rel=1e-12)

    def test_product1_interior(self):
        space = make_product_space(1)
        assert reduced_volume(space, 0.3) == pytest.approx(0.7, rel=1e-12)

    def test_product1_at_minus_identity(self):
        space = make_product_space(1)
        assert reduced_volume(space, CentralElement.MINUS_IDENTITY) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_product2_at_minus_identity(self):
        space = make_product_space(2)
        assert reduced_volume(space, CentralElement.MINUS_IDENTITY) == pytest.approx(
            1.0 / 12.0, rel=1e-12
        )

    def test_scaling_covariance(self, rng):
        for _ in range(10):
            space = make_random_space(rng, n_components=1)
            comp = space.components[0]
            lam = rng.uniform(0.5, 2.0)
            scaled = QHSpace(
                space.name,
                (
                    FixedComponent(
                        comp.label,
                        comp.mu,
                        {k: lam * c for k, c in comp.euler_integral.items()},
                    ),
                ),
                space.stabilizer_order,
            )
            t = interior_t_avoiding_walls(rng, space)
            assert reduced_volume(scaled, t) == pytest.approx(
                lam * reduced_volume(space, t), rel=1e-12, abs=1e-15
            )


class TestScan:
    def test_grid_shape(self):
        points = scan(make_s4(), [0.1 * i for i in range(1, 10)])
        assert len(points) == 9
        assert all(p.error is None for p in points)
        assert [p.t for p in points] == pytest.approx([0.1 * i for i in range(1, 10)])

    def test_s4_volumes_on_grid(self):
        for point in scan(make_s4(), GRID):
            assert point.volume == pytest.approx(1.0, rel=1e-10)

    def test_empty_grid(self):
        assert scan(make_s4(), []) == []

    def test_wall_rows_are_collected(self):
        space = TestWalls.WALL_SPACE
        points = scan(space, [0.25, 0.5, 0.75])
        assert [p.error is None for p in points] == [True, False, True]
        assert "wall" in points[1].error

    def test_fail_fast(self):
        with pytest.raises(WallError):
            scan(TestWalls.WALL_SPACE, [0.5], fail_fast=True)


def packed(*values) -> tuple:
    """Floats as their IEEE bytes, so that equal rows are equal to the bit."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


def density_bytes(result: DensityResult) -> tuple:
    parts = [x for item in result.per_component.items() for x in item]
    return packed(result.t, result.total, result.max_imag_residual, *parts)


class TestScanRows:
    """A scan row is the per-point density and its volume, to the bit."""

    @pytest.mark.parametrize("policy", list(WallPolicy))
    def test_rows_equal_per_point_density(self, policy, rng):
        options = EvalOptions(wall_policy=policy)
        spaces = [load_space(WALLED.read_text())]
        spaces += [make_random_space(rng) for _ in range(12)]
        error_rows = wall_rows = 0
        for space in spaces:
            walls = [float(c.mu) for c in space.components if not c.central]
            grid = [interior_t_avoiding_walls(rng, space) for _ in range(8)]
            grid += walls + [0.0, 1.0, -0.5, 1.25]
            rows = scan(space, grid, options)
            assert len(rows) == len(grid)
            for t, row in zip(grid, rows):
                wall_rows += t in walls
                try:
                    result = density(space, t, options)
                except (WallError, AlcoveRangeError) as exc:
                    assert packed(row.t, row.result, row.volume) == packed(float(t), None, None)
                    assert row.error == str(exc)
                    error_rows += 1
                    continue
                volume = interior_volume(space, result.t, result.total)
                assert packed(row.t, row.volume, row.error) == packed(result.t, volume, None)
                assert density_bytes(row.result) == density_bytes(result)
        assert wall_rows >= 10
        expected = 4 * len(spaces) + (wall_rows if policy is WallPolicy.ERROR else 0)
        assert error_rows == expected

    @pytest.mark.parametrize("policy", list(WallPolicy))
    def test_fail_fast_raises_the_first_error_row(self, policy):
        space = load_space(WALLED.read_text())
        options = EvalOptions(wall_policy=policy)
        grid = [0.25, 0.5, 1.5, 0.75]
        first_error = next(r.error for r in scan(space, grid, options) if r.error)
        with pytest.raises((WallError, AlcoveRangeError)) as info:
            scan(space, grid, options, fail_fast=True)
        assert str(info.value) == first_error
        clean = [0.1, 0.5, 0.9] if policy is not WallPolicy.ERROR else [0.1, 0.9]
        fast, slow = scan(space, clean, options, fail_fast=True), scan(space, clean, options)
        assert [density_bytes(r.result) + packed(r.volume) for r in fast] == [
            density_bytes(r.result) + packed(r.volume) for r in slow
        ]


class TestInteriorTable:
    """Each space object keeps one table per reach; every call judges it."""

    def test_table_is_built_once_per_space_object(self):
        space = make_product_space(5)
        density(space, 0.5)
        # the first call builds every reach's table, all on one row list
        tables = dict(space._compiled)
        assert sorted(tables) == ["above", "below", "interior"]
        rows = tables["interior"][0]
        assert all(tables[reach][0] is rows for reach in tables)
        assert [label for label, _ in rows] == [c.label for c in space.components]
        assert all(poly == _compile(c) for c, (_, poly) in zip(space.components, rows))
        for reach in ("interior", "below", "above"):
            assert tables[reach][1] == max(poly.judged[reach][1] for _, poly in rows)
        # each reach's verdict is stored on the row; below and above judge themselves
        for _, poly in rows:
            assert poly.judged["interior"] in (poly.judged["below"], poly.judged["above"])
            for side in ("below", "above"):
                assert poly.judged[side][0] == side
        for i in range(100):
            density(space, (i + 0.5) / 100)
        scan(space, GRID)
        reduced_volume(space, 0.3)
        for which in CentralElement:
            central_density(space, which)
            reduced_volume(space, which)
        assert space._compiled == tables
        assert all(space._compiled[reach] is tables[reach] for reach in tables)
        # the components keep nothing; every table is the space's
        assert all(vars(comp).keys() == {"label", "mu", "euler_integral"}
                   for comp in space.components)

    def test_equal_objects_compile_their_own_data(self, rng):
        text = save_space(make_random_space(rng, n_components=3))
        first, second = load_space(text), load_space(text)
        for space in (first, second):
            density(space, 0.37)
            central_density(space, CentralElement.IDENTITY)
        for reach in ("interior", "below", "above"):
            assert first._compiled[reach] == second._compiled[reach]
            assert first._compiled[reach][0] is not second._compiled[reach][0]
        for (_, a), (_, b) in zip(first._compiled["interior"][0], second._compiled["interior"][0]):
            assert a == b and a is not b
        # the compiled data are not part of the value
        fresh = load_space(text)
        assert first == second == fresh
        assert repr(first) == repr(fresh)
        assert save_space(first) == text

    def test_compiled_data_die_with_the_space(self, rng):
        space = make_random_space(rng, n_components=3)
        components = space.components
        density(space, 0.37)
        central_density(space, CentralElement.MINUS_IDENTITY)
        compiled = [weakref.ref(poly) for _, poly in space._compiled["interior"][0]]
        assert len(compiled) == len(components)
        assert all(poly() is not None for poly in compiled)
        del space
        gc.collect()
        # the components live on, and hold none of the space's rows
        assert all(poly() is None for poly in compiled)

    def test_warm_values_equal_cold_values_bit_for_bit(self, rng):
        # a fresh equal object is cold; its values must be the warm object's, bit for bit
        def values(space):
            grid = [0.05 * i for i in range(-1, 22)]
            rows = [
                packed(r.t, r.error, r.volume) + (density_bytes(r.result) if r.result else ())
                for r in scan(space, grid, EvalOptions(wall_policy=WallPolicy.RIGHT_LIMIT))
            ]
            central = [central_density(space, which) for which in CentralElement]
            volumes = [reduced_volume(space, which) for which in CentralElement]
            return rows, packed(*central, *volumes, density(space, 0.37).total)

        for _ in range(10):
            space = make_random_space(rng)
            values(space)
            warm = values(space)
            assert warm == values(load_space(save_space(space)))

    def test_reach_is_judged_from_the_exact_mu(self):
        # mu = 1e-400 is 0.0 as a float, yet the component is not central, so
        # an interior point reaches its (non-real) below branch as well
        comp = FixedComponent("a", Fraction(1, 10**400), {2: 1.0, 3: 1.0})
        assert float(comp.mu) == 0.0 and not comp.central
        space = QHSpace("tiny", (comp,), 1)
        message = (
            "non-real density (check input data): component 'a' has relative imaginary "
            "residual 9.529e-01 on its below branch"
        )
        for _ in range(2):
            for call in (
                lambda: density(space, 0.3),
                lambda: scan(space, [0.3]),
                lambda: component_density(comp, 0.3),
            ):
                with pytest.raises(NonRealDensityError) as info:
                    call()
                assert str(info.value) == message

    def test_euler_integral_is_read_only(self):
        # a changed coefficient would leave the stored compile answering stale values
        space = make_s4()
        before = density(space, 0.3)
        with pytest.raises(TypeError):
            space.components[0].euler_integral[2] = 5.0
        assert density(space, 0.3) == before
        assert density(space, 0.3) == density(load_space(save_space(space)), 0.3)

    def test_tolerance_is_judged_on_every_call(self):
        comp = FixedComponent("c", Fraction(3, 10), {2: 1.0, 3: 1e-6})
        space = QHSpace("mixed", (FixedComponent("a", Fraction(1, 2), {2: 1.0}), comp), 1)
        poly = _compile(comp)
        branch, residual = max((poly.judged[side] for side in ("below", "above")),
                               key=lambda judged: judged[1])
        assert poly.judged["interior"] == (branch, residual)
        assert 1e-9 < residual < 1e-3
        loose = EvalOptions(imag_tolerance=10 * residual)
        tight = EvalOptions(imag_tolerance=residual / 10)
        message = (
            f"non-real density (check input data): component 'c' has relative imaginary "
            f"residual {residual:.3e} on its {branch} branch"
        )
        for _ in range(2):
            assert density(space, 0.6, loose).max_imag_residual == residual
            assert all(p.error is None for p in scan(space, [0.15, 0.4, 0.65, 0.85], loose))
            for call in (
                lambda: density(space, 0.6, tight),
                lambda: scan(space, GRID, tight),
                lambda: reduced_volume(space, 0.6, tight),
            ):
                with pytest.raises(NonRealDensityError) as info:
                    call()
                assert str(info.value) == message
            # +e reaches only the below branch, -e only the above one
            for which, side in zip(CentralElement, ("below", "above")):
                assert math.isfinite(central_density(space, which, loose))
                with pytest.raises(NonRealDensityError) as info:
                    central_density(space, which, tight)
                assert str(info.value) == (
                    f"non-real density (check input data): component 'c' has relative "
                    f"imaginary residual {poly.judged[side][1]:.3e} on its {side} branch"
                )

    def test_first_component_at_fault_is_named(self):
        # 'b' has the larger residual, but 'a' comes first in component order
        space = QHSpace(
            "two",
            (
                FixedComponent("a", Fraction(3, 10), {2: 1.0, 3: 1e-6}),
                FixedComponent("b", Fraction(7, 10), {2: 1.0, 3: 1e-3}),
            ),
            1,
        )
        for _ in range(2):
            with pytest.raises(NonRealDensityError, match="component 'a'"):
                density(space, 0.5)
            for which in CentralElement:
                with pytest.raises(NonRealDensityError, match="component 'a'"):
                    central_density(space, which)

    def test_overflowed_branch_is_refused_on_every_call(self):
        space = TestOverflow.space(1e308)
        loosest = EvalOptions(imag_tolerance=1.0)
        for _ in range(3):
            for call in (
                lambda: density(space, 0.5),
                lambda: density(space, 0.5, loosest),
                lambda: scan(space, [0.5], loosest),
                lambda: reduced_volume(space, 0.5),
                lambda: central_density(space, CentralElement.IDENTITY, loosest),
                lambda: reduced_volume(space, CentralElement.MINUS_IDENTITY, loosest),
            ):
                with pytest.raises(DensityOverflowError, match="component 'a' has coefficients"):
                    call()


class TestRecords:
    def test_fields_and_defaults(self):
        missing = dataclasses.MISSING
        assert [
            (f.name, f.default, f.default_factory) for f in dataclasses.fields(DensityResult)
        ] == [
            ("t", missing, missing),
            ("total", missing, missing),
            ("per_component", missing, dict),
            ("max_imag_residual", 0.0, missing),
        ]
        assert [(f.name, f.default) for f in dataclasses.fields(ScanPoint)] == [
            ("t", missing),
            ("result", missing),
            ("volume", missing),
            ("error", None),
        ]

    def test_equal_rows_compare_equal(self):
        space = TestWalls.WALL_SPACE
        grid = [0.25, 0.5, 0.75]
        assert scan(space, grid) == scan(space, grid)
        assert density(space, 0.25) == density(space, 0.25)
        assert density(space, 0.25) != density(space, 0.75)
        assert DensityResult(0.5, 1.0) == DensityResult(t=0.5, total=1.0, per_component={})

    def test_repr(self):
        result = DensityResult(0.25, 1.5, {"a": 1.5})
        assert repr(result) == (
            "DensityResult(t=0.25, total=1.5, per_component={'a': 1.5}, max_imag_residual=0.0)"
        )
        assert repr(ScanPoint(0.5, None, None, "wall")) == (
            "ScanPoint(t=0.5, result=None, volume=None, error='wall')"
        )

    def test_records_are_slotted(self):
        for record in (DensityResult(0.5, 1.0), ScanPoint(0.5, None, None)):
            assert "__slots__" in vars(type(record))
            assert not hasattr(record, "__dict__")


class TestRealnessProperties:
    @settings(max_examples=300, deadline=None)
    @given(symmetric_components())
    def test_symmetric_data_compile_to_exactly_real_branches(self, comp):
        judged = _compile(comp).judged
        assert {reach: residual for reach, (_, residual) in judged.items()} == {
            "interior": 0.0, "below": 0.0, "above": 0.0
        }

    @settings(max_examples=200, deadline=None)
    @given(odd_real_components())
    def test_real_odd_power_is_refused_at_any_scale(self, comp):
        space = QHSpace("odd", (comp,), 1)
        with pytest.raises(NonRealDensityError, match="non-real density"):
            density(space, 0.37)
        with pytest.raises(NonRealDensityError, match="non-real density"):
            scan(space, [0.1, 0.37, 0.9])


def reflected(space: QHSpace) -> QHSpace:
    """The mirror space: each component moved to 1 - mu with c_k -> (-1)^(k+1) c_k."""
    components = tuple(
        FixedComponent(
            c.label, 1 - c.mu, {k: (-1) ** (k + 1) * a for k, a in c.euler_integral.items()}
        )
        for c in space.components
    )
    return QHSpace(space.name, components, space.stabilizer_order)


class TestReflection:
    """t -> 1 - t with the mirrored data is a symmetry of every density."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1).map(random.Random))
    def test_mirror_space(self, rand):
        # density at 1 - t equals density at t, and the central values swap e <-> -e
        space = make_random_space(rand)
        mirror = reflected(space)
        for _ in range(5):
            t = interior_t_avoiding_walls(rand, space)
            here, there = density(space, t), density(mirror, 1.0 - t)
            tol = 1e-12 * max(map(abs, here.per_component.values()))
            assert abs(there.total - here.total) <= tol
            for label, value in here.per_component.items():
                assert abs(there.per_component[label] - value) <= tol
        for which, swapped in (
            (CentralElement.IDENTITY, CentralElement.MINUS_IDENTITY),
            (CentralElement.MINUS_IDENTITY, CentralElement.IDENTITY),
        ):
            here = [component_central_density(c, which) for c in space.components]
            there = [component_central_density(c, swapped) for c in mirror.components]
            tol = 1e-12 * max(map(abs, here))
            assert all(abs(b - a) <= tol for a, b in zip(here, there))
            assert abs(central_density(mirror, swapped) - central_density(space, which)) <= tol


class TestOverflow:
    """Finite data whose arithmetic overflows are refused, never returned as inf or nan."""

    @staticmethod
    def space(coefficient: float, stabilizer_order: int = 1) -> QHSpace:
        comps = tuple(FixedComponent(label, Fraction(1, 4), {2: coefficient}) for label in "ab")
        return QHSpace("big", comps, stabilizer_order)

    @pytest.mark.parametrize("coefficient", [1e308, complex(1e307, 1e307)])
    def test_overflowing_coefficients_are_refused(self, coefficient):
        # 1e308 * pi^2 overflows while the branches are compiled; for
        # 1e307 * (1 + i) the coefficients are finite but their modulus is not,
        # which raised a bare OverflowError from abs()
        space = self.space(coefficient)
        for call in (
            lambda: density(space, 0.5),
            lambda: scan(space, [0.5]),
            lambda: central_density(space, CentralElement.IDENTITY),
            lambda: central_density(space, CentralElement.MINUS_IDENTITY),
        ):
            with pytest.raises(DensityOverflowError, match="component 'a' has coefficients beyond"):
                call()

    @pytest.mark.parametrize(
        "space",
        [
            make_product_space(320),  # pi^640 overflows; c_640 underflows to 0
            QHSpace("deep", (FixedComponent("a", Fraction(1, 4), {640: 1e-300}),), 1),
        ],
        ids=["product:320", "power-640"],
    )
    def test_pole_order_beyond_pi_power_range_is_refused(self, space):
        # pi**k overflows for k >= 621, which raised a bare OverflowError
        label = space.components[0].label
        for call in (
            lambda: density(space, 0.3),
            lambda: scan(space, [0.3]),
            lambda: central_density(space, CentralElement.IDENTITY),
            lambda: central_density(space, CentralElement.MINUS_IDENTITY),
        ):
            with pytest.raises(
                DensityOverflowError, match=f"component {label!r} has coefficients beyond"
            ):
                call()

    def test_overflowing_sum_is_refused(self):
        # each component is finite, about 1.2e308 at t = 0.3; their sum is not
        space = self.space(1e307)
        assert math.isfinite(component_density(space.components[0], 0.3))
        with pytest.raises(DensityOverflowError, match="density at t = 0.3 is not finite"):
            density(space, 0.3)
        with pytest.raises(DensityOverflowError, match="density at t = 0.3 is not finite"):
            scan(space, [0.3])
        # each central value is about -+5.33e307; four of them sum past the range
        comps = tuple(FixedComponent(f"c{i}", Fraction(i, 5), {2: 1.2e307}) for i in range(1, 5))
        space = QHSpace("big", comps, 1)
        for which in CentralElement:
            assert all(math.isfinite(component_central_density(c, which)) for c in comps)
            with pytest.raises(DensityOverflowError) as info:
                central_density(space, which)
            assert str(info.value) == f"numeric overflow: density at {which.value} is not finite"

    def test_overflowing_volume_is_refused(self):
        space = QHSpace("big", self.space(1e307).components[:1], 10**300)
        with pytest.raises(DensityOverflowError, match="volume at t = 0.5 is not finite"):
            reduced_volume(space, 0.5)
        with pytest.raises(DensityOverflowError, match="volume at t = 0.5 is not finite"):
            scan(space, [0.5])
        with pytest.raises(DensityOverflowError, match="volume at -e is not finite"):
            reduced_volume(space, CentralElement.MINUS_IDENTITY)


class TestOptions:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalOptions(imag_tolerance=0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_tolerance_must_be_finite(self, bad):
        # an infinite tolerance would turn the non-real check off
        with pytest.raises(ValueError, match="finite"):
            EvalOptions(imag_tolerance=bad)
