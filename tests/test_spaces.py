"""Built-in spaces and their closed-form cross-checks."""

import math

import mpmath
import pytest

from su2dh.model import AlcoveRangeError
from su2dh.residue import CentralElement, density, reduced_volume
from su2dh.spaces import builtin_space, make_product_space, make_s4
from conftest import product_closed_form, witten_volume_n1

SQRT2 = math.sqrt(2.0)
GRID = [i / 20 for i in range(1, 20)]


class TestS4:
    def test_structure(self):
        space = make_s4()
        assert space.stabilizer_order == 1
        assert {c.label for c in space.components} == {"e", "-e"}
        assert space.component("e").mu == 0 and space.component("e").central
        assert space.component("-e").mu == 1 and space.component("-e").central

    def test_signs_forced_by_per_component_densities(self):
        space = make_s4()
        t = 0.3
        result = density(space, t)
        assert result.per_component["e"] == pytest.approx(
            (1 - t) / (SQRT2 * math.sin(math.pi * t)), rel=1e-12
        )
        assert result.per_component["-e"] == pytest.approx(
            t / (SQRT2 * math.sin(math.pi * t)), rel=1e-12
        )


class TestProductSpaces:
    def test_structure(self):
        for n in (1, 2, 5):
            space = make_product_space(n)
            assert space.stabilizer_order == 2
            (comp,) = space.components
            assert comp.mu == 0
            assert comp.euler_integral == {
                2 * n: pytest.approx(2.0 ** (-n) * math.pi ** (-2 * n))
            }

    def test_invalid_n(self):
        for n in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                make_product_space(n)

    def test_n1_closed_form_formula(self):
        for t in (0.2, 0.5, 0.8):
            assert product_closed_form(1, t) == pytest.approx(
                (1 - t) / (2 * SQRT2 * math.sin(math.pi * t)), rel=1e-13
            )
        assert product_closed_form(1, 0.5) == pytest.approx(0.1767767, abs=5e-8)

    def test_closed_form_matches_residue_path(self):
        for n in (1, 2, 3):
            space = make_product_space(n)
            for t in GRID:
                lhs = product_closed_form(n, t)
                rhs = density(space, t).total
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_closed_form_validation(self):
        with pytest.raises(ValueError):
            product_closed_form(0, 0.5)
        with pytest.raises(AlcoveRangeError):
            product_closed_form(1, 0.0)


class TestWittenVolume:
    def test_values(self):
        assert witten_volume_n1(0.25) == 0.75
        assert witten_volume_n1(1.0 - 1e-12) == pytest.approx(0.0, abs=1e-11)

    def test_matches_reduced_volume(self):
        space = make_product_space(1)
        for t in GRID:
            assert reduced_volume(space, t) == pytest.approx(
                witten_volume_n1(t), rel=1e-10
            )

    def test_range(self):
        with pytest.raises(AlcoveRangeError):
            witten_volume_n1(0.0)

    @pytest.mark.parametrize("g", range(1, 16))
    def test_twisted_moduli_volumes(self, g):
        # Witten (CMP 141, 1991): in this normalisation, the moduli space of flat
        # SU(2)-connections of genus g with holonomy -e around one puncture has
        # volume 2*eta(2g-2)/(2*pi^2)^(g-1), eta the Dirichlet eta function
        with mpmath.workdps(40):
            expected = 2 * mpmath.altzeta(2 * g - 2) / (2 * mpmath.pi**2) ** (g - 1)
        volume = reduced_volume(make_product_space(g), CentralElement.MINUS_IDENTITY)
        assert volume == pytest.approx(float(expected), rel=1e-14)


class TestBuiltinSelector:
    def test_grammar(self):
        assert builtin_space("s4").name == "s4"
        assert builtin_space("double") == make_product_space(1)
        assert builtin_space("product:3") == make_product_space(3)

    def test_unknown(self):
        for selector in ("sphere", "product:", "product:x", "product:0"):
            with pytest.raises(ValueError):
                builtin_space(selector)
