import functools
import inspect
import math
import os
import platform
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import strategies as st

import su2dh
from su2dh.model import VOL_T, FixedComponent, QHSpace, require_interior_alcove
from su2dh.residue import DEFAULT_OPTIONS, CentralElement, EvalOptions, central_density, density
from su2dh.series import bose_kernel, exp_linear, mul, sin_linear

PACKAGE = Path(su2dh.__file__).resolve().parent


def make_random_component(rng: random.Random, label: str) -> FixedComponent:
    """Random component whose data respects the reflection symmetry.

    Real coefficients at even powers and purely imaginary ones at odd powers
    make each component plus its Weyl partner contribute a real density;
    central components are their own partners, which forces even powers only.
    Interior mu values are exact twentieths so walls sit at known spots.
    """
    if rng.random() < 0.3:
        mu = Fraction(rng.choice([0, 1]))
        powers = rng.sample([2, 4, 6], k=rng.randint(1, 2))
        coeffs = {k: complex(rng.uniform(-1.0, 1.0), 0.0) for k in powers}
    else:
        mu = Fraction(rng.randint(1, 19), 20)
        powers = rng.sample([2, 3, 4, 5], k=rng.randint(1, 3))
        coeffs = {
            k: complex(rng.uniform(-1.0, 1.0), 0.0)
            if k % 2 == 0
            else complex(0.0, rng.uniform(-1.0, 1.0))
            for k in powers
        }
    return FixedComponent(label, mu, coeffs)


def component_density(
    component: FixedComponent, t: float, options: EvalOptions = DEFAULT_OPTIONS
) -> float:
    """One component's density contribution at exp(t*rho): its row in a one-component space."""
    return density(QHSpace("one", (component,), 1), t, options).per_component[component.label]


def component_central_density(
    component: FixedComponent, which: CentralElement, options: EvalOptions = DEFAULT_OPTIONS
) -> float:
    """One component's density contribution at a central element, as `component_density`."""
    return central_density(QHSpace("one", (component,), 1), which, options)


def make_random_space(rng: random.Random, n_components: int | None = None) -> QHSpace:
    n = n_components or rng.randint(1, 3)
    comps = tuple(make_random_component(rng, f"c{i}") for i in range(n))
    return QHSpace("random", comps, stabilizer_order=rng.randint(1, 3))


def interior_t_avoiding_walls(rng: random.Random, space: QHSpace) -> float:
    """Interior alcove point at least 0.02 away from every component wall."""
    walls = [float(c.mu) for c in space.components]
    while True:
        t = rng.uniform(0.08, 0.92)
        if all(abs(t - w) > 0.02 for w in walls):
            return t


@st.composite
def symmetric_components(draw) -> FixedComponent:
    """Reflection-symmetric component: mu at fortieths, powers 2-11, wide magnitudes."""
    mu = Fraction(draw(st.integers(0, 40)), 40)
    powers = range(2, 12, 2) if mu in (0, 1) else range(2, 12)
    chosen = draw(st.sets(st.sampled_from(powers), min_size=1, max_size=4))
    values = st.floats(-1e6, 1e6, allow_nan=False)
    coeffs = {
        k: complex(draw(values), 0.0) if k % 2 == 0 else complex(0.0, draw(values))
        for k in sorted(chosen)
    }
    return FixedComponent("c", mu, coeffs)


@st.composite
def odd_real_components(draw) -> FixedComponent:
    """Interior component with a real odd-power coefficient of size 1e-30 to 1.

    It may also carry one real even-power coefficient, at most as large.
    """
    mu = Fraction(draw(st.integers(1, 39)), 40)
    scale = 10.0 ** draw(st.floats(-30.0, 0.0))
    odd = draw(st.sampled_from([3, 5, 7, 9, 11]))
    coeffs = {odd: complex(draw(st.sampled_from([-scale, scale])), 0.0)}
    even = draw(st.sampled_from([None, 2, 4, 6, 8, 10]))
    if even is not None:
        coeffs[even] = complex(scale * draw(st.floats(-1.0, 1.0)), 0.0)
    return FixedComponent("c", mu, coeffs)


def run_child(script: str, *args: str, env: dict[str, str] | None = None) -> str:
    """Standard output of a fresh interpreter that runs the script on the arguments.

    ``env`` adds variables to the child's environment.
    """
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=60.0,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_COUNT_FAULTS = """
import ast, resource, sys
work = {name}(*ast.literal_eval(sys.argv[1]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
work()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(fn, *args) -> int:
    """Minor page faults of a fresh interpreter while it runs the work ``fn(*args)`` returns.

    ``fn`` is a module-level function that imports what it uses, and the
    arguments are literals.  The child runs its source, calls ``fn(*args)``
    for set-up and warm-up, and counts ``ru_minflt`` around one call of the
    function it returns.  The child imports neither pytest nor the test
    modules, because their start-up raises glibc's trim threshold, which
    would hide a heap that is trimmed and faulted back in.  Skips the calling
    test unless the platform is Linux with glibc.
    """
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        pytest.skip("minor faults are counted here only on Linux with glibc")
    script = inspect.getsource(fn) + _COUNT_FAULTS.format(name=fn.__name__)
    return int(run_child(script, repr(args)))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@functools.lru_cache(maxsize=None)
def _bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1."""
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * _bernoulli_number(j) for j in range(n)) / (n + 1)


def bernoulli_fractions(x: Fraction, high: int) -> list[Fraction]:
    """B_0(x), ..., B_high(x) as Fractions, each by its binomial sum
    B_n(x) = sum_j C(n, j) B_j x^(n-j) in Horner's rule: the tests' reference."""
    values = []
    for n in range(high + 1):
        value = Fraction(0)
        for j in range(n + 1):
            value = value * x + math.comb(n, j) * _bernoulli_number(j)
        values.append(value)
    return values


def exp_sum_reference(coeffs: dict[int, complex], gamma: float) -> tuple[complex, float]:
    """sum_{m != 0} e^{i*m*gamma} f(m) at 50 digits, and the sum of its term sizes.

    Each order k gives -(2*pi*i)^k / k! * B_k(x) with mpmath's Bernoulli
    polynomial at x = gamma/(2*pi) taken mod 1 (the series is 2*pi-periodic
    in gamma), so a negative gamma is not reflected as the library does.
    """
    with mpmath.workdps(50):
        x = mpmath.frac(mpmath.mpf(gamma) / (2 * mpmath.pi))
        terms = [
            -mpmath.mpc(a) * (2j * mpmath.pi) ** k / mpmath.factorial(k) * mpmath.bernpoly(k, x)
            for k, a in coeffs.items()
        ]
        return complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(term) for term in terms))


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
