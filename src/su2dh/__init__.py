"""Duistermaat-Heckman densities for quasi-Hamiltonian SU(2)-spaces.

Computes the density of the pushforward of the Liouville measure under a
group-valued moment map, and the symplectic volumes of the reduced spaces,
from fixed-point localization data.  Two independent evaluation paths are
provided (residues in closed form from exact Bernoulli values, and
accelerated summation of the localization Fourier series), plus a standalone
exponential-sum/residue identity checker.  The truncated-Laurent-series
engine `su2dh.series` is the tests' reference: no other module imports it,
and `import su2dh` does not load it.
"""

from .expsum import (
    ExpSumOverflowError,
    GammaRangeError,
    RationalPoleFunction,
    exp_sum_extrapolated,
    exp_sum_partial,
    exp_sum_residue,
)
from .fourier import (
    QuadratureError,
    QuadratureResult,
    QuadratureRule,
    SummationMethod,
    coefficient_quadrature,
    fourier_coefficient,
    reconstruct_density,
)
from .model import (
    VOL_G,
    VOL_T,
    AlcoveRangeError,
    DensityResult,
    FixedComponent,
    QHSpace,
    SpaceFormatError,
    load_space,
    save_space,
)
from .residue import (
    CentralElement,
    DensityOverflowError,
    EvalOptions,
    NonRealDensityError,
    ScanPoint,
    WallError,
    WallPolicy,
    central_density,
    density,
    reduced_volume,
    scan,
)
from .spaces import builtin_space, make_product_space, make_s4

__version__ = "0.1.0"

__all__ = [
    "AlcoveRangeError",
    "CentralElement",
    "DensityOverflowError",
    "DensityResult",
    "EvalOptions",
    "ExpSumOverflowError",
    "FixedComponent",
    "GammaRangeError",
    "NonRealDensityError",
    "QHSpace",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureRule",
    "RationalPoleFunction",
    "ScanPoint",
    "SpaceFormatError",
    "SummationMethod",
    "VOL_G",
    "VOL_T",
    "WallError",
    "WallPolicy",
    "builtin_space",
    "central_density",
    "coefficient_quadrature",
    "density",
    "exp_sum_extrapolated",
    "exp_sum_partial",
    "exp_sum_residue",
    "fourier_coefficient",
    "load_space",
    "make_product_space",
    "make_s4",
    "reconstruct_density",
    "reduced_volume",
    "save_space",
    "scan",
]
