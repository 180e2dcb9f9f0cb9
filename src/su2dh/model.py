"""Domain model for quasi-Hamiltonian SU(2) fixed-point data.

Conventions are pinned by the inner product with (alpha, alpha) = 2 for the
positive root alpha = 2*rho, which fixes Vol T = sqrt(2),
Vol G = sqrt(2)/(2*pi), (rho, rho) = 1/2, and identifies the alcove of
conjugacy classes with t in [0, 1] via t <-> exp(t*rho).  These constants are
part of the contract and are not configurable.

A space is described entirely by localization data: for each connected
component F of the fixed-point set of the Cartan circle that maps into the
alcove, the value mu_F with moment-map image exp(mu_F * rho), and the Laurent
coefficients c_k of the integral over F of exp(omega_F) divided by the
equivariant Euler class of its normal bundle evaluated at 2*pi*i*z*rho:

    integral_F exp(omega_F) / Eul(nu_F, 2*pi*i*z*rho) = sum_k c_k z^{-k}.

Regularity of the moment map forces the normal bundle to have rank >= 4, so
every power satisfies k >= 2; the model enforces the exponent condition but
cannot verify the underlying geometric assumption.

mu_F is held as an exact rational.  Whether a component is *central*
(mu in {0, 1}, i.e. the moment map sends it to +-identity) decides a discrete
factor 1/2 in every downstream formula, so it must never depend on a floating
tolerance.

A component is a plain frozen value.  Compiled data live on the space, in
its private `_compiled` dict: the chamber branches of its components, in one
residue table per reach (`residue`), and their Fourier fold rows and
coefficients (`fourier`).  The dict is an attribute set in `__post_init__`,
not a dataclass field, so equality, `repr`, `dataclasses.asdict` and the
space file ignore it.  Copies start without it, and no cache is keyed by
content.  This is sound because the data cannot change: both classes are
frozen, and `euler_integral` is a read-only dict.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Union


class SpaceFormatError(ValueError):
    """Raised when a space document violates the schema."""


class AlcoveRangeError(ValueError):
    """Raised when an evaluation point leaves the open alcove (0, 1)."""


VOL_T = math.sqrt(2.0)
VOL_G = VOL_T / (2.0 * math.pi)


def require_interior_alcove(t: float) -> float:
    t = float(t)
    if not (0.0 < t < 1.0):
        raise AlcoveRangeError(f"t out of open alcove: t = {t!r} is not in (0, 1)")
    return t


# the decimal exponent of a text, as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError, for read-only coefficients.

    Unlike a mappingproxy, it can be read by `dataclasses.asdict`, pickled
    and copied.
    """

    def _refuse(self, *args, **kwargs):
        raise TypeError("coefficients are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _ReadOnlyDict, (dict(self),)


@dataclass(frozen=True)
class FixedComponent:
    """One fixed-point component inside the alcove.

    ``euler_integral`` maps the power k >= 2 to the coefficient c_k of
    z^{-k}.  Coefficients are supplied signed: the orientation of the Euler
    class is the caller's responsibility and is never guessed here.  The
    stored mapping is read-only (see the module docstring).
    """

    label: str
    mu: Fraction
    euler_integral: Mapping[int, complex]

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise SpaceFormatError("component label must be a nonempty string")
        # Fraction(text) builds 10**|exponent|, which takes seconds for an exponent in the
        # millions; refuse one beyond the digit limit that int() applies to digit strings
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        exponent = _EXPONENT.search(self.mu) if isinstance(self.mu, str) else None
        if exponent and limit and len(exponent[1]) < limit and abs(int(exponent[1])) > limit:
            raise SpaceFormatError(
                f"component {self.label!r}: the decimal exponent of mu exceeds {limit}"
            )
        try:
            object.__setattr__(self, "mu", Fraction(self.mu))
        except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
            raise SpaceFormatError(
                f"component {self.label!r}: cannot parse mu as an exact rational "
                f"from {self.mu!r}"
            ) from exc
        if not (0 <= self.mu <= 1):
            raise SpaceFormatError(
                f"mu out of alcove range: component {self.label!r} has mu = {self.mu}"
            )
        if not self.euler_integral:
            raise SpaceFormatError(
                f"component {self.label!r}: Euler integral coefficients must be nonempty"
            )
        cleaned: dict[int, complex] = {}
        for k, c in self.euler_integral.items():
            if not isinstance(k, int) or isinstance(k, bool) or k < 2:
                raise SpaceFormatError(
                    f"component {self.label!r}: Euler integral must vanish to order >= 2 "
                    f"(got power {k!r})"
                )
            value = complex(c)
            if not cmath.isfinite(value):
                raise SpaceFormatError(
                    f"component {self.label!r}: Euler integral coefficient of power {k} "
                    f"must be finite (got {value!r})"
                )
            cleaned[k] = value
        object.__setattr__(self, "euler_integral", _ReadOnlyDict(sorted(cleaned.items())))

    @property
    def central(self) -> bool:
        """True when the moment map sends this component to +-identity."""
        return self.mu == 0 or self.mu == 1

    @property
    def max_power(self) -> int:
        return max(self.euler_integral)


@dataclass(frozen=True)
class QHSpace:
    """Named collection of fixed-point components plus stabilizer data.

    ``stabilizer_order`` is the cardinality of a generic stabilizer of the
    reduced-space action; it is global geometric data supplied by the user,
    not derivable from the fixed-point coefficients.
    """

    name: str
    components: tuple[FixedComponent, ...]
    stabilizer_order: int

    def __post_init__(self) -> None:
        # tables that `residue` and `fourier` store on first use; not a field
        object.__setattr__(self, "_compiled", {})
        # component order is not semantic; keep it canonical (sorted by label)
        object.__setattr__(
            self, "components", tuple(sorted(self.components, key=lambda c: c.label))
        )
        if not self.name or not isinstance(self.name, str):
            raise SpaceFormatError("space name must be a nonempty string")
        if not self.components:
            raise SpaceFormatError("space must have at least one component")
        labels = [c.label for c in self.components]  # sorted, so repeats are adjacent
        repeated = next((a for a, b in zip(labels, labels[1:]) if a == b), None)
        if repeated is not None:
            raise SpaceFormatError(f"component labels must be unique; {repeated!r} repeats")
        order = self.stabilizer_order
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise SpaceFormatError("stabilizer_order must be an integer >= 1")

    def component(self, label: str) -> FixedComponent:
        for c in self.components:
            if c.label == label:
                return c
        raise KeyError(label)

    def __reduce__(self):
        return QHSpace, (self.name, self.components, self.stabilizer_order)


@dataclass(slots=True)
class DensityResult:
    """Density at one alcove point with per-component breakdown.

    ``max_imag_residual`` is the largest relative imaginary residual,
    max_j |Im c_j| / max_j |c_j|, of the chamber-polynomial branches the
    call judged (all that an interior point can reach), kept for
    diagnostics; totals are sums of the per-component values up to rounding.

    A slotted record, not a frozen one: a scan builds one per point, and a
    frozen dataclass's ``__init__`` costs two to three times as much.  It
    holds a dict, so it was never hashable either way.
    """

    t: float
    total: float
    per_component: Mapping[str, float] = field(default_factory=dict)
    max_imag_residual: float = 0.0


# ---------------------------------------------------------------------------
# space files
# ---------------------------------------------------------------------------


def _check_object(value: Any, fields: tuple[str, ...], path: str) -> None:
    """Require an object holding exactly ``fields``, which are in schema order.

    The first unknown field by its text and the first missing field in
    schema order are named, so the message never depends on set iteration
    order.  Keys are compared as text because a mapping passed in directly
    may mix key types.
    """
    if not isinstance(value, Mapping):
        raise SpaceFormatError(f"malformed space file: {path}: must be an object")
    extra = set(value) - set(fields)
    if extra:
        first = min(extra, key=str)
        raise SpaceFormatError(f"malformed space file: {path}.{first}: unknown field")
    for key in fields:
        if key not in value:
            raise SpaceFormatError(f"malformed space file: {path}: missing field {key!r}")


def _check_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpaceFormatError(f"malformed space file: {path}: expected a number")
    number = float(value)
    if not math.isfinite(number):
        raise SpaceFormatError(f"malformed space file: {path}: must be finite, got {number!r}")
    return number


def _fraction_to_text(value: Fraction) -> str:
    """Exact decimal when the denominator allows it, else 'p/q'."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10**digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def named(prefix: str, constructor, *args, **kwargs):
    """Build an object, prefixing any rule it breaks with a space-file field or a flag."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise SpaceFormatError(f"{prefix}: {exc}") from exc


def _check_array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SpaceFormatError(f"malformed space file: {path}: must be an array")
    return value


def load_space(document: Union[str, bytes, Mapping[str, Any]]) -> QHSpace:
    """Parse and validate a space document (JSON text, UTF-8 bytes or a parsed mapping).

    The loader checks the JSON shape; every rule on the values belongs to
    :class:`FixedComponent` and :class:`QHSpace`.  Each error starts with
    ``malformed space file:`` and names the offending component
    (``components[i]``), the ``document``, or the path of the offending
    field.
    """
    if isinstance(document, (str, bytes)):
        try:  # bytes are UTF-8, not an encoding that json.loads guesses
            document = json.loads(document.decode() if isinstance(document, bytes) else document)
        except (ValueError, RecursionError) as exc:  # ValueError: also an int too long to parse
            raise SpaceFormatError(f"malformed space file: not valid JSON: {exc}") from exc
    _check_object(document, ("name", "stabilizer_order", "components"), "document")

    components: list[FixedComponent] = []
    for i, entry in enumerate(_check_array(document["components"], "components")):
        path = f"components[{i}]"
        _check_object(entry, ("label", "mu", "coefficients"), path)
        if not isinstance(entry["mu"], str):
            raise SpaceFormatError(
                f"malformed space file: {path}.mu: must be a string holding an exact "
                f"decimal or rational"
            )
        coeffs: dict[int, complex] = {}
        for j, item in enumerate(_check_array(entry["coefficients"], f"{path}.coefficients")):
            cpath = f"{path}.coefficients[{j}]"
            _check_object(item, ("power", "re", "im"), cpath)
            power = item["power"]
            if isinstance(power, bool) or not isinstance(power, int) or power < 2:
                raise SpaceFormatError(
                    f"malformed space file: {cpath}.power: Euler integral must vanish "
                    f"to order >= 2"
                )
            if power in coeffs:
                raise SpaceFormatError(
                    f"malformed space file: {cpath}.power: duplicate power {power}"
                )
            re = _check_number(item["re"], f"{cpath}.re")
            im = _check_number(item["im"], f"{cpath}.im")
            coeffs[power] = complex(re, im)
        where = f"malformed space file: {path}"
        components.append(named(where, FixedComponent, entry["label"], entry["mu"], coeffs))

    name, order = document["name"], document["stabilizer_order"]
    return named("malformed space file: document", QHSpace, name, tuple(components), order)


def save_space(space: QHSpace) -> str:
    """Canonical serialization: components sorted by label, powers ascending."""
    doc = {
        "name": space.name,
        "stabilizer_order": space.stabilizer_order,
        "components": [
            {
                "label": comp.label,
                "mu": _fraction_to_text(comp.mu),
                "coefficients": [
                    {"power": k, "re": c.real, "im": c.imag}
                    for k, c in sorted(comp.euler_integral.items())
                ],
            }
            for comp in space.components  # already canonically ordered
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
