"""Command-line front end.

Three subcommands:

* ``eval``    - densities and reduced volumes over a point or grid, by the
                residue path, the Fourier path, or both side by side;
* ``central`` - density and volume at the central elements +e / -e;
* ``lemma``   - check the exponential-sum/residue identity for a given
                rational pole function and phase.

Output is a deterministic CSV or JSON table (15 significant digits, '.'
decimal separator, LF line endings).  Exit codes: 0 success, 2 input or
validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any

from .expsum import (
    ExpSumOverflowError,
    RationalPoleFunction,
    _check_gamma,
    exp_sum_extrapolated,
    exp_sum_residue,
)
from .extrapolation import abel_ladder
from .fourier import SummationMethod, reconstruct_density
from .model import SpaceFormatError, load_space, named, require_interior_alcove
from .residue import (
    CentralElement,
    DensityOverflowError,
    EvalOptions,
    NonRealDensityError,
    WallError,
    WallPolicy,
    central_density,
    interior_volume,
    reduced_volume,
    scan,
)
from .spaces import builtin_space

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_WALL_POLICIES = {
    "error": WallPolicy.ERROR,
    "left": WallPolicy.LEFT_LIMIT,
    "right": WallPolicy.RIGHT_LIMIT,
}

_NUMERIC_ERRORS = (WallError, NonRealDensityError, DensityOverflowError, ExpSumOverflowError)

# Each point of a grid costs one Fraction and one float before any
# evaluation, so a tiny step must be refused rather than enumerated.  The
# same bound caps --terms and --M, whose arrays would otherwise be allocated
# at any requested length.
_MAX_GRID_POINTS = 1_000_000


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid emitting the sign of a negative zero
    return format(x, ".15g")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2dh",
        description=(
            "Duistermaat-Heckman densities and reduced-space volumes for "
            "quasi-Hamiltonian SU(2)-spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_args(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--builtin", help="builtin space selector: s4, double, or product:N"
        )
        source.add_argument("--space", help="path of a JSON space file")

    def add_output_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output path (default: standard output)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_eval = sub.add_parser("eval", help="evaluate density and volume on a point or grid")
    add_space_args(p_eval)
    where = p_eval.add_mutually_exclusive_group(required=True)
    where.add_argument("--t", type=float, help="single alcove point in (0, 1)")
    where.add_argument("--grid", help="grid START:END:STEP of alcove points")
    p_eval.add_argument("--mode", choices=("residue", "fourier", "both"), default="residue")
    p_eval.add_argument("--method", choices=("partial", "abel", "cesaro"), default="abel")
    p_eval.add_argument("--terms", type=int, default=10_000, help="character series length")
    p_eval.add_argument("--abel", type=float, default=0.999, help="Abel damping radius")
    p_eval.add_argument(
        "--richardson", type=int, default=2, help="Richardson levels for Abel summation"
    )
    p_eval.add_argument("--imag-tol", type=float, default=1e-9)
    p_eval.add_argument("--wall-policy", choices=tuple(_WALL_POLICIES), default="error")
    add_output_args(p_eval)

    p_central = sub.add_parser("central", help="density and volume at a central element")
    add_space_args(p_central)
    p_central.add_argument("--at", choices=("e", "-e"), required=True)
    p_central.add_argument("--imag-tol", type=float, default=1e-9)
    add_output_args(p_central)

    p_lemma = sub.add_parser(
        "lemma", help="check the exponential-sum/residue identity"
    )
    p_lemma.add_argument(
        "--coeff",
        action="append",
        default=[],
        metavar="K:RE[:IM]",
        help="pole coefficient a_K (repeatable)",
    )
    p_lemma.add_argument("--gamma", type=float, required=True)
    p_lemma.add_argument("--M", type=int, default=100_000, help="partial-sum length")
    p_lemma.add_argument("--r", type=float, default=0.9999, help="Abel damping radius")
    p_lemma.add_argument("--tol", type=float, default=1e-5, help="PASS threshold")
    add_output_args(p_lemma)

    return parser


def _load_selected_space(args: argparse.Namespace):
    if args.builtin is not None:
        return builtin_space(args.builtin)
    try:
        with open(args.space, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SpaceFormatError(
            f"--space: cannot read {args.space!r}: {exc.strerror or exc}"
        ) from exc
    return load_space(data)


def _parse_grid(spec: str, walls: set[Fraction]) -> list[float]:
    """Grid points start + i*step for 0 <= i <= (END - START) // STEP.

    The bounds are checked as floats first, so that an exponent too large for
    a float is refused before its exact value is built.  The count is then one
    exact floor division.  A point whose exact value start + i*step is a wall
    is replaced by that wall's float, so the wall policy applies to it;
    rounding in the float sum would otherwise step past the wall and return a
    one-sided value.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise SpaceFormatError(f"grid must be START:END:STEP, got {spec!r}")
    not_numeric = f"grid must be numeric START:END:STEP, got {spec!r}"
    try:
        start, end, step = (float(p) for p in parts)
        if not (math.isfinite(start) and math.isfinite(step)):
            raise ValueError  # a non-finite START or STEP has no exact value
    except ValueError:
        raise SpaceFormatError(not_numeric) from None
    if not math.isfinite(end):
        raise SpaceFormatError("grid end must be finite")
    if step <= 0:
        raise SpaceFormatError("grid step must be positive")
    if not start < end:
        raise SpaceFormatError("grid start must be below grid end")
    span = (end - start) / step
    if not span < _MAX_GRID_POINTS:  # also catches an overflow to inf
        raise SpaceFormatError(
            f"grid {spec!r} has about {span + 1:.3g} points; the limit is {_MAX_GRID_POINTS}"
        )
    require_interior_alcove(start)
    try:
        exact_start, exact_end, exact_step = map(Fraction, parts)
    except ValueError:  # more digits than int() converts
        raise SpaceFormatError(not_numeric) from None
    points = []
    for i in range((exact_end - exact_start) // exact_step + 1):
        exact = exact_start + i * exact_step
        points.append(float(exact) if exact in walls else start + i * step)
    return points


def _emit(
    header: list[str], rows: list[list[str]], payload: dict[str, Any], args: argparse.Namespace
) -> None:
    """Write the rows as CSV, or the payload as JSON, to --out or standard output."""
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise SpaceFormatError(
                f"--out: cannot write {args.out!r}: {exc.strerror or exc}"
            ) from exc
    else:
        sys.stdout.write(text)


def _json_row(header: list[str], cells: list[str]) -> dict[str, Any]:
    """A row's cells keyed by header, with the component cells nested by label."""
    row: dict[str, Any] = {}
    for name, cell in zip(header, cells):
        if name.startswith("component_"):
            row.setdefault("components", {})[name.removeprefix("component_")] = float(cell)
        else:
            row[name] = float(cell)
    return row


def _cmd_eval(args: argparse.Namespace) -> int:
    space = _load_selected_space(args)
    options = named("--imag-tol", EvalOptions, args.imag_tol, _WALL_POLICIES[args.wall_policy])
    if not (0.0 < args.abel < 1.0):
        raise SpaceFormatError("--abel must lie in (0, 1)")
    if args.richardson < 0:
        raise SpaceFormatError("--richardson must be >= 0")
    if args.terms > _MAX_GRID_POINTS:
        raise SpaceFormatError(f"--terms must be at most {_MAX_GRID_POINTS}, got {args.terms}")
    # the first node leaves (0, 1) when 1 - --abel rounds to 1, a later one when
    # --richardson is too large for --abel
    flag = "--abel" if 1.0 - args.abel >= 1.0 else "--richardson"
    ladder = named(flag, abel_ladder, args.abel, args.richardson)
    # --method is a choice and abel_ladder checks the radii, so only --terms can fail
    method = named(
        "--terms",
        SummationMethod,
        kind=args.method,
        terms=args.terms,
        abel_r=tuple(1.0 - h for h in ladder),
    )

    header = ["t", "density", "volume"]
    if args.mode != "fourier":
        header += [f"component_{c.label}" for c in space.components]
    if args.mode == "both":
        header += ["fourier_density", "abs_diff"]

    if args.t is not None:
        grid = [args.t]
    else:
        grid = _parse_grid(args.grid, {c.mu for c in space.components})
    for t in grid:
        require_interior_alcove(t)

    rows: list[list[str]] = []
    json_rows: list[dict[str, Any]] = []
    if args.mode == "fourier":
        for t in grid:
            value = reconstruct_density(space, t, method, options=options)
            rows.append([_fmt(x) for x in (t, value, interior_volume(space, t, value))])
            json_rows.append(_json_row(header, rows[-1]))
    else:
        # a single --t fails on a wall, a grid skips the point; non-real data fail both
        for point in scan(space, grid, options, fail_fast=args.t is not None):
            if point.error is not None:
                print(f"warning: skipping t = {_fmt(point.t)}: {point.error}", file=sys.stderr)
                rows.append([_fmt(point.t)] + [""] * (len(header) - 1))
                json_rows.append({"t": float(rows[-1][0]), "error": point.error})
                continue
            result = point.result
            values = [result.t, result.total, point.volume]
            values += [result.per_component[c.label] for c in space.components]
            if args.mode == "both":
                fourier_value = reconstruct_density(space, result.t, method, options=options)
                values += [fourier_value, abs(result.total - fourier_value)]
            rows.append([_fmt(x) for x in values])
            json_rows.append(_json_row(header, rows[-1]))

    payload = {"command": "eval", "space": space.name, "mode": args.mode, "rows": json_rows}
    _emit(header, rows, payload, args)
    return EXIT_OK


def _cmd_central(args: argparse.Namespace) -> int:
    space = _load_selected_space(args)
    which = CentralElement.IDENTITY if args.at == "e" else CentralElement.MINUS_IDENTITY
    options = named("--imag-tol", EvalOptions, imag_tolerance=args.imag_tol)
    print(
        "warning: central value assumes the evaluation point is a regular value "
        "of the moment map; fixed-point data can show that it is not, never that it is",
        file=sys.stderr,
    )
    # the moment map is not a submersion at a T-fixed point, so a component over the
    # element makes it a critical value
    edge = 0 if which is CentralElement.IDENTITY else 1
    critical = ", ".join(repr(c.label) for c in space.components if c.mu == edge)
    if critical:
        print(
            f"warning: {args.at} is not a regular value of the moment map; "
            f"components at mu = {edge}: {critical}",
            file=sys.stderr,
        )
    density = _fmt(central_density(space, which, options))
    volume = _fmt(reduced_volume(space, which, options))
    payload = {
        "command": "central",
        "space": space.name,
        "at": args.at,
        "density": float(density),
        "volume": float(volume),
    }
    _emit(["at", "density", "volume"], [[args.at, density, volume]], payload, args)
    return EXIT_OK


def _parse_pole_coefficients(entries: list[str]) -> RationalPoleFunction:
    coeffs: dict[int, complex] = {}
    for entry in entries:
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise SpaceFormatError(f"--coeff must be K:RE or K:RE:IM, got {entry!r}")
        try:
            k = int(parts[0])
            re = float(parts[1])
            im = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError:
            raise SpaceFormatError(f"cannot parse --coeff {entry!r}") from None
        if k in coeffs:
            raise SpaceFormatError(f"duplicate --coeff pole order {k}")
        coeffs[k] = complex(re, im)
    if not coeffs:
        raise SpaceFormatError("at least one --coeff K:RE[:IM] is required")
    return named("--coeff", RationalPoleFunction, coeffs)


def _cmd_lemma(args: argparse.Namespace) -> int:
    # gamma is validated first so an out-of-range phase is reported even
    # without coefficients
    _check_gamma(args.gamma)
    f = _parse_pole_coefficients(args.coeff)
    if args.M < 1:
        raise SpaceFormatError("--M must be >= 1")
    if args.M > _MAX_GRID_POINTS:
        raise SpaceFormatError(f"--M must be at most {_MAX_GRID_POINTS}, got {args.M}")
    if not (0.0 < args.r < 1.0):
        raise SpaceFormatError("--r must lie in (0, 1)")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise SpaceFormatError("--tol must be finite and positive")

    residue_value = exp_sum_residue(f, args.gamma)
    # every other argument is checked above, so only the ladder from --r can be refused
    oracle_value = named(
        "--r", exp_sum_extrapolated, f, args.gamma, M=args.M, damping_r=args.r
    )
    diff = abs(residue_value - oracle_value)
    passed = diff <= args.tol * (1.0 + abs(residue_value))
    status = "PASS" if passed else "FAIL"

    values = (args.gamma, residue_value.real, residue_value.imag)
    values += (oracle_value.real, oracle_value.imag, diff)
    cells = [_fmt(x) for x in values]
    gamma, residue_re, residue_im, partial_re, partial_im, abs_diff = map(float, cells)
    header = ["gamma", "residue_re", "residue_im", "partial_re", "partial_im", "abs_diff"]
    payload = {
        "command": "lemma",
        "gamma": gamma,
        "residue": [residue_re, residue_im],
        "partial_sum": [partial_re, partial_im],
        "abs_diff": abs_diff,
        "status": status,
    }
    _emit(header + ["status"], [cells + [status]], payload, args)
    return EXIT_OK if passed else EXIT_NUMERIC


def _normalize_argv(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Join each option that takes a value to the next word by ``=``.

    argparse reads ``-1e-1`` or ``-e`` as a flag unless it is joined; a next
    word that is itself an option stays apart, so a missing value is reported.
    """
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: action.nargs != 0 for each in (parser, *commands.choices.values())
               for name, action in each._option_string_actions.items()}
    out: list[str] = []
    for word in argv:
        if out and options.get(out[-1]) and word not in options and not word.startswith("--"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv), parser))
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "central":
            return _cmd_central(args)
        return _cmd_lemma(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
