"""Command-line interface: outputs, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import su2dh
from su2dh.model import FixedComponent, QHSpace, save_space
from conftest import odd_real_components

GOLDEN = Path(__file__).parent / "golden"

# Child interpreters do not inherit pytest's sys.path, so each child gets a
# PYTHONPATH holding the su2dh this process imported.
_SRC = str(Path(su2dh.__file__).resolve().parent.parent)
_CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p),
)


def run_cli(
    *args: str,
    expect: int = 0,
    env: dict[str, str] | None = None,
    input: str | None = None,
    timeout: float = 120.0,
):
    """Run ``python -m su2dh`` with extra environment variables and standard input.

    A child still running after ``timeout`` seconds is killed, and the test
    fails with ``subprocess.TimeoutExpired`` instead of stalling the suite.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "su2dh", *args],
        capture_output=True,
        text=True,
        input=input,
        env={**_CHILD_ENV, **(env or {})},
        timeout=timeout,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEval:
    def test_builtin_grid_both_modes(self):
        proc = run_cli(
            "eval", "--builtin", "s4", "--grid", "0.1:0.9:0.1", "--mode", "both"
        )
        header, rows = parse_csv(proc.stdout)
        assert header == [
            "t",
            "density",
            "volume",
            "component_-e",
            "component_e",
            "fourier_density",
            "abs_diff",
        ]
        assert len(rows) == 9
        assert max(float(r[-1]) for r in rows) <= 1e-3

    def test_product_single_point(self):
        proc = run_cli("eval", "--builtin", "product:1", "--t", "0.5")
        header, rows = parse_csv(proc.stdout)
        assert header[:3] == ["t", "density", "volume"]
        assert float(rows[0][1]) == pytest.approx(0.1767767, abs=5e-8)
        assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-12)

    def test_double_alias(self):
        a = run_cli("eval", "--builtin", "double", "--t", "0.25").stdout
        b = run_cli("eval", "--builtin", "product:1", "--t", "0.25").stdout
        assert a == b

    def test_bad_space_file_names_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "x",
                    "stabilizer_order": 1,
                    "components": [
                        {
                            "label": "a",
                            "mu": "0",
                            "coefficients": [{"power": 1, "re": 1.0, "im": 0.0}],
                        }
                    ],
                }
            )
        )
        proc = run_cli("eval", "--space", str(bad), "--t", "0.5", expect=2)
        assert "components[0].coefficients[0].power" in proc.stderr

    def test_space_file_round_trip_evaluation(self, tmp_path):
        # a file describing the rotation sphere evaluates like the builtin
        from su2dh.model import save_space
        from su2dh.spaces import make_s4

        path = tmp_path / "s4.json"
        path.write_text(save_space(make_s4()))
        a = run_cli("eval", "--space", str(path), "--t", "0.3").stdout
        b = run_cli("eval", "--builtin", "s4", "--t", "0.3").stdout
        assert a == b

    def test_wall_rows_are_marked_and_skipped(self, tmp_path):
        from su2dh.model import FixedComponent, QHSpace, save_space
        from fractions import Fraction

        space = QHSpace(
            "walled", (FixedComponent("w", Fraction(1, 2), {2: 0.5}),), 1
        )
        path = tmp_path / "walled.json"
        path.write_text(save_space(space))
        proc = run_cli("eval", "--space", str(path), "--grid", "0.25:0.75:0.25")
        header, rows = parse_csv(proc.stdout)
        assert len(rows) == 3
        assert rows[1][0] == "0.5" and all(cell == "" for cell in rows[1][1:])
        assert "wall" in proc.stderr

    def test_wall_single_point_is_numeric_failure(self, tmp_path):
        from su2dh.model import FixedComponent, QHSpace, save_space
        from fractions import Fraction

        space = QHSpace(
            "walled", (FixedComponent("w", Fraction(1, 2), {2: 0.5}),), 1
        )
        path = tmp_path / "walled.json"
        path.write_text(save_space(space))
        proc = run_cli("eval", "--space", str(path), "--t", "0.5", expect=3)
        assert "wall" in proc.stderr
        run_cli(
            "eval", "--space", str(path), "--t", "0.5", "--wall-policy", "left"
        )

    def test_non_finite_coefficient_is_usage_error(self, tmp_path):
        from su2dh.model import save_space
        from su2dh.spaces import make_s4

        doc = json.loads(save_space(make_s4()))
        doc["components"][0]["coefficients"][0]["re"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("eval", "--space", str(path), "--t", "0.5", expect=2)
        assert proc.stdout == ""
        assert "components[0].coefficients[0].re" in proc.stderr

    def test_grid_point_on_exact_wall(self, tmp_path):
        # 0.1 + 2*0.1 rounds to 0.30000000000000004, past the wall at 3/10;
        # the grid must still land on the wall and apply the wall policy
        from fractions import Fraction

        from su2dh.model import FixedComponent, QHSpace, save_space
        from su2dh.residue import EvalOptions, WallPolicy, density

        space = QHSpace(
            "walled", (FixedComponent("w", Fraction(3, 10), {2: 0.5, 4: -0.25}),), 1
        )
        path = tmp_path / "walled.json"
        path.write_text(save_space(space))
        args = ("eval", "--space", str(path), "--grid", "0.1:0.9:0.1")

        proc = run_cli(*args)
        _, rows = parse_csv(proc.stdout)
        assert len(rows) == 9
        assert rows[2][0] == "0.3" and all(cell == "" for cell in rows[2][1:])
        assert "skipping t = 0.3" in proc.stderr and "wall" in proc.stderr

        _, rows = parse_csv(run_cli(*args, "--wall-policy", "left").stdout)
        left = density(space, 0.3, EvalOptions(wall_policy=WallPolicy.LEFT_LIMIT)).total
        right = density(space, 0.3, EvalOptions(wall_policy=WallPolicy.RIGHT_LIMIT)).total
        assert abs(left - right) > 1.0
        assert float(rows[2][1]) == pytest.approx(left, rel=1e-14)

    def test_grid_outside_alcove_is_usage_error(self):
        run_cli("eval", "--builtin", "s4", "--grid", "0:1:0.5", expect=2)

    @pytest.mark.parametrize(
        "grid", ["0.1:inf:0.1", "inf:0.9:0.1", "0.1:0.9:inf", "nan:0.9:0.1"]
    )
    def test_non_finite_grid_is_usage_error(self, grid):
        proc = run_cli("eval", "--builtin", "s4", "--grid", grid, expect=2)
        assert proc.stdout == "" and "grid" in proc.stderr

    @pytest.mark.parametrize("mode", ["residue", "fourier"])
    def test_abel_ladder_leaving_unit_interval_is_usage_error(self, mode):
        # --abel 0.5 --richardson 2 asks for the radius 1 - 0.5 * 4 < 0; it is
        # refused in every mode, also where the ladder would go unused
        args = ("eval", "--builtin", "s4", "--t", "0.3", "--mode", mode)
        proc = run_cli(*args, "--abel", "0.5", "--richardson", "2", expect=2)
        assert proc.stdout == "" and "ladder" in proc.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--abel", "1.5"), "--abel must lie in (0, 1)"),
            (("--abel", "nan"), "--abel must lie in (0, 1)"),
            (("--richardson", "-1"), "--richardson must be >= 0"),
        ],
    )
    def test_bad_abel_flags_are_named(self, flags, message):
        proc = run_cli("eval", "--builtin", "s4", "--t", "0.3", *flags, expect=2)
        assert proc.stdout == "" and message in proc.stderr

    @pytest.mark.parametrize(
        "step, count", [("1e-300", "8e+299"), ("1e-7", "8e+06")]
    )
    def test_grid_point_count_is_bounded(self, step, count):
        # refused before any point is built, so the child returns at once
        proc = run_cli(
            "eval", "--builtin", "s4", "--grid", f"0.1:0.9:{step}", expect=2, timeout=10.0
        )
        assert proc.stdout == ""
        assert f"has about {count} points; the limit is 1000000" in proc.stderr

    def test_grid_count_is_exact(self):
        # (END - START) / STEP is 0.9999999999 exactly; a float estimate padded by
        # 1e-9 counted a second point, 0.101, which lies past END
        proc = run_cli("eval", "--builtin", "s4", "--grid", "0.1:0.1009999999999:0.001")
        _, rows = parse_csv(proc.stdout)
        assert [row[0] for row in rows] == ["0.1"]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0.1:0.9:1e-9999999", "grid step must be positive"),
            ("1e-9999999:0.9:0.1", "t = 0.0 is not in (0, 1)"),
            ("0.1:0.9:1e+9999999", "grid must be numeric"),
            ("0.1:0.9" + "0" * 5000 + ":0.1", "grid must be numeric"),
        ],
        ids=["tiny-step", "tiny-start", "huge-step", "long-end"],
    )
    def test_grid_bounds_are_checked_before_exact_values(self, grid, message):
        # 10**9999999 takes seconds to build; the float bounds refuse these at once.
        # An END longer than int()'s digit limit cannot be read exactly, so it is refused
        proc = run_cli("eval", "--builtin", "s4", "--grid", grid, expect=2, timeout=5.0)
        assert proc.stdout == "" and message in proc.stderr

    @pytest.mark.parametrize("mu", ["1e-9999999", "1e+9999999", "1E-4301"])
    def test_mu_exponent_is_bounded(self, tmp_path, mu):
        doc = json.loads(save_space(QHSpace("x", (FixedComponent("a", 0.5, {2: 1.0}),), 1)))
        doc["components"][0]["mu"] = mu
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("eval", "--space", str(path), "--t", "0.5", expect=2, timeout=5.0)
        assert proc.stdout == ""
        assert "components[0]: component 'a': the decimal exponent of mu exceeds" in proc.stderr

        doc["components"][0]["mu"] = "1e-400"
        path.write_text(json.dumps(doc))
        _, rows = parse_csv(run_cli("eval", "--space", str(path), "--t", "0.5").stdout)
        assert len(rows) == 1

    def test_non_real_space_is_refused(self):
        # a real odd power makes the data non-real however small it is;
        # no row is printed, not even the points where the value looks plausible
        doc = {
            "name": "odd",
            "stabilizer_order": 1,
            "components": [
                {
                    "label": "c",
                    "mu": "3/10",
                    "coefficients": [
                        {"power": 2, "re": 1e-30, "im": 0.0},
                        {"power": 3, "re": 1e-30, "im": 0.0},
                    ],
                }
            ],
        }
        proc = run_cli(
            "eval", "--space", "/dev/stdin", "--grid", "0.2:0.8:0.2", expect=3,
            input=json.dumps(doc),
        )
        assert proc.stdout == "" and "non-real density" in proc.stderr

    def test_non_real_space_is_refused_by_the_fourier_path(self):
        # the Fourier path judges its own coefficients, so it refuses the same data
        odd = FixedComponent("c", Fraction(3, 10), {2: 1e-30, 3: 1e-30})
        proc = run_cli(
            "eval", "--space", "/dev/stdin", "--t", "0.4", "--mode", "fourier", expect=3,
            input=save_space(QHSpace("odd", (odd,), 1)),
        )
        assert proc.stdout == "" and "non-real density" in proc.stderr

    BIG = tuple(FixedComponent(label, Fraction(1, 4), {2: 1e308}) for label in "ab")
    # each is about -5.33e307 at e, so only their sum overflows
    SUMMED = tuple(FixedComponent(f"c{i}", Fraction(i, 5), {2: 1.2e307}) for i in range(1, 5))

    @pytest.mark.parametrize(
        "command",
        [
            (("eval", "--t", "0.5", "--mode", "both"), BIG),
            (("eval", "--t", "0.5", "--mode", "fourier"), BIG),
            (("central", "--at", "e"), BIG),
            (("central", "--at", "e"), SUMMED),
        ],
    )
    def test_overflow_is_a_numeric_failure(self, command):
        # finite data whose densities overflow; `eval --mode both` printed
        # 0.5,inf,inf,inf,inf,nan,nan with exit 0
        (name, *flags), components = command
        proc = run_cli(
            name, "--space", "/dev/stdin", *flags, expect=3,
            input=save_space(QHSpace("big", components, 1)),
        )
        assert proc.stdout == "" and "error: numeric overflow" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_overflowing_fourier_terms_print_only_the_refusal(self):
        # numpy's overflow warning, with a source path, came before the refusal
        big = QHSpace("big", (FixedComponent("a", Fraction(1, 2), {2: 1e308}),), 1)
        proc = run_cli(
            "eval", "--space", "/dev/stdin", "--t", "1e-9", "--mode", "fourier", expect=3,
            input=save_space(big),
        )
        assert proc.stdout == ""
        assert proc.stderr == "error: numeric overflow: Fourier density at t = 1e-09 is not finite\n"

    @pytest.mark.parametrize(
        "command, label",
        [
            (("eval", "--builtin", "product:320", "--t", "0.3"), "F"),
            (("eval", "--space", "/dev/stdin", "--grid", "0.1:0.9:0.1"), "a"),
            (("central", "--space", "/dev/stdin", "--at", "e"), "a"),
        ],
    )
    def test_deep_pole_is_a_numeric_failure(self, command, label):
        # pi**k overflows for k >= 621 while the branches are compiled; this
        # printed a traceback with exit 1
        deep = FixedComponent("a", Fraction(1, 4), {640: 1e-300})
        proc = run_cli(*command, expect=3, input=save_space(QHSpace("deep", (deep,), 1)))
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert (
            f"error: numeric overflow: component {label!r} has coefficients beyond the float range"
            in proc.stderr
        )

    @settings(max_examples=5, deadline=None)
    @given(odd_real_components())
    def test_real_odd_power_is_refused_at_any_scale(self, comp):
        proc = run_cli(
            "eval", "--space", "/dev/stdin", "--grid", "0.1:0.9:0.1", expect=3,
            input=save_space(QHSpace("odd", (comp,), 1)),
        )
        assert proc.stdout == "" and "non-real density" in proc.stderr

    def test_infinite_imag_tol_rejected(self):
        # an infinite tolerance would accept any imaginary residual
        for args in (("eval", "--t", "0.3"), ("central", "--at", "e")):
            proc = run_cli(*args, "--builtin", "s4", "--imag-tol", "inf", expect=2)
            assert proc.stdout == "" and "imag_tolerance must be finite" in proc.stderr

    @pytest.mark.parametrize(
        "missing, message",
        [
            (("name", "components"), "document: missing field 'name'"),
            (("mu", "coefficients"), "components[0]: missing field 'mu'"),
        ],
    )
    def test_missing_field_does_not_depend_on_hash_seed(self, missing, message):
        # the first missing field in schema order is named, whatever order a
        # set of field names would iterate in
        from su2dh.model import save_space
        from su2dh.spaces import make_s4

        doc = json.loads(save_space(make_s4()))
        target = doc if "name" in missing else doc["components"][0]
        for key in missing:
            del target[key]
        for seed in range(6):
            proc = run_cli(
                "eval", "--space", "/dev/stdin", "--t", "0.3", expect=2,
                env={"PYTHONHASHSEED": str(seed)}, input=json.dumps(doc),
            )
            assert message in proc.stderr, (seed, proc.stderr)

    def test_fourier_mode(self):
        proc = run_cli(
            "eval", "--builtin", "s4", "--t", "0.5", "--mode", "fourier",
            "--terms", "20000",
        )
        header, rows = parse_csv(proc.stdout)
        assert header == ["t", "density", "volume"]
        assert float(rows[0][1]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_json_format(self):
        proc = run_cli(
            "eval", "--builtin", "s4", "--t", "0.5", "--format", "json"
        )
        payload = json.loads(proc.stdout)
        assert payload["command"] == "eval"
        assert payload["rows"][0]["density"] == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12
        )

    def test_deterministic_output(self, tmp_path):
        args = ("eval", "--builtin", "product:2", "--grid", "0.1:0.9:0.2")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(out1))
        run_cli(*args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_fifteen_significant_digits(self):
        proc = run_cli("eval", "--builtin", "s4", "--t", "0.5")
        _, rows = parse_csv(proc.stdout)
        assert rows[0][1] == "0.707106781186548"


class TestCentral:
    def test_product1_at_minus_identity(self):
        proc = run_cli("central", "--builtin", "product:1", "--at", "-e")
        header, rows = parse_csv(proc.stdout)
        assert header == ["at", "density", "volume"]
        assert float(rows[0][1]) == pytest.approx(0.1125395, abs=5e-8)
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
        assert "regular value" in proc.stderr

    def test_s4_identity_emits_warning(self):
        proc = run_cli("central", "--builtin", "s4", "--at", "e")
        assert "regular value" in proc.stderr

    @pytest.mark.parametrize(
        "builtin, at, named",
        [
            ("s4", "e", "mu = 0: 'e'"),
            ("s4", "-e", "mu = 1: '-e'"),
            ("double", "e", "mu = 0: 'F'"),
            ("product:3", "-e", None),
        ],
    )
    def test_components_at_the_element_are_named(self, builtin, at, named):
        # a fixed component over a central element makes it a critical value
        proc = run_cli("central", "--builtin", builtin, "--at", at)
        first, *rest = proc.stderr.splitlines()
        assert "regular value" in first and "cannot be verified" not in first
        line = f"warning: {at} is not a regular value of the moment map; components at {named}"
        assert rest == ([line] if named else [])

    def test_invalid_central_element(self):
        run_cli("central", "--builtin", "s4", "--at", "q", expect=2)


class TestLemma:
    def test_inverse_square_at_pi(self):
        proc = run_cli("lemma", "--coeff", "2:1", "--gamma", "3.14159265")
        header, rows = parse_csv(proc.stdout)
        assert rows[0][header.index("status")] == "PASS"
        assert float(rows[0][header.index("residue_re")]) == pytest.approx(
            -1.6449341, abs=5e-6
        )
        assert float(rows[0][header.index("abs_diff")]) <= 1e-5

    def test_sawtooth_at_half_pi(self):
        proc = run_cli("lemma", "--coeff", "1:1", "--gamma", "1.5707963")
        header, rows = parse_csv(proc.stdout)
        assert rows[0][header.index("status")] == "PASS"
        assert float(rows[0][header.index("residue_im")]) == pytest.approx(
            1.5707963, abs=1e-6
        )

    def test_gamma_zero_rejected(self):
        proc = run_cli("lemma", "--gamma", "0", expect=2)
        assert "gamma outside lemma range" in proc.stderr

    def test_coeff_required_after_gamma_check(self):
        proc = run_cli("lemma", "--gamma", "1.0", expect=2)
        assert "--coeff" in proc.stderr

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_bad_tol_is_named(self, tol):
        # the input is at fault, so no PASS or FAIL row is printed
        proc = run_cli("lemma", "--coeff", "2:1", "--gamma", "1", "--M", "10", "--tol", tol,
                       expect=2)
        assert proc.stdout == "" and "--tol must be finite and positive" in proc.stderr

    @pytest.mark.parametrize("coeff", ["2:nan", "2:inf", "2:0:-inf"])
    def test_non_finite_coefficient_rejected(self, coeff):
        proc = run_cli("lemma", "--coeff", coeff, "--gamma", "1", expect=2)
        assert proc.stdout == "" and "must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_negative_gamma_in_any_float_spelling(self):
        # argparse takes -1e-1, unlike -0.1, for a flag unless it is joined to --gamma
        outputs = [
            run_cli("lemma", "--coeff", "2:1", "--gamma", gamma).stdout
            for gamma in ("-1e-1", "-0.1", "-.1")
        ]
        assert outputs[0] == outputs[1] == outputs[2] and "PASS" in outputs[0]

    def test_complex_coefficient_grammar(self):
        run_cli("lemma", "--coeff", "2:0.5:-0.25", "--gamma", "2.0")

    @pytest.mark.parametrize(
        "args",
        [
            # the residue is -inf; inf <= inf must not print PASS
            ("--coeff", "2:1e308", "--coeff", "3:0:1e308", "--gamma", "1", "--M", "5000"),
            # the residue is finite and the damped sums overflow
            ("--coeff", "1:5e307", "--gamma", "6.2517693806436885", "--M", "100"),
        ],
    )
    def test_overflow_is_a_numeric_failure(self, args):
        proc = run_cli("lemma", *args, "--format", "json", expect=3)
        assert proc.stdout == "" and proc.stderr.startswith("error: numeric overflow: ")
        assert "Warning" not in proc.stderr

    def test_json_format(self):
        proc = run_cli(
            "lemma", "--coeff", "2:1", "--gamma", "3.14159265", "--format", "json"
        )
        payload = json.loads(proc.stdout)
        assert payload["status"] == "PASS"


class TestParser:
    def test_missing_subcommand(self):
        run_cli(expect=2)

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("eval", "--builtin", "s4", "--t", "0.3", "--mode", "fourier"), "--terms"),
            (("lemma", "--coeff", "2:1", "--gamma", "1"), "--M"),
        ],
    )
    def test_array_lengths_are_bounded(self, args, flag):
        # refused before any array is built, so the child returns at once
        proc = run_cli(*args, flag, "1000000000000", expect=2, timeout=10.0)
        assert proc.stdout == ""
        assert f"error: {flag} must be at most 1000000, got 1000000000000" in proc.stderr

    @pytest.mark.parametrize(
        "args, out",
        [
            (("eval", "--builtin", "s4", "--t", "0.3"), "missing/x.csv"),
            (("central", "--builtin", "s4", "--at", "e"), "."),  # a directory
        ],
    )
    def test_unwritable_out_is_usage_error(self, tmp_path, args, out):
        proc = run_cli(*args, "--out", str(tmp_path / out), expect=2)
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert f"error: --out: cannot write {str(tmp_path / out)!r}: " in proc.stderr
        assert proc.stderr.count(str(tmp_path)) == 1  # the OS message does not repeat it

    @pytest.mark.parametrize("space", ["missing.json", "."])  # "." is a directory
    def test_unreadable_space_is_usage_error(self, tmp_path, space):
        proc = run_cli("eval", "--space", str(tmp_path / space), "--t", "0.3", expect=2)
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert f"error: --space: cannot read {str(tmp_path / space)!r}: " in proc.stderr
        assert proc.stderr.count(str(tmp_path)) == 1

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        ],
        ids=["deep", "undecodable"],
    )
    def test_unparsable_space_is_usage_error(self, tmp_path, content, reason):
        path = tmp_path / "space.json"
        path.write_bytes(content)
        proc = run_cli("eval", "--space", str(path), "--t", "0.3", expect=2)
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: malformed space file: not valid JSON: {reason}")

    def test_conflicting_sources(self):
        run_cli("eval", "--builtin", "s4", "--space", "x.json", "--t", "0.5", expect=2)

    def test_unknown_builtin(self):
        proc = run_cli("eval", "--builtin", "torus", "--t", "0.5", expect=2)
        assert "unknown builtin" in proc.stderr

    @pytest.mark.parametrize(
        "args, flag",
        [
            (("eval", "--builtin", "s4", "--t", "0.3", "--imag-tol", "inf"), "--imag-tol"),
            (("central", "--builtin", "s4", "--at", "e", "--imag-tol", "inf"), "--imag-tol"),
            (("eval", "--builtin", "s4", "--t", "0.3", "--mode", "fourier", "--terms", "0"),
             "--terms"),
            (("lemma", "--coeff", "2:nan", "--gamma", "1"), "--coeff"),
            # ladders that leave (0, 1): 1 - 0.1 * 2^5 and 1 - 0.4 * 2^2
            (("eval", "--builtin", "s4", "--t", "0.3", "--abel", "0.9", "--richardson", "5"),
             "--richardson"),
            (("lemma", "--coeff", "2:1", "--gamma", "1", "--r", "0.6"), "--r"),
        ],
    )
    def test_library_rules_name_the_flag(self, args, flag):
        proc = run_cli(*args, expect=2)
        assert proc.stdout == "" and f"error: {flag}: " in proc.stderr

    @pytest.mark.parametrize("richardson", ["0", "2"])
    def test_abel_that_rounds_away_is_named(self, richardson):
        # 1 - 1e-17 rounds to 1, so the first node leaves (0, 1) at every level
        args = ("eval", "--builtin", "s4", "--t", "0.5", "--mode", "fourier")
        proc = run_cli(*args, "--abel", "1e-17", "--richardson", richardson, expect=2)
        ladder = "extrapolation ladder leaves (0, 1): (1 - 1e-17) * 2**0 >= 1"
        assert proc.stdout == "" and proc.stderr == f"error: --abel: {ladder}\n"

    def test_lemma_ladder_refusal_names_no_levels(self):
        # lemma has no levels flag, so the message may not advise a levels change
        proc = run_cli("lemma", "--coeff", "2:1", "--gamma", "1", "--r", "0.6", expect=2)
        ladder = "extrapolation ladder leaves (0, 1): (1 - 0.6) * 2**2 >= 1"
        assert proc.stderr == f"error: --r: {ladder}\n"
        assert "levels" not in proc.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("eval", "--builtin", "s4", "--t", "nan"),
             "t out of open alcove: t = nan is not in (0, 1)"),
            (("lemma", "--coeff", "2:1", "--gamma", "nan"),
             "gamma outside lemma range: nan is not in (-2*pi, 0) or (0, 2*pi)"),
        ],
    )
    def test_nan_is_refused(self, args, message):
        proc = run_cli(*args, expect=2)
        assert proc.stdout == "" and proc.stderr == f"error: {message}\n"


class TestGolden:
    """Byte-for-byte stdout of fixed commands; any changed digit must be deliberate."""

    CASES = {
        "eval_s4_both.csv": (
            "eval", "--builtin", "s4", "--grid", "0.01:0.99:0.01", "--mode", "both",
        ),
        "eval_product5_both.json": (
            "eval", "--builtin", "product:5", "--grid", "0.05:0.95:0.05", "--mode", "both",
            "--format", "json",
        ),
        "eval_double_cesaro.csv": (
            "eval", "--builtin", "double", "--grid", "0.1:0.9:0.1", "--mode", "fourier",
            "--method", "cesaro", "--terms", "3000",
        ),
        "central_product3.csv": ("central", "--builtin", "product:3", "--at", "-e"),
        "lemma.json": (
            "lemma", "--coeff", "2:0.7", "--coeff", "3:0:-0.4", "--coeff", "4:-0.2",
            "--gamma", "-2.1", "--format", "json",
        ),
        "eval_walled_left.csv": (
            "eval", "--space", str(GOLDEN / "walled.json"), "--grid", "0.1:0.9:0.1",
            "--mode", "both", "--wall-policy", "left", "--abel", "0.99", "--richardson", "3",
        ),
        "eval_walled_error.json": (
            "eval", "--space", str(GOLDEN / "walled.json"), "--grid", "0.1:0.9:0.1",
            "--format", "json",
        ),
        "eval_s4_fourier.json": (
            "eval", "--builtin", "s4", "--grid", "0.1:0.9:0.2", "--mode", "fourier",
            "--format", "json",
        ),
        "central_s4.json": ("central", "--builtin", "s4", "--at", "e", "--format", "json"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_matches(self, name):
        proc = run_cli(*self.CASES[name])
        assert proc.stdout.encode("utf-8") == (GOLDEN / name).read_bytes()
