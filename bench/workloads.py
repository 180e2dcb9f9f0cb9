"""The four workloads: seeded inputs, one op each, and its correctness gate.

Every workload is a closed loop with one client: one process, one thread and
at most one child process at a time.  Inputs come from ``random.Random``
seeded with the workload name and ``--seed``; su2dh sees only the generated
inputs.  Each workload draws its ops in cycles with a fixed mix, shuffled and
jittered by the seed, so that runs on different seeds do the same kinds and
amounts of work.  References for the gate are computed during set-up,
untimed, by a path other than the one being timed.  If a run outlasts the op
pool, the pool is replayed from the start.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from reference import (
    central_reference,
    density_reference,
    exp_sum_reference,
    localization_coefficient,
)

SQRT2 = math.sqrt(2.0)

# Gate tolerances; none is looser than the acceptance suite's.
CLOSED_FORM_REL = 1e-10  # residue path against the Bernoulli reference
QUADRATURE_ABS = 1e-8  # coefficient quadrature against fourier_coefficient
DUAL_PATH_ABS = 1e-3  # residue density against reconstruct_density
LEMMA_REL = 1e-6  # residue identity against the damped oracle
CLI_REL = 1e-14  # one unit in the CLI's 15th significant digit


class Gate:
    """Compares outputs with references.  ``skew`` > 0 shifts every reference
    by that many tolerances, which a working gate must reject."""

    def __init__(self):
        self.skew = 0.0

    def close(self, value, ref, tol: float) -> bool:
        return abs(value - (ref + self.skew * (tol or 1.0))) <= tol


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def random_component(rng: random.Random, label: str) -> dict:
    """Component in the space-file schema, drawn as in tests/conftest.py:
    real even and imaginary odd coefficients, interior mu at twentieths."""
    if rng.random() < 0.3:
        mu = Fraction(rng.choice([0, 1]))
        powers = rng.sample([2, 4, 6], k=rng.randint(1, 2))
        coeffs = {k: (rng.uniform(-1.0, 1.0), 0.0) for k in powers}
    else:
        mu = Fraction(rng.randint(1, 19), 20)
        powers = rng.sample([2, 3, 4, 5], k=rng.randint(1, 3))
        coeffs = {
            k: (rng.uniform(-1.0, 1.0), 0.0) if k % 2 == 0 else (0.0, rng.uniform(-1.0, 1.0))
            for k in powers
        }
    return {
        "label": label,
        "mu": str(mu),
        "coefficients": [
            {"power": k, "re": re, "im": im} for k, (re, im) in sorted(coeffs.items())
        ],
    }


def random_space_document(rng: random.Random, name: str, components: int, order: int) -> str:
    doc = {
        "name": name,
        "stabilizer_order": order,
        "components": [random_component(rng, f"c{i}") for i in range(components)],
    }
    return json.dumps(doc)


def walled_space_document(rng: random.Random, name: str) -> str:
    """A random 3-component space with at least one wall inside the alcove."""
    while True:
        text = random_space_document(rng, name, 3, rng.randint(1, 3))
        if any(0 < Fraction(c["mu"]) < 1 for c in json.loads(text)["components"]):
            return text


def interior_walls(space) -> list[float]:
    return [float(c.mu) for c in space.components if not c.central]


def off_wall_point(rng: random.Random, walls, lo: float, hi: float, margin: float) -> float:
    while True:
        t = rng.uniform(lo, hi)
        if all(abs(t - w) > margin for w in walls):
            return t


def lemma_instance(rng: random.Random) -> tuple[dict[int, complex], float]:
    """One exponential-sum instance drawn as in acceptance criterion 5."""
    orders = rng.sample([1, 2, 3, 4, 5], k=rng.randint(1, 3))
    coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in orders}
    sign = rng.choice([1.0, -1.0])
    gamma = sign * rng.uniform(0.1, 2.0 * math.pi - 0.1)
    return coeffs, gamma


def op_form(op: dict) -> str:
    """The op's form: its kind, or for CLI ops the invocation form."""
    return str(op.get("form", op.get("kind", "op")))


def _check_density(gate: Gate, result, ref_total, ref_parts, scale, index: int) -> bool:
    tol = CLOSED_FORM_REL * scale[index]
    if not gate.close(result.total, ref_total[index], tol):
        return False
    return all(
        gate.close(result.per_component[label], values[index], tol)
        for label, values in ref_parts.items()
    )


class Workload:
    name = ""
    cycles = 0

    def __init__(self, seed: int, out_dir, env: dict, cwd):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.out_dir = out_dir
        self.env = env  # environment and directory of every child process
        self.cwd = cwd
        self.gate = Gate()
        self.pool: list[dict] = []

    def spec(self) -> dict:
        """Set-up spec handed to ``setup_probe.prepare``."""
        raise NotImplementedError

    def build(self, su2dh, spaces) -> None:
        """Draw the op pool and compute its references (untimed)."""
        raise NotImplementedError

    def run(self, op: dict, tr):
        raise NotImplementedError

    def check(self, op: dict, output) -> bool:
        raise NotImplementedError

    def probe_spaces(self) -> list:
        """Spaces for the layer probes of a traced run."""
        return list(self.spaces.values())

    def series_windows(self) -> list[int]:
        """Series windows (deepest pole + 4 guard terms) the inputs need."""
        return sorted({c.max_power + 4 for s in self.probe_spaces() for c in s.components})


# ---------------------------------------------------------------------------
# residue-scan
# ---------------------------------------------------------------------------


def scan_size(cycle: int, slot: int) -> int:
    """Points of a scan, 16..256, from the additive golden-ratio sequence.

    Every run of consecutive cycles spreads each slot's sizes evenly over the
    range, whatever cycle a run stops in, so the latency quantiles have no
    gaps for a cut to move them across.
    """
    u = (cycle * 0.6180339887498949 + slot * 0.41421356237309515) % 1.0
    return 16 + round(240 * u)


class ResidueScan(Workload):
    """Dense residue evaluation of s4, product:{1,5,15,30} and 16 random spaces.

    A cycle of 20 ops: 13 scans of 16-256 off-wall points, 3 quadratures of
    the residue density (s4, product:1 and product:5, n in 0..10; a wall
    inside a panel stalls Gauss-Legendre, so no random spaces), 2 one-sided
    densities exactly at a wall of a random space (left and right) and 2
    central values (e and -e).  The scans cover the spaces of the ROADMAP's
    harness list: s4, product:1, product:5 and a random space (the next in
    turn) three times each, and one deep-pole scan, product:15 and
    product:30 in turn.  A deep-pole point costs 3-10 times a shallow one, so
    the deep-pole scans are kept to 5% of the ops: above p90, not at it,
    where their spread of sizes would make p90 jump from run to run.  Scan
    sizes are fixed by ``scan_size``; the seed draws the grid points, not
    their number, so every seed does the same amount of work.  Scans and
    quadratures are 80% of the ops, so p50 and p90 are their latencies.
    """

    name = "residue-scan"
    cycles = 40
    random_spaces = 16
    builtins = ["s4", "product:1", "product:5", "product:15", "product:30"]
    shallow = ["s4", "product:1", "product:5"]
    deep = ["product:15", "product:30"]

    def spec(self) -> dict:
        documents = {}
        for i in range(self.random_spaces):
            documents[f"random{i}"] = walled_space_document(self.rng, f"random{i}")
        first = json.loads(documents["random0"])
        wall = next(float(Fraction(c["mu"])) for c in first["components"]
                    if 0 < Fraction(c["mu"]) < 1)
        return {
            "workload": self.name,
            "builtins": self.builtins,
            "documents": documents,
            "warmup": {"space": "random0", "t": 0.5 + 1.0 / 40, "wall": wall,
                       "quad_space": "product:1"},
        }

    def build(self, su2dh, spaces) -> None:
        self.su2dh = su2dh
        self.spaces = spaces
        self.left = su2dh.EvalOptions(wall_policy=su2dh.WallPolicy.LEFT_LIMIT)
        self.right = su2dh.EvalOptions(wall_policy=su2dh.WallPolicy.RIGHT_LIMIT)
        rng = self.rng
        randoms = [n for n in spaces if n.startswith("random")]
        rng.shuffle(randoms)
        for c in range(self.cycles):
            scanned = [*self.shallow, randoms[3 * c % len(randoms)],
                       *self.shallow, randoms[(3 * c + 1) % len(randoms)],
                       *self.shallow, randoms[(3 * c + 2) % len(randoms)],
                       self.deep[c % 2]]
            cycle = [
                self._scan_op(name, scan_size(c, i)) for i, name in enumerate(scanned)
            ]
            cycle += [self._quadrature_op(name, rng.randint(0, 10)) for name in self.shallow]
            for side in ("left", "right"):
                name = rng.choice(randoms)
                cycle.append(self._wall_op(name, rng.choice(interior_walls(spaces[name])), side))
            for at_identity in (True, False):
                name = rng.choice(self.builtins + randoms)
                cycle.append({"kind": "central", "space": name, "at_identity": at_identity,
                              "ref": central_reference(spaces[name], at_identity)})
            rng.shuffle(cycle)
            self.pool += cycle

    def _scan_op(self, name: str, points: int) -> dict:
        space = self.spaces[name]
        walls = interior_walls(space)
        grid = sorted(off_wall_point(self.rng, walls, 0.01, 0.99, 0.005) for _ in range(points))
        return {"kind": "scan", "space": name, "grid": grid,
                "ref": density_reference(space, grid)}

    def _quadrature_op(self, name: str, n: int) -> dict:
        ref = self.su2dh.fourier_coefficient(self.spaces[name], n).real
        return {"kind": "quadrature", "space": name, "n": n, "ref": ref}

    def _wall_op(self, name: str, mu: float, side: str) -> dict:
        return {"kind": "wall", "space": name, "t": mu, "side": side,
                "ref": density_reference(self.spaces[name], [mu], side)}

    def run(self, op: dict, tr):
        su2dh = self.su2dh
        space = self.spaces[op["space"]]
        kind = op["kind"]
        if kind == "scan":
            with tr.span("residue.scan", points=len(op["grid"]), space=op["space"]):
                return su2dh.scan(space, op["grid"])
        if kind == "wall":
            options = self.left if op["side"] == "left" else self.right
            with tr.span("residue.density", points=1):
                return su2dh.density(space, op["t"], options)
        if kind == "central":
            which = (su2dh.CentralElement.IDENTITY if op["at_identity"]
                     else su2dh.CentralElement.MINUS_IDENTITY)
            with tr.span("residue.central_density", points=1):
                return su2dh.central_density(space, which)
        return quadrature(su2dh, tr, space, op["n"])

    def check(self, op: dict, output) -> bool:
        kind = op["kind"]
        gate = self.gate
        if kind == "quadrature":
            return gate.close(output.value, op["ref"], QUADRATURE_ABS)
        if kind == "central":
            value, scale = op["ref"]
            return gate.close(output, value, CLOSED_FORM_REL * scale)
        totals, parts, scales = op["ref"]
        if kind == "wall":
            return _check_density(gate, output, totals, parts, scales, 0)
        if len(output) != len(op["grid"]):
            return False
        order = self.spaces[op["space"]].stabilizer_order
        for i, point in enumerate(output):
            if point.error is not None or point.t != op["grid"][i]:
                return False
            if not _check_density(gate, point.result, totals, parts, scales, i):
                return False
            factor = order * 2.0 * math.sin(math.pi * point.t) / SQRT2
            tol = CLOSED_FORM_REL * factor * scales[i]
            if not gate.close(point.volume, factor * totals[i], tol):
                return False
        return True


def quadrature(su2dh, tr, space, n: int):
    """coefficient_quadrature of the residue density, counting integrand calls."""
    evals = 0

    def integrand(t: float) -> float:
        nonlocal evals
        evals += 1
        with tr.span("residue.density", points=1):
            return su2dh.density(space, t).total

    with tr.span("fourier.coefficient_quadrature") as span:
        result = su2dh.coefficient_quadrature(integrand, n)
    span.work.update(evals=evals, useful=result.panels * su2dh.QuadratureRule().points)
    return result


# ---------------------------------------------------------------------------
# dual-path
# ---------------------------------------------------------------------------


class DualPath(Workload):
    """One fresh random space per op, checked along both evaluation paths.

    The op saves and reloads the space, evaluates ``density`` and
    ``reconstruct_density`` at 4 points 0.02 or more from every wall, and
    3 ``fourier_coefficient`` values.  Cycles of 9 cover every (components,
    stabilizer order) pair in 1..3 x 1..3.
    """

    name = "dual-path"
    cycles = 400  # 9 ops each

    def spec(self) -> dict:
        return {
            "workload": self.name,
            "documents": {"warmup": random_space_document(self.rng, "warmup", 3, 2)},
            "warmup": {"space": "warmup", "t": 0.5 + 1.0 / 40},
        }

    def build(self, su2dh, spaces) -> None:
        self.su2dh = su2dh
        self.spaces = spaces
        rng = self.rng
        shapes = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]
        for c in range(self.cycles):
            rng.shuffle(shapes)
            for components, order in shapes:
                text = random_space_document(rng, "random", components, order)
                space = su2dh.load_space(text)
                walls = [float(comp.mu) for comp in space.components]
                points = [off_wall_point(rng, walls, 0.08, 0.92, 0.02) for _ in range(4)]
                ns = rng.sample(range(0, 21), 3)
                self.pool.append({
                    "space": space,
                    "points": points,
                    "ns": ns,
                    "ref": density_reference(space, points),
                    "coef_ref": [localization_coefficient(space, n) for n in ns],
                })

    def run(self, op: dict, tr):
        su2dh = self.su2dh
        with tr.span("model.save_space"):
            text = su2dh.save_space(op["space"])
        with tr.span("model.load_space"):
            space = su2dh.load_space(text)
        residue = []
        for t in op["points"]:
            with tr.span("residue.density", points=1):
                residue.append(su2dh.density(space, t))
        fourier = []
        for t in op["points"]:
            with tr.span("fourier.reconstruct_density"):
                fourier.append(su2dh.reconstruct_density(space, t))
        coefficients = []
        for n in op["ns"]:
            with tr.span("fourier.fourier_coefficient"):
                coefficients.append(su2dh.fourier_coefficient(space, n))
        return space, residue, fourier, coefficients

    def check(self, op: dict, output) -> bool:
        space, residue, fourier, coefficients = output
        if space != op["space"]:
            return False
        totals, parts, scales = op["ref"]
        for i, result in enumerate(residue):
            if not _check_density(self.gate, result, totals, parts, scales, i):
                return False
            if not self.gate.close(fourier[i], result.total, DUAL_PATH_ABS):
                return False
        return all(
            self.gate.close(value, ref, CLOSED_FORM_REL * scale)
            for value, (ref, scale) in zip(coefficients, op["coef_ref"])
        )

    def probe_spaces(self) -> list:
        return [op["space"] for op in self.pool[:3]]


# ---------------------------------------------------------------------------
# lemma-oracle
# ---------------------------------------------------------------------------


class LemmaOracle(Workload):
    """The exponential-sum identity against its damped-sum oracle, one instance per op."""

    name = "lemma-oracle"
    pool_size = 1500
    M = 100_000
    r = 0.9999

    def spec(self) -> dict:
        return {
            "workload": self.name,
            "warmup": {"coeffs": {"2": [1.0, 0.0], "3": [0.0, 0.5]}, "gamma": 1.3},
        }

    def build(self, su2dh, spaces) -> None:
        self.su2dh = su2dh
        self.spaces = spaces
        for _ in range(self.pool_size):
            coeffs, gamma = lemma_instance(self.rng)
            self.pool.append({"coeffs": coeffs, "gamma": gamma,
                              "ref": exp_sum_reference(coeffs, gamma)})

    def run(self, op: dict, tr):
        su2dh = self.su2dh
        with tr.span("expsum.RationalPoleFunction"):
            f = su2dh.RationalPoleFunction(op["coeffs"])
        with tr.span("expsum.exp_sum_residue"):
            residue = su2dh.exp_sum_residue(f, op["gamma"])
        with tr.span("expsum.exp_sum_extrapolated"):
            oracle = su2dh.exp_sum_extrapolated(f, op["gamma"], M=self.M, damping_r=self.r)
        return residue, oracle

    def probe_spaces(self) -> list:
        return [self.su2dh.builtin_space("s4")]

    def series_windows(self) -> list[int]:
        return sorted({max(op["coeffs"]) + 4 for op in self.pool})

    def check(self, op: dict, output) -> bool:
        residue, oracle = output
        ref = op["ref"]
        tol = LEMMA_REL * (1.0 + abs(ref))
        return (
            self.gate.close(residue, ref, tol)
            and self.gate.close(oracle, ref, tol)
            and self.gate.close(oracle, residue, LEMMA_REL * (1.0 + abs(residue)))
        )


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def cli_grid(spec: str) -> list[float]:
    """Grid points as ``su2dh eval --grid START:END:STEP`` builds them."""
    start, end, step = (float(p) for p in spec.split(":"))
    count = int(math.floor((end - start) / step + 1e-9))
    return [t for t in (start + i * step for i in range(count + 1)) if t <= end + 1e-12]


def run_child(argv: list[str], env: dict, cwd) -> tuple[int, str, str, int]:
    """Run one child to completion; returns (exit code, stdout, stderr, maxrss KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd, text=True)
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


class CliMix(Workload):
    """One ``python -m su2dh`` child per op, a cycle of 6 with one op of each
    invocation form that README.md's command-line section shows:
    ``eval --t`` on a builtin, ``eval --grid`` on a builtin, ``eval --grid``
    on a ``--space`` file, ``eval --mode both`` on a builtin, ``central --at``
    (e and -e in turn) and ``lemma``; CSV or JSON drawn per op.  The grids
    are README's ``0.05:0.95:0.05`` (19 points) and, for ``--mode both``,
    ``0.1:0.9:0.1`` (9 points), each shifted by a seeded offset; on the space
    file the shift keeps every point 0.01 or more from every wall."""

    name = "cli-mix"
    cycles = 28
    builtins = ["s4", "product:1", "product:5", "product:15"]

    def __init__(self, seed: int, out_dir, env: dict, cwd):
        super().__init__(seed, out_dir, env, cwd)
        self.space_file = out_dir / f"cli-space-{seed}.json"
        self.max_rss_kib = 0

    def spec(self) -> dict:
        self.space_file.write_text(walled_space_document(self.rng, "file"), encoding="utf-8")
        return {
            "workload": self.name,
            "builtins": self.builtins,
            "space_files": {"file": str(self.space_file)},
            "warmup": {"argv": [
                ["eval", "--builtin", "s4", "--t", "0.3"],
                ["central", "--space", str(self.space_file), "--at", "-e"],
                ["lemma", "--coeff", "2:1", "--gamma", "1.3"],
            ]},
        }

    def _source(self, name: str) -> list[str]:
        return ["--space", str(self.space_file)] if name == "file" else ["--builtin", name]

    def build(self, su2dh, spaces) -> None:
        self.su2dh = su2dh
        self.spaces = spaces
        rng = self.rng
        b = self.builtins
        for c in range(self.cycles):
            t = round(rng.uniform(0.02, 0.98), 4)
            cycle = [
                self._eval_op(b[c % 4], ["--t", repr(t)], [t]),
                self._grid_op(b[(c + 1) % 4], round(rng.uniform(0.01, 0.05), 4), 0.05, 19),
                # 0.01 or more from every twentieth
                self._grid_op("file", round(rng.uniform(0.01, 0.04), 4), 0.05, 19),
                self._grid_op(b[(c + 2) % 4], round(rng.uniform(0.02, 0.08), 4), 0.1, 9,
                              both=True),
                self._central_op((b + ["file"])[c % 5], "e" if c % 2 == 0 else "-e"),
                self._lemma_op(),
            ]
            forms = ("eval-t", "eval-grid", "eval-file", "eval-both", "central", "lemma")
            for op, form in zip(cycle, forms):
                op["form"] = form
            rng.shuffle(cycle)
            for op in cycle:
                op["format"] = rng.choice(["csv", "json"])
                op["argv"] += ["--format", op["format"]]
            self.pool.extend(cycle)

    def _grid_op(self, name, start, step, count, both=False):
        spec = f"{start!r}:{start + step * (count - 1) + step / 2:.6g}:{step!r}"
        extra = ["--mode", "both"] if both else []
        return self._eval_op(name, ["--grid", spec, *extra], cli_grid(spec), both)

    def _eval_op(self, name, where, grid, both=False):
        su2dh = self.su2dh
        space = self.spaces[name]
        rows = []
        for t in grid:
            result = su2dh.density(space, t)
            volume = su2dh.reduced_volume(space, t)
            row = {"t": (t, abs(t)), "density": (result.total, abs(result.total)),
                   "volume": (volume, abs(volume))}
            for label, value in result.per_component.items():
                row[f"component_{label}"] = (value, abs(value))
            if both:
                fourier = su2dh.reconstruct_density(space, t)
                row["fourier_density"] = (fourier, abs(fourier))
                row["abs_diff"] = (abs(result.total - fourier), abs(result.total) + abs(fourier))
            rows.append(row)
        return {"kind": "eval", "argv": ["eval", *self._source(name), *where], "rows": rows}

    def _central_op(self, name, at):
        su2dh = self.su2dh
        space = self.spaces[name]
        which = su2dh.CentralElement.IDENTITY if at == "e" else su2dh.CentralElement.MINUS_IDENTITY
        value = su2dh.central_density(space, which)
        volume = su2dh.reduced_volume(space, which)
        return {"kind": "central", "argv": ["central", *self._source(name), "--at", at],
                "rows": [{"density": (value, abs(value)), "volume": (volume, abs(volume))}]}

    def _lemma_op(self):
        su2dh = self.su2dh
        coeffs, gamma = lemma_instance(self.rng)
        argv = ["lemma", "--gamma", repr(gamma)]
        for k, a in sorted(coeffs.items()):
            argv += ["--coeff", f"{k}:{a.real!r}:{a.imag!r}"]
        f = su2dh.RationalPoleFunction(coeffs)
        residue = su2dh.exp_sum_residue(f, gamma)
        oracle = su2dh.exp_sum_extrapolated(f, gamma)
        row = {
            "residue_re": (residue.real, abs(residue)),
            "residue_im": (residue.imag, abs(residue)),
            "partial_re": (oracle.real, abs(oracle)),
            "partial_im": (oracle.imag, abs(oracle)),
            "abs_diff": (abs(residue - oracle), abs(residue) + abs(oracle)),
        }
        return {"kind": "lemma", "argv": argv, "rows": [row]}

    def run(self, op: dict, tr):
        argv = [sys.executable, "-m", "su2dh", *op["argv"]]
        with tr.span("cli.subprocess"):
            code, out, err, rss = run_child(argv, self.env, self.cwd)
        self.max_rss_kib = max(self.max_rss_kib, rss)
        return code, out, err

    def check(self, op: dict, output) -> bool:
        code, out, _ = output
        if code != 0:
            return False
        rows = parse_cli_output(op["kind"], op["format"], out)
        if len(rows) != len(op["rows"]):
            return False
        for row, ref in zip(rows, op["rows"]):
            if op["kind"] == "lemma" and row.pop("status") != "PASS":
                return False
            if set(row) != set(ref):
                return False
            for key, (value, scale) in ref.items():
                if not self.gate.close(float(row[key]), value, CLI_REL * scale):
                    return False
        return True

    def probe_spaces(self) -> list:
        return [self.spaces[name] for name in self.builtins[:2]] + [self.spaces["file"]]


def parse_cli_output(kind: str, fmt: str, text: str) -> list[dict]:
    """Rows of a CLI result as flat {column: value} maps (CSV column names)."""
    if fmt == "csv":
        header, *rows = list(csv.reader(io.StringIO(text)))
        records = [dict(zip(header, row)) for row in rows]
        if kind == "central":
            for record in records:
                record.pop("at")
        elif kind == "lemma":
            for record in records:
                record.pop("gamma")
        return records
    payload = json.loads(text)
    if kind == "eval":
        records = []
        for row in payload["rows"]:
            record = {k: v for k, v in row.items() if k != "components"}
            record.update({f"component_{k}": v for k, v in row["components"].items()})
            records.append(record)
        return records
    if kind == "central":
        return [{"density": payload["density"], "volume": payload["volume"]}]
    residue, partial = payload["residue"], payload["partial_sum"]
    return [{
        "residue_re": residue[0], "residue_im": residue[1],
        "partial_re": partial[0], "partial_im": partial[1],
        "abs_diff": payload["abs_diff"], "status": payload["status"],
    }]


WORKLOADS = {w.name: w for w in (ResidueScan, DualPath, LemmaOracle, CliMix)}
