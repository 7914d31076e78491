"""The three workloads: inputs made from the seed, the operations of one
round, and the checks on their outputs.

A round issues spectile's public entry points back to back from one client
(closed loop): `spectile.cli.main([...])` in-process for CLI commands, the
library functions where no command exists.  Every round repeats the same
operations on the same inputs.  Each operation's output is checked in the
first round; later rounds must reproduce it exactly (reports apart from
their `timings` block), which the package guarantees.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import checks


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    exc: Exception

    def __repr__(self):
        return f"Raised({type(self.exc).__name__}: {self.exc})"


@dataclass(frozen=True)
class CliRun:
    rc: int
    stdout: str
    stderr: str
    text: str | None  # the --output file, when written


def cli_op(runner, sp, argv, out_path, check):
    """One CLI command in-process, its stdout and stderr captured."""
    out_path.unlink(missing_ok=True)

    def call():
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
            rc = sp.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def collect(raw):
        rc, out, err = raw
        return CliRun(rc, out, err, out_path.read_text() if out_path.exists() else None)

    return runner.op(call, check, collect)


def _cli_problems(run: CliRun) -> list:
    if run.rc != 0:
        return [f"exit code {run.rc}: {run.stderr.strip()}"]
    return [] if run.text is not None else ["no output file written"]


def _exact(sp, point):
    return tuple(sp.rational(c) for c in point)


# --- analyze-catalog -----------------------------------------------------------

# Radius 5, the README default, where analyze finishes in seconds.  The
# hexagonal prism and the three dense 3D tilers are far slower there (the
# rhombic dodecahedron takes about five minutes), so they take the smallest
# radius, in steps of 1/8, whose window holds the 100 expected points below
# which the density check is refused and whose lattice count lies within
# the check's 5% of the expected count, so that density passes.
ANALYZE_SHAPES = (
    ("square", 5.0),
    ("hexagon", 5.0),
    ("cube", 5.0),
    ("hexagonal-prism", 2.0),
    ("rhombic-dodecahedron", 1.25),
    ("elongated-dodecahedron", 1.125),
    ("truncated-octahedron", 1.25),
    ("triangle", 5.0),
    ("rhombic-icosahedron", 5.0),
)


class AnalyzeCatalog:
    def __init__(self, sp, seed: int, workdir):
        self.sp = sp
        self.seed = seed
        # the report's sampling seed (covering oracle) comes from the run's seed
        self.sample_seed = random.Random(seed).randrange(1, 2**31)
        self.jobs = []
        for name, radius in ANALYZE_SHAPES:
            out = workdir / f"analyze-{name}.json"
            argv = ["analyze", f"catalog:{name}", "--radius", repr(radius), "--seed", str(self.sample_seed), "--output", str(out)]
            self.jobs.append((name, radius, argv, out))

    def round(self, runner):
        for name, radius, argv, out in self.jobs:
            cli_op(runner, self.sp, argv, out, lambda run, n=name, r=radius: self.check(n, r, run))

    def check(self, name, radius, run: CliRun) -> list:
        problems = _cli_problems(run)
        if problems:
            return problems
        poly = self.sp.catalog.make(name)

        def oracle(xi):
            return self.sp.oracle.simplex_ft(poly, _exact(self.sp, xi)).magnitude

        rng = random.Random(f"{self.seed}:{name}")
        return checks.catalog_report_problems(name, radius, json.loads(run.text), oracle, rng)


# --- explore-zonotopes -------------------------------------------------------------

# Generator counts per round: mostly 3D, k >= 5, where no zonotope tiles.
# Small coordinates keep the covering oracle's translate count, and with it
# the cost of a shape, from swinging widely between seeds.
ZONOTOPES_3D = (5, 5, 5, 5, 6, 6, 6, 7)
ZONOTOPES_2D = (4, 5, 6, 7)
COORD_3D, COORD_2D = 2, 3
FREQUENCIES_3D, FREQUENCIES_2D = 4, 6


def random_generators(rng, k: int, d: int) -> list:
    m = COORD_3D if d == 3 else COORD_2D
    while True:
        gens = [tuple(rng.randint(-m, m) for _ in range(d)) for _ in range(k)]
        if checks.in_general_position(gens):
            return gens


def random_frequency(rng, d: int) -> tuple:
    while True:
        xi = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 16)) for _ in range(d))
        if any(xi):
            return xi


class ExploreZonotopes:
    def __init__(self, sp, seed: int, workdir):
        self.sp = sp
        rng = random.Random(seed)
        self.shapes = []
        dims = [(k, 3) for k in ZONOTOPES_3D] + [(k, 2) for k in ZONOTOPES_2D]
        for i, (k, d) in enumerate(dims):
            gens = random_generators(rng, k, d)
            nfreq = FREQUENCIES_3D if d == 3 else FREQUENCIES_2D
            freqs = [random_frequency(rng, d) for _ in range(nfreq)]
            src = workdir / f"zonotope-{i}.json"
            src.write_text(json.dumps({"zonotope": {"generators": [list(g) for g in gens]}}))
            fcsv = workdir / f"zonotope-{i}-frequencies.csv"
            fcsv.write_text("".join(",".join(str(c) for c in xi) + "\n" for xi in freqs))
            self.shapes.append((gens, freqs, src, fcsv, workdir / f"zonotope-{i}-report.json", workdir / f"zonotope-{i}-fourier.csv"))

    def round(self, runner):
        for gens, freqs, src, fcsv, report, fourier in self.shapes:
            cli_op(runner, self.sp, ["analyze", str(src), "--output", str(report)], report,
                   lambda run, g=gens: self.check_analyze(g, run))
            cli_op(runner, self.sp, ["fourier", str(src), "--frequencies", str(fcsv), "--output", str(fourier)], fourier,
                   lambda run, g=gens, f=freqs: self.check_fourier(g, f, run))

    def check_analyze(self, gens, run: CliRun) -> list:
        return _cli_problems(run) or checks.zonotope_report_problems(gens, json.loads(run.text))

    def check_fourier(self, gens, freqs, run: CliRun) -> list:
        problems = _cli_problems(run)
        if problems:
            return problems
        poly = self.sp.geometry.zonotope(gens)

        def oracle(xi):
            return self.sp.oracle.simplex_ft(poly, _exact(self.sp, xi)).as_complex()

        rows = checks.parse_fourier_csv(run.text)
        return checks.fourier_problems(rows, freqs, checks.zonotope_boundary_measure(gens), oracle)


# --- lattice-patches ---------------------------------------------------------------

# Radii sized for about 500 to 650 points per patch: the float C2 check
# holds all ~n^2/2 pair differences, so a round stays within a few seconds.
PATCH_SHAPES = (
    ("square", 14.0),
    ("hexagon", 8.0),
    ("cube", 5.0),
    ("hexagonal-prism", 3.5),
    ("rhombic-dodecahedron", 2.0),
    ("elongated-dodecahedron", 1.625),
    ("truncated-octahedron", 1.625),
)
PERTURBATION = Fraction(1, 1000)
IRRATIONALS = (math.sqrt(2), math.sqrt(3), math.sqrt(5))


class LatticePatches:
    def __init__(self, sp, seed: int, workdir):
        self.sp = sp
        rng = random.Random(seed)
        self.jobs = []
        for name, radius in PATCH_SHAPES:
            out = workdir / f"patch-{name}.csv"
            argv = ["spectrum", f"catalog:{name}", "--radius", repr(radius), "--output", str(out)]
            shift = [s * rng.uniform(0.1, 1.0) for s in IRRATIONALS]
            perturb = (rng.random(), rng.randrange(3))  # which point, which axis
            self.jobs.append((name, radius, argv, out, shift, perturb))
        self.truth = {}  # per shape, from the first round's checks

    def round(self, runner):
        sp = self.sp
        for name, radius, argv, out, shift, (where, axis) in self.jobs:
            run = cli_op(runner, sp, argv, out, lambda r, n=name, rad=radius: self.check_spectrum(n, rad, r))
            if not isinstance(run, CliRun) or run.rc != 0 or run.text is None:
                continue
            rows = checks.parse_patch_csv(run.text)
            exact = [_exact(sp, q) for q in rows]
            patch = runner.op(lambda: sp.spectrum.make_patch(exact, radius),
                              lambda p, n=name: self.check_patch(n, p, 1e-12))
            sym = runner.op(lambda n=name: self._symmetry(n), lambda s, n=name: self.check_symmetry(n, s))
            if not isinstance(patch, sp.spectrum.SpectrumPatch) or not isinstance(sym, tuple):
                continue
            poly, taus = sym[0], [t.tau for t in sym[1].facet_pairs]
            self._checks(runner, name, poly, patch, taus, exact=True)

            floats = [tuple(float(c) + s for c, s in zip(q, shift)) for q in rows]
            fpatch = runner.op(lambda: sp.spectrum.make_patch(floats, radius),
                               lambda p, n=name: self.check_patch(n, p, 1e-9))
            if isinstance(fpatch, sp.spectrum.SpectrumPatch):
                self._checks(runner, name, poly, fpatch, taus, exact=False)

            d = len(exact[0])
            moved = list(exact)
            i, j = int(where * len(moved)), axis % d
            moved[i] = tuple(c + PERTURBATION if k == j else c for k, c in enumerate(moved[i]))
            bent = sp.spectrum.SpectrumPatch(points=tuple(moved), window_radius=radius, separation=patch.separation)
            runner.op(lambda: sp.spectrum.condition_C2_check(bent, taus),
                      lambda c2, t=taus, j=j: self.check_c2_perturbed(t, j, c2))

    def _symmetry(self, name):
        poly = self.sp.catalog.make(name)
        return poly, self.sp.symmetry.symmetry_report(poly)

    def _checks(self, runner, name, poly, patch, taus, exact: bool):
        sp = self.sp
        runner.op(lambda: sp.spectrum.condition_C2_check(patch, taus), lambda c2: self.check_c2(c2, exact))
        runner.op(lambda: sp.spectrum.verify_density(poly, patch),
                  lambda dens, n=name: self.check_density(n, patch.window_radius, dens))
        runner.op(lambda: sp.spectrum.uniqueness_check(poly, patch), lambda u, n=name: self.check_uniqueness(n, u))

    def check_spectrum(self, name, radius, run: CliRun) -> list:
        problems = _cli_problems(run)
        if problems:
            return problems
        head = json.loads(run.stdout)
        if not head["is_spectral"]:
            return [f"verdict {head}"]
        ball = checks.BallPoints(head["basis"], radius)
        self.truth[name] = (head["basis"], ball)
        return checks.patch_problems(checks.parse_patch_csv(run.text), ball)

    def check_patch(self, name, patch, rel) -> list:
        if name not in self.truth:
            return ["no enumeration to compare with"]
        ball = self.truth[name][1]
        problems = []
        if len(patch) != len(ball):
            problems.append(f"patch of {len(patch)} points, enumeration {len(ball)}")
        if not checks.close(patch.separation, ball.shortest_nonzero(), rel):
            problems.append(f"separation {patch.separation}, shortest dual vector {ball.shortest_nonzero()}")
        return problems

    def check_symmetry(self, name, sym) -> list:
        if name not in self.truth:
            return ["no spectrum basis to compare with"]
        basis = checks.parse_matrix(self.truth[name][0])
        pairs = sym[1].facet_pairs
        problems = []
        if 2 * len(pairs) != checks.FACET_COUNT[name]:
            problems.append(f"{len(pairs)} facet pairs for {checks.FACET_COUNT[name]} facets")
        for t in pairs:
            tau = [Fraction(c) for c in t.tau]
            if any(sum(b * c for b, c in zip(row, tau)).denominator != 1 for row in basis):
                problems.append(f"tau {tau} is not in the lattice dual to the spectrum")
        return problems

    @staticmethod
    def check_c2(c2, exact: bool) -> list:
        if not c2.passed or (exact and c2.max_distance_to_integer != 0.0):
            return [f"C2 {c2}"]
        return []

    @staticmethod
    def check_c2_perturbed(taus, axis, c2) -> list:
        """Moving one point by 1/1000 along an axis moves <difference, tau>
        by tau_axis/1000 for the pairs through it and by nothing otherwise."""
        expected = max(checks.distance_to_integer(Fraction(t[axis]) * PERTURBATION) for t in taus)
        if c2.passed or not checks.close(c2.max_distance_to_integer, float(expected), 1e-12):
            return [f"perturbed C2 {c2}, expected distance {float(expected)}"]
        return []

    def check_density(self, name, radius, dens) -> list:
        ball = self.truth[name][1]
        report = None if isinstance(dens, Raised) else (dens.passed, dens.count, dens.density, dens.target)
        return checks.density_problems(report, len(ball), radius, ball.dim, checks.catalog_volume(name))

    def check_uniqueness(self, name, result) -> list:
        if name in checks.PRISMS:
            ok = isinstance(result, Raised) and isinstance(result.exc, self.sp.errors.PrismExcluded)
        else:
            ok = result is True
        return [] if ok else [f"uniqueness {result!r}"]


WORKLOADS = {
    "analyze-catalog": AnalyzeCatalog,
    "explore-zonotopes": ExploreZonotopes,
    "lattice-patches": LatticePatches,
}
