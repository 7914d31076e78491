"""Checkers the benchmark runs on spectile's outputs.

Everything here is computed apart from spectile: exact determinants and
inverses in Fraction, zonotope volumes and face counts from the generators,
lattice-ball enumeration over an integer coefficient box, CSV parsing.  The
one spectile code path the checkers call is the simplex-decomposition
transform (spectile.oracle.simplex_ft), which the package keeps
independent of the boundary recursion on purpose; the caller passes it in.

Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

# The catalog's documented coordinates (spectile/catalog.py docstring and
# README), restated here so that volumes and face counts are derived from
# the definitions rather than from the program's hulls.
HEXAGON = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
ZONOTOPE_GENERATORS = {
    "rhombic-dodecahedron": ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)),
    "elongated-dodecahedron": ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1), (0, 0, 2)),
    # the permutations of (0, +-1, +-2) are the zonotope of the six e_i +- e_j
    "truncated-octahedron": ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)),
    "rhombic-icosahedron": ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)),
}
FACET_COUNT = {
    "square": 4,
    "hexagon": 6,
    "cube": 6,
    "hexagonal-prism": 8,
    "rhombic-dodecahedron": 12,
    "elongated-dodecahedron": 12,
    "truncated-octahedron": 14,
}
FEDOROV = {
    "cube": "Parallelepiped",
    "hexagonal-prism": "HexagonalPrism",
    "rhombic-dodecahedron": "RhombicDodecahedron",
    "elongated-dodecahedron": "ElongatedDodecahedron",
    "truncated-octahedron": "TruncatedOctahedron",
}
# a parallelogram or a 3D prism admits spectra that are not lattice translates
PRISMS = {"square", "cube", "hexagonal-prism"}
NON_TILER_REASON = {"triangle": "not-centrally-symmetric", "rhombic-icosahedron": "belt-length-8"}
TOL_ZERO = 1e-10  # spectile's default orthogonality tolerance, the one analyze runs with
ORACLE_DIFFERENCES = 3  # seeded patch differences checked with the oracle transform per tiler


# --- exact linear algebra ------------------------------------------------------


def det(rows) -> Fraction:
    """Exact determinant of a 2x2 or 3x3 matrix; integer entries stay integers."""
    m = [[x if isinstance(x, int) else Fraction(x) for x in r] for r in rows]
    if len(m) == 2:
        return Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    (a, b, c), (d, e, f), (g, h, i) = m
    return Fraction(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


def inverse(rows) -> list:
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [a / pv for a in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


def polygon_area(vertices) -> Fraction:
    """Shoelace area of a polygon given in cyclic order."""
    n = len(vertices)
    twice = sum(
        Fraction(vertices[i][0]) * vertices[(i + 1) % n][1] - Fraction(vertices[(i + 1) % n][0]) * vertices[i][1]
        for i in range(n)
    )
    return abs(twice) / 2


def zonotope_volume(generators) -> Fraction:
    """Sum of |det| over the d-subsets of the generators (Shephard's formula)."""
    d = len(generators[0])
    return sum((abs(det(sub)) for sub in combinations(generators, d)), Fraction(0))


def in_general_position(generators) -> bool:
    """Every d of the generators are linearly independent."""
    d = len(generators[0])
    return all(det(sub) != 0 for sub in combinations(generators, d))


def zonotope_f_vector(k: int, d: int) -> list:
    """Face counts of a zonotope of k generators in general position."""
    if d == 2:
        return [2 * k, 2 * k]
    return [k * (k - 1) + 2, 2 * k * (k - 1), k * (k - 1)]


def zonotope_reason(k: int, d: int) -> str:
    """Every belt of a generic zonotope has 2(k-1) facets in 3D; the planar
    pseudo-belt is the whole boundary, 2k edges."""
    return f"belt-length-{2 * (k - 1) if d == 3 else 2 * k}"


def zonotope_boundary_measure(generators) -> float:
    """|boundary|: facets are the parallelograms g_i, g_j, each twice, in 3D;
    edges are the generators, each twice, in 2D."""
    if len(generators[0]) == 2:
        return 2.0 * sum(math.hypot(*g) for g in generators)
    total = 0.0
    for a, b in combinations(generators, 2):
        cx = a[1] * b[2] - a[2] * b[1]
        cy = a[2] * b[0] - a[0] * b[2]
        cz = a[0] * b[1] - a[1] * b[0]
        total += math.sqrt(cx * cx + cy * cy + cz * cz)
    return 2.0 * total


def catalog_volume(name: str) -> Fraction:
    if name in ("square", "cube"):
        return Fraction(1)
    if name == "triangle":
        return Fraction(1, 2)
    if name in ("hexagon", "hexagonal-prism"):
        return polygon_area(HEXAGON)  # the prism has height 1
    return zonotope_volume(ZONOTOPE_GENERATORS[name])


# --- lattices ----------------------------------------------------------------


def parse_matrix(rows) -> list:
    return [[Fraction(c) for c in row] for row in rows]


def unimodular_pairing(spectrum_basis, lattice_basis) -> list:
    """Problems with S L^T being an integer matrix of determinant +-1, which
    is what makes S a basis of the dual of the lattice spanned by L."""
    s, lat = parse_matrix(spectrum_basis), parse_matrix(lattice_basis)
    prod = [[sum(a * b for a, b in zip(srow, lrow)) for lrow in lat] for srow in s]
    out = []
    if any(x.denominator != 1 for row in prod for x in row):
        out.append(f"spectrum basis times lattice basis^T is not integral: {prod}")
    elif abs(det(prod)) != 1:
        out.append(f"spectrum basis times lattice basis^T has determinant {det(prod)}")
    return out


class BallPoints:
    """All integer combinations of a rational basis in the closed ball of
    radius r, r taken exactly as given (a float radius means its binary
    value, as spectile reads it).

    The coefficient box comes from the columns of B^-1, since k = x B^-1;
    the membership test is exact integer arithmetic after clearing the
    basis's common denominator.
    """

    def __init__(self, basis, radius):
        b = parse_matrix(basis)
        self.dim = len(b)
        r = Fraction(radius)
        inv = inverse(b)
        bounds = []
        for i in range(self.dim):
            col_norm = math.sqrt(sum(float(inv[j][i]) ** 2 for j in range(self.dim)))
            bounds.append(int(col_norm * float(r)) + 1)
        den = math.lcm(*(x.denominator for row in b for x in row))
        bint = np.array([[int(x * den) for x in row] for row in b], dtype=np.int64)
        grids = np.meshgrid(*[np.arange(-m, m + 1, dtype=np.int64) for m in bounds], indexing="ij")
        coeffs = np.stack([g.ravel() for g in grids], axis=-1)
        if coeffs.shape[0] > 2 * 10**7 or max(bounds) * int(np.abs(bint).max()) * self.dim > 2**28:
            raise ValueError("ball enumeration too large for the checker")
        x = coeffs @ bint
        norm2 = np.sum(x * x, axis=1)
        # |x/den|^2 <= p^2/q^2  <=>  norm2 <= floor(p^2 den^2 / q^2) for integer norm2
        limit = (r.numerator * den) ** 2 // r.denominator**2
        keep = norm2 <= limit
        self.den = den
        self.int_points = x[keep]
        self.norm2 = norm2[keep]

    def __len__(self):
        return int(self.int_points.shape[0])

    def points(self) -> set:
        d = self.den
        return {tuple(Fraction(int(c), d) for c in row) for row in self.int_points}

    def shortest_nonzero(self) -> float:
        nz = self.norm2[self.norm2 > 0]
        return math.sqrt(int(nz.min())) / self.den


def parse_patch_csv(text: str) -> list:
    return [tuple(Fraction(c) for c in row) for row in csv.reader(io.StringIO(text)) if row]


def patch_problems(csv_points, ball: BallPoints) -> list:
    expected = ball.points()
    got = set(csv_points)
    out = []
    if len(csv_points) != len(got):
        out.append(f"patch lists {len(csv_points) - len(got)} points more than once")
    if got != expected:
        out.append(
            f"patch differs from the enumeration: {len(got - expected)} extra, {len(expected - got)} missing"
        )
    return out


def density_problems(report, count: int, radius, dim: int, vol) -> list:
    """The density report must be count / ball volume against the target
    |P|, and pass; for a window of fewer than 100 expected points it must
    be refused (None) -- spectile's documented rule.  It passes within 5%
    of the target, which holds only at some radii: lattice-point counts in
    a ball jump at every shell, by more than 5% even with a few hundred
    points, so the workloads take radii where a true spectrum meets it."""
    r = float(radius)
    ball = math.pi * r * r if dim == 2 else 4.0 / 3.0 * math.pi * r**3
    target = float(vol)
    if ball * target < 100.0:
        return [] if report is None else [f"density {report} for a window of {ball * target:.1f} expected points"]
    if report is None:
        return ["density refused a window of 100 or more expected points"]
    passed, got_count, density, got_target = report
    expected = count / ball
    if got_count != count or got_target != target or not close(density, expected, 1e-12):
        return [f"density {report}, expected count {count}, density {expected}, target {target}"]
    if not passed or abs(expected - target) > 0.05 * target:
        return [f"density passed={passed} for density {expected} against {target}"]
    return []


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def distance_to_integer(q: Fraction) -> Fraction:
    f = q - math.floor(q)
    return min(f, 1 - f)


# --- reports -------------------------------------------------------------------


def catalog_report_problems(name, radius, rep, oracle, rng) -> list:
    """An `analyze catalog:NAME --radius R` report against the catalog's
    definitions; oracle(xi) is |transform| by an independent method, checked
    to vanish at a few patch differences drawn with rng."""
    problems = []
    vol = catalog_volume(name)
    if Fraction(rep["polytope"]["volume"]) != vol:
        problems.append(f"volume {rep['polytope']['volume']}, expected {vol}")
    spectral, tiling, ver = rep["spectral"], rep["tiling"], rep["verification"]
    if name in NON_TILER_REASON:
        if spectral["is_spectral"] or spectral["reason"] != NON_TILER_REASON[name]:
            problems.append(f"verdict {spectral['is_spectral']} {spectral['reason']}")
        return problems
    if not spectral["is_spectral"] or spectral["reason"] != "tiles-by-translation":
        return problems + [f"verdict {spectral['is_spectral']} {spectral['reason']}"]

    covolume = abs(det(parse_matrix(tiling["lattice"])))
    if covolume != vol or Fraction(tiling["covolume"]) != vol:
        problems.append(f"covolume {covolume} (reported {tiling['covolume']}), volume {vol}")
    problems += unimodular_pairing(spectral["spectrum_basis"], tiling["lattice"])
    if name in FEDOROV and tiling.get("fedorov") != FEDOROV[name]:
        problems.append(f"Fedorov class {tiling.get('fedorov')}")

    ball = BallPoints(spectral["spectrum_basis"], radius)
    if ver["patch"]["count"] != len(ball):
        problems.append(f"patch count {ver['patch']['count']}, enumeration {len(ball)}")
    if not close(ver["patch"]["separation"], ball.shortest_nonzero(), 1e-12):
        problems.append(f"separation {ver['patch']['separation']}, shortest vector {ball.shortest_nonzero()}")
    orth = ver["orthogonality"]
    if not orth["passed"] or orth["max_residual"] > TOL_ZERO * float(vol):
        problems.append(f"orthogonality {orth}")
    pts = sorted(ball.points())
    for _ in range(ORACLE_DIFFERENCES):
        a, b = rng.sample(pts, 2)
        d = tuple(x - y for x, y in zip(a, b))
        mag = oracle(d)
        if mag > TOL_ZERO * float(vol):
            problems.append(f"oracle transform at patch difference {d} is {mag}")
    c2 = ver["c2_integrality"]
    if not c2["passed"] or c2["max_distance_to_integer"] != 0.0:
        problems.append(f"C2 {c2}")
    dens = ver["density"]
    dens = None if "skipped" in dens else (dens["passed"], dens["count"], dens["density"], dens["target"])
    problems += density_problems(dens, len(ball), radius, ball.dim, vol)
    expected = "prism-excluded" if name in PRISMS else "pass"
    if ver["uniqueness"]["status"] != expected:
        problems.append(f"uniqueness {ver['uniqueness']}, expected {expected}")
    return problems


def zonotope_report_problems(gens, rep) -> list:
    """An `analyze` report on a zonotope of generators in general position."""
    problems = []
    k, d = len(gens), len(gens[0])
    vol = zonotope_volume(gens)
    if Fraction(rep["polytope"]["volume"]) != vol:
        problems.append(f"volume {rep['polytope']['volume']}, expected {vol}")
    if rep["polytope"]["f_vector"] != zonotope_f_vector(k, d):
        problems.append(f"f-vector {rep['polytope']['f_vector']}, expected {zonotope_f_vector(k, d)}")
    spectral = rep["spectral"]
    if spectral["is_spectral"] or spectral["reason"] != zonotope_reason(k, d):
        problems.append(f"verdict {spectral['is_spectral']} {spectral['reason']}")
    return problems


# --- transforms -----------------------------------------------------------------


def transform_agrees(value: complex, oracle: complex) -> bool:
    """1e-9 relative or 1e-12 absolute."""
    diff = abs(value - oracle)
    return diff <= 1e-12 or diff <= 1e-9 * abs(oracle)


def decay_bound(boundary_measure: float, xi) -> float:
    """|1^_P(xi)| <= |boundary| / (2 pi |xi|), with a few ulps of slack."""
    norm = math.sqrt(sum(float(c) ** 2 for c in xi))
    return boundary_measure / (2 * math.pi * norm) * (1 + 1e-12)


def parse_fourier_csv(text: str) -> list:
    """Rows (xi as Fractions, value as complex) of `spectile fourier` output."""
    rows = list(csv.reader(io.StringIO(text)))
    return [
        (tuple(Fraction(c) for c in row[0].split()), complex(float(row[1]), float(row[2])))
        for row in rows[1:]
        if row
    ]


def fourier_problems(rows, frequencies, boundary_measure: float, oracle) -> list:
    """Each row must be the requested frequency, agree with the oracle and
    satisfy the decay bound; oracle(xi) returns a complex value."""
    out = []
    if [xi for xi, _ in rows] != [tuple(f) for f in frequencies]:
        out.append("fourier rows do not match the requested frequencies")
    for xi, value in rows:
        ref = oracle(xi)
        if not transform_agrees(value, ref):
            out.append(f"transform at {xi}: {value} vs oracle {ref}")
        if abs(value) > decay_bound(boundary_measure, xi):
            out.append(f"transform at {xi}: |{value}| exceeds the decay bound")
    return out
