"""Independent brute-force checks: Monte-Carlo volume and covering
multiplicity, and a simplex-decomposition Fourier transform.

These deliberately share no code path with the primary implementations
they validate (they depend only on the polytope types): the transform
here triangulates and uses divided differences of vertex exponentials,
instead of the boundary recursion; volumes and multiplicities are sampled
instead of computed.  Obviousness is the goal, not speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import PreconditionFailed, RankDeficient
from .fourier import ComplexValue, _check_frequency, _mpf, _phase, _phase_eps, precision_bits
from .geometry import Polytope
from .linalg import ZERO, det, hnf_rational, norm_sq, rank, rational, sqrt_upper, vdot, vsub
from .tiling import coefficient_box

__all__ = ["SampleConfig", "MCVolume", "MultiplicityHistogram", "mc_volume", "multiplicity_sample", "simplex_ft"]


@dataclass(frozen=True)
class SampleConfig:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise PreconditionFailed(f"sample count must be at least 1, got {self.count}")
        if self.seed < 0:
            raise PreconditionFailed(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class MCVolume:
    estimate: float
    stderr: float
    hits: int
    count: int
    seed: int


def _facet_arrays(p: Polytope):
    a = np.array([[float(c) for c in f.normal] for f in p.facets], dtype=float)
    b = np.array([float(f.offset) for f in p.facets], dtype=float)
    return a, b


def _inside_counts(a, b, pts):
    return np.all(pts @ a.T <= b + 1e-12, axis=1)


def mc_volume(p: Polytope, cfg: SampleConfig) -> MCVolume:
    """Hit-ratio volume estimate with binomial standard error, sampling
    the bounding box of the vertices."""
    lo = tuple(min(float(v[i]) for v in p.vertices) for i in range(p.dim))
    hi = tuple(max(float(v[i]) for v in p.vertices) for i in range(p.dim))
    rng = np.random.default_rng(cfg.seed)
    pts = rng.random((cfg.count, p.dim)) * (np.array(hi) - np.array(lo)) + np.array(lo)
    a, b = _facet_arrays(p)
    hits = int(np.count_nonzero(_inside_counts(a, b, pts)))
    box_vol = float(np.prod(np.array(hi) - np.array(lo)))
    frac = hits / cfg.count
    stderr = box_vol * math.sqrt(max(frac * (1 - frac), 1e-12) / cfg.count)
    return MCVolume(estimate=box_vol * frac, stderr=stderr, hits=hits, count=cfg.count, seed=cfg.seed)


@dataclass(frozen=True)
class MultiplicityHistogram:
    counts: dict  # multiplicity -> number of sampled points
    translates_used: int
    count: int
    seed: int

    @property
    def min(self) -> int:
        return min(self.counts)

    @property
    def max(self) -> int:
        return max(self.counts)


def multiplicity_sample(p: Polytope, generators, cfg: SampleConfig) -> MultiplicityHistogram:
    """Covering multiplicities of P + T over a fundamental cell.

    T is the group of integer combinations of the generators; with
    rational data it is a lattice, and the multiplicity function is
    T-periodic, so sampling one fundamental cell tells the whole story.
    Translates are truncated to |tau| <= diam(P) + diam(cell), beyond
    which they cannot meet the cell.

    Sample s lies in P + tau when <n_f, s> <= offset(tau, f) for every
    facet f, and two exact shortcuts skip comparisons whose outcome the
    extremes of <n_f, s> over the samples already decide.  A translate
    with an offset below the smallest projection on some facet contains no
    sample and is dropped; a facet whose offset is at or above the largest
    projection holds at every sample and is not compared, so a translate
    with no other facet contains every sample.  Every comparison that
    remains is the one the dense test makes, on the same floats, so the
    counts are those of testing every translate at every sample.
    """
    gens = [tuple(rational(c) for c in g) for g in generators]
    if not gens or rank(gens) < p.dim:
        raise RankDeficient("generators do not span the space")
    basis = hnf_rational(gens)
    rng = np.random.default_rng(cfg.seed)
    bmat = np.array([[float(c) for c in row] for row in basis])
    samples = rng.random((cfg.count, p.dim)) @ bmat

    diam_p = float(sqrt_upper(p.diameter_sq))
    diam_cell = float(sum((sqrt_upper(norm_sq(row)) for row in basis), ZERO))
    radius = diam_p + diam_cell

    # float translate enumeration is enough for a sampling oracle; the
    # radius cutoff only has to be generous, not exact
    inv_t = np.linalg.inv(bmat).T
    bounds = [int(np.linalg.norm(row) * radius) + 1 for row in inv_t]
    translates = coefficient_box(bounds, "translate enumeration") @ bmat
    translates = translates[np.linalg.norm(translates, axis=1) <= radius + 1e-9]

    a, b = _facet_arrays(p)
    # circumsphere reject per translate: the cell and P + tau must come
    # close before the membership test runs
    corners = np.array([[float(x) for x in bits] for bits in np.ndindex(*(2,) * p.dim)]) @ bmat
    cell_center = corners.mean(axis=0)
    cell_rad = float(np.max(np.linalg.norm(corners - cell_center, axis=1)))
    p_center = np.array([float(c) for c in p.vertex_centroid])
    p_rad = max(
        float(np.linalg.norm(np.array([float(c) for c in v]) - p_center)) for v in p.vertices
    )
    near = np.linalg.norm(translates + p_center - cell_center, axis=1) <= cell_rad + p_rad + 1e-6
    translates = translates[near]

    counts = np.zeros(cfg.count, dtype=np.int64)
    projected = samples @ a.T  # reused across translates
    used = len(translates)
    offsets = b[None, :] + translates @ a.T + 1e-12
    offsets = offsets[np.all(offsets >= projected.min(axis=0), axis=1)]
    binding = offsets < projected.max(axis=0)
    full = ~binding.any(axis=1)
    counts += int(full.sum())
    offsets, binding = offsets[~full], binding[~full]
    chunk = max(1, int(2e6 // cfg.count))
    for i in range(0, len(offsets), chunk):
        block, bind = offsets[i : i + chunk], binding[i : i + chunk]
        inside = np.ones((len(block), cfg.count), dtype=bool)
        for f in range(len(b)):
            rows = np.flatnonzero(bind[:, f])
            if rows.size:
                inside[rows] &= projected[:, f] <= block[rows, f, None]
        counts += inside.sum(axis=0)
    hist: dict = {}
    binc = np.bincount(counts)
    for mult, n in enumerate(binc):
        if n:
            hist[int(mult)] = int(n)
    return MultiplicityHistogram(counts=hist, translates_used=used, count=cfg.count, seed=cfg.seed)


# --- simplex-decomposition Fourier transform ---------------------------------


def _triangulate(p: Polytope):
    """Fan triangulation into d-simplices from the first vertex."""
    v0 = p.vertices[0]
    if p.dim == 1:
        return [(p.vertices[0], p.vertices[1])]
    simplices = []
    if p.dim == 2:
        cyc = p._cycle2d
        pos = cyc.index(0)
        cyc = cyc[pos:] + cyc[:pos]
        for k in range(1, len(cyc) - 1):
            simplices.append((v0, p.vertices[cyc[k]], p.vertices[cyc[k + 1]]))
        return simplices
    for fi, f in enumerate(p.facets):
        if 0 in f.indices:
            continue
        pts = p.facet_points(fi)
        for k in range(1, len(pts) - 1):
            simplices.append((v0, pts[0], pts[k], pts[k + 1]))
    return simplices


def _divided_difference_exp(phases):
    """Confluent divided differences of exp at nodes z_j = -2 pi i t_j.

    Node collisions are decided by exact equality of the rational t_j, and
    collided blocks take the derivative value e^z / m!; the recursion never
    divides by a difference that is only numerically small.
    """
    ts = sorted(phases)
    n = len(ts)
    vals = {t: _phase(t.numerator, t.denominator) for t in set(ts)}
    minus_two_pi_i = mpmath.mpc(0, -2) * (+mpmath.pi)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = vals[ts[i]]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            if ts[i] == ts[j]:
                table[i][j] = vals[ts[i]] / math.factorial(span)
            else:
                dz = minus_two_pi_i * _mpf(ts[j] - ts[i])
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / dz
    return table[0][n - 1]


def simplex_ft(p: Polytope, xi) -> ComplexValue:
    """Indicator transform via triangulation and vertex exponentials.

    Each simplex S with vertices v_0..v_d contributes
    d! vol(S) * DD[exp](-2 pi i <xi, v_0>, ..., -2 pi i <xi, v_d>).
    """
    xi = _check_frequency(p, xi)
    if all(c == 0 for c in xi):
        return ComplexValue(float(p.volume), 0.0, 0.0)
    with mpmath.workprec(precision_bits()):
        acc = mpmath.mpc(0)
        total_weight = ZERO
        for simplex in _triangulate(p):
            v0 = simplex[0]
            m = tuple(vsub(v, v0) for v in simplex[1:])
            weight = abs(det(m))
            if weight == 0:
                continue
            total_weight += weight
            phases = [vdot(xi, v) for v in simplex]
            acc = acc + _mpf(weight) * _divided_difference_exp(phases)
        err = float(total_weight) * len(xi) * 20 * _phase_eps(precision_bits())
        return ComplexValue(float(acc.real), float(acc.imag), err)
