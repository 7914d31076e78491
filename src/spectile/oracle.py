"""Independent brute-force checks: Monte-Carlo volume and covering
multiplicity, and a simplex-decomposition Fourier transform.

These deliberately share no code path with the primary implementations
they validate (they depend only on the polytope types): the transform
here triangulates and uses divided differences of vertex exponentials,
instead of the boundary recursion; volumes and multiplicities are sampled
instead of computed.  Obviousness is the goal, not speed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionFailed, RankDeficient
from .fourier import ComplexValue, _check_frequency, _phase_eps, precision_bits
from .geometry import Polytope, memo
from .linalg import (
    ZERO,
    Rat,
    clear_denominators,
    det,
    hnf_rational,
    idot,
    norm_sq,
    rational,
    sqrt_upper,
    vsub,
)
from .tiling import coefficient_box

__all__ = ["MAX_SAMPLES", "SampleConfig", "MCVolume", "MultiplicityHistogram", "mc_volume", "multiplicity_sample", "simplex_ft"]


# the most samples one oracle run may draw (--samples); both sampling
# oracles draw and test them in blocks of _VOLUME_BLOCK samples, so they
# hold one count of multiplicities and a block's projections at a time
MAX_SAMPLES = 10**6
_VOLUME_BLOCK = 2**14


@dataclass(frozen=True)
class SampleConfig:
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise PreconditionFailed(f"sample count must be at least 1, got {self.count}")
        if self.count > MAX_SAMPLES:
            raise PreconditionFailed(f"sample count must be at most {MAX_SAMPLES}, got {self.count}")
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


def _times(x, m):
    """x·m for n x d rows x and a d x k matrix m, as ((x0·m0j + x1·m1j) +
    x2·m2j) one column at a time, into a Fortran-order array.  No BLAS
    thread wakes and no multiply-add is fused, so every CPU gives the same
    floats, each within d·2⁻⁵³/(1 − d·2⁻⁵³)·Σ|xi·mij| + d·2⁻¹⁰⁷⁴ of the
    exact product of the float inputs."""
    out = np.empty((len(x), m.shape[1]), order="F")
    for j in range(m.shape[1]):
        col = out[:, j]
        np.multiply(x[:, 0], m[0, j], out=col)
        for i in range(1, m.shape[0]):
            col += x[:, i] * m[i, j]
    return out


def mc_volume(p: Polytope, cfg: SampleConfig) -> MCVolume:
    """Hit-ratio volume estimate with binomial standard error, sampling
    the bounding box of the vertices, one block of samples at a time."""
    lo = np.array([min(float(v[i]) for v in p.vertices) for i in range(p.dim)])
    hi = np.array([max(float(v[i]) for v in p.vertices) for i in range(p.dim)])
    rng = np.random.default_rng(cfg.seed)
    a, b = _facet_arrays(p)
    hits = 0
    for start in range(0, cfg.count, _VOLUME_BLOCK):
        pts = rng.random((min(_VOLUME_BLOCK, cfg.count - start), p.dim)) * (hi - lo) + lo
        hits += int(np.count_nonzero(np.all(_times(pts, a.T) <= b + 1e-12, axis=1)))
    box_vol = float(np.prod(hi - lo))
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

    The samples are drawn and counted one block of _VOLUME_BLOCK at a time,
    in the order of one draw.  Sample s lies in P + tau when
    <n_f, s> <= offset(tau, f) for every facet f, and two exact shortcuts
    skip comparisons whose outcome the extremes of <n_f, s> over the
    block's samples already decide.  A translate with an offset below the
    smallest projection on some facet contains no sample of the block and
    is dropped; a facet whose offset is at or above the largest projection
    holds at every sample of the block and is not compared, so a translate
    with no other facet contains every one.  Every comparison that remains
    is the one the dense test makes, so the counts are those of testing
    every translate at every sample.  The products are _times's,
    so samples and counts are the same on every CPU.
    """
    basis = hnf_rational([tuple(rational(c) for c in g) for g in generators])
    if len(basis) < p.dim:
        raise RankDeficient("generators do not span the space")
    rng = np.random.default_rng(cfg.seed)
    bmat = np.array([[float(c) for c in row] for row in basis])

    diam_p = float(sqrt_upper(p.diameter_sq))
    diam_cell = float(sum((sqrt_upper(norm_sq(row)) for row in basis), ZERO))
    radius = diam_p + diam_cell

    # float translate enumeration is enough for a sampling oracle; the
    # radius cutoff only has to be generous, not exact
    inv_t = np.linalg.inv(bmat).T
    bounds = [int(np.linalg.norm(row) * radius) + 1 for row in inv_t]
    translates = _times(coefficient_box(bounds, "translate enumeration"), bmat)
    translates = translates[np.linalg.norm(translates, axis=1) <= radius + 1e-9]

    a, b = _facet_arrays(p)
    # circumsphere reject per translate: the cell and P + tau must come
    # close before the membership test runs
    corners = _times(np.array(list(np.ndindex(*(2,) * p.dim)), dtype=float), bmat)
    cell_center = corners.mean(axis=0)
    cell_rad = float(np.max(np.linalg.norm(corners - cell_center, axis=1)))
    p_center = np.array([float(c) for c in p.vertex_centroid])
    p_rad = max(
        float(np.linalg.norm(np.array([float(c) for c in v]) - p_center)) for v in p.vertices
    )
    near = np.linalg.norm(translates + p_center - cell_center, axis=1) <= cell_rad + p_rad + 1e-6
    translates = translates[near]

    counts = np.zeros(cfg.count, dtype=np.int64)
    used = len(translates)
    for start in range(0, cfg.count, _VOLUME_BLOCK):
        m = min(_VOLUME_BLOCK, cfg.count - start)
        projected = _times(_times(rng.random((m, p.dim)), bmat), a.T)  # reused across translates
        offsets = b[None, :] + _times(translates, a.T) + 1e-12
        offsets = offsets[np.all(offsets >= projected.min(axis=0), axis=1)]
        binding = offsets < projected.max(axis=0)
        full = ~binding.any(axis=1)
        block_counts = counts[start : start + m]
        block_counts += int(full.sum())
        offsets, binding = offsets[~full], binding[~full]
        chunk = max(1, int(2e6 // m))
        for i in range(0, len(offsets), chunk):
            block, bind = offsets[i : i + chunk], binding[i : i + chunk]
            inside = np.ones((len(block), m), dtype=bool)
            for f in range(len(b)):
                rows = np.flatnonzero(bind[:, f])
                if rows.size:
                    inside[rows] &= projected[:, f] <= block[rows, f, None]
            block_counts += inside.sum(axis=0)
    hist: dict = {}
    binc = np.bincount(counts)
    for mult, n in enumerate(binc):
        if n:
            hist[int(mult)] = int(n)
    return MultiplicityHistogram(counts=hist, translates_used=used, count=cfg.count, seed=cfg.seed)


# --- simplex-decomposition Fourier transform ---------------------------------


@memo
def _fan(p: Polytope):
    """The fan triangulation into d-simplices from vertex 0, on the
    vertices cleared to integer rows over one scale: (scale, rows, the
    simplices as vertex-index tuples with their |det| weights, the total
    weight as a Rat).  A simplex of weight 0 is dropped; d! vol(S) is its
    weight over scale^d."""
    scale, rows = clear_denominators(p.vertices)
    if p.dim == 1:
        fan = [(0, 1)]
    elif p.dim == 2:
        cyc = p._cycle2d
        pos = cyc.index(0)
        cyc = cyc[pos:] + cyc[:pos]
        fan = [(0, cyc[k], cyc[k + 1]) for k in range(1, len(cyc) - 1)]
    else:
        fan = [
            (0, f.indices[0], f.indices[k], f.indices[k + 1])
            for f in p.facets
            if 0 not in f.indices
            for k in range(1, len(f.indices) - 1)
        ]
    simplices = []
    for idx in fan:
        weight = abs(int(det(tuple(vsub(rows[i], rows[0]) for i in idx[1:]))))
        if weight:
            simplices.append((idx, weight))
    total = Rat(sum(w for _, w in simplices), scale**p.dim)
    return scale, rows, simplices, total


@functools.cache
def _minus_two_pi_i(prec: int):
    """-2 pi i rounded at prec bits, formed once per working precision."""
    import mpmath

    with mpmath.workprec(prec):
        return mpmath.mpc(0, -2) * (+mpmath.pi)


def _divided_difference_exp(nums, mod, phases):
    """Confluent divided differences of exp at nodes z_j = -2 pi i t_j,
    t_j = nums[j] / mod, given phases[n] = e^{-2 pi i n / mod}.

    Node collisions are decided by exact equality of the integer
    numerators, and collided blocks take the derivative value e^z / m!;
    the recursion never divides by a difference that is only numerically
    small.
    """
    import mpmath

    from .walk import _ratio

    ts = sorted(nums)
    n = len(ts)
    minus_two_pi_i = _minus_two_pi_i(mpmath.mp.prec)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = phases[ts[i]]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            if ts[i] == ts[j]:
                table[i][j] = phases[ts[i]] / math.factorial(span)
            else:
                dz = minus_two_pi_i * _ratio(ts[j] - ts[i], mod)
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / dz
    return table[0][n - 1]


def simplex_ft(p: Polytope, xi) -> ComplexValue:
    """Indicator transform via triangulation and vertex exponentials.

    Each simplex S with vertices v_0..v_d contributes
    d! vol(S) * DD[exp](-2 pi i <xi, v_0>, ..., -2 pi i <xi, v_d>).
    Every <xi, v> is an integer over one modulus, the denominator of xi
    times the vertex scale, so each vertex phase is evaluated once.
    """
    import mpmath

    from .walk import _phase, _ratio

    xi = _check_frequency(p, xi)
    scale, rows, simplices, total_weight = _fan(p)
    if all(c == 0 for c in xi):  # the volume, the total weight over d!
        return ComplexValue(float(total_weight / math.factorial(p.dim)), 0.0, 0.0)
    xden, (x,) = clear_denominators([xi])
    mod = xden * scale
    nums = [idot(x, v) for v in rows]
    with mpmath.workprec(precision_bits()):
        phases = {n: _phase(n, mod) for n in set(nums)}
        acc = mpmath.mpc(0)
        for idx, weight in simplices:
            dd = _divided_difference_exp([nums[i] for i in idx], mod, phases)
            acc = acc + _ratio(weight, scale**p.dim) * dd
        err = float(total_weight) * len(xi) * 20 * _phase_eps(precision_bits())
        return ComplexValue(float(acc.real), float(acc.imag), err)
