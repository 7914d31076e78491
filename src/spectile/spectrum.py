"""Spectra of tiling polytopes: lattice duality, finite-patch verification,
and the prism non-uniqueness family.

In dimensions 2 and 3, tiling by translations and being spectral are the
same property; a tiler's spectrum is the dual of its tiling lattice.  On a
finite patch the checkable content is: orthogonality (pairwise differences
in the zero set of the transform), density (about one point per 1/|P| of
volume), integrality of <difference, tau> for every facet translation tau,
and -- away from prisms -- that the patch is a translate of the dual
lattice.  Completeness of the exponential system is not testable on finite
data; the package relies on the tiling equivalence for it, and says so in
the reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    PreconditionFailed,
    PrismExcluded,
    ThetaOutOfRange,
    UnsupportedDimension,
    WindowTooSmall,
)
from .fourier import (
    FALLBACK_FRACTION,
    TOL_ZERO,
    _indicator_batch,
    _indicator_rows_hp,
)
from .geometry import Polytope, memo
from .linalg import INT64_MAX, Rat, clear_denominators, det, integer_ratios, sqrt_lower, sqrt_upper
from .symmetry import linear_symmetries
from .tiling import Lattice, TilingReport, is_prism, lattice_T, rat_rows, venkov_mcmullen

__all__ = [
    "SpectrumPatch",
    "PrismSpectrumSpec",
    "SpectralVerdict",
    "OrthogonalityReport",
    "DensityReport",
    "C2Report",
    "dual_lattice",
    "decide_spectral",
    "patch",
    "make_patch",
    "verify_orthogonality",
    "verify_density",
    "condition_C2_check",
    "uniqueness_check",
    "prism_spectrum",
    "zero_free_radius",
]


# pair differences (_pair_blocks) and _separation's index pairs are formed
# about this many at a time
_BLOCK = 1 << 15


def _abs_max(a) -> int:  # exact at INT64_MIN
    return max(int(a.max()), -int(a.min())) if a.size else 0


class SpectrumPatch:
    """Finite window of a candidate spectrum.

    The patch has one exact form, _coords: (den, A) with the points the
    rows of A / den, A read-only, int64 when twice its largest magnitude
    fits (so that every difference does) and Python ints otherwise.  Every
    check reads _coords; C2 and uniqueness read it as per-point residues.
    A patch built from points keeps them as the caller gave them: exact
    rationals, or floats in a user patch.  A float is an exact binary
    rational, and every check reads it as one, so a patch gets the same
    verdicts whichever of the two forms its points arrive in.  The
    constructor converts such points once with _patch_forms; make_patch
    passes the keyword _forms, which must be _patch_forms(points), to skip
    a second conversion.  A lattice patch (patch) is built from its
    enumerated rows alone, points None and _forms its (den, A); its points,
    tuples of Rat in lexicographic order, are formed on first use.
    separation is the smallest nonzero distance between two points, taken
    on their float64 rows (_separation): two distinct points closer than
    about 1e-162 count as coincident, their squared distance being 0.0.

    Every coordinate must be finite and within float range, however the
    patch is built (PreconditionFailed otherwise).  The distinct
    differences up to sign (_differences) are formed on first use, for
    orthogonality alone.
    """

    def __init__(self, points, window_radius: float, separation: float, *, _forms=None):
        if points is not None:
            self.points = points
        self.window_radius = window_radius
        self.separation = separation
        self._coords = _forms or _patch_forms(points)

    @cached_property
    def points(self) -> tuple:
        return rat_rows(*self._coords)

    def __repr__(self):
        return (
            f"SpectrumPatch(points={self.points!r}, window_radius={self.window_radius!r}, "
            f"separation={self.separation!r})"
        )

    @cached_property
    def _differences(self):
        """(den, U): the distinct differences of the patch points up to
        sign, as the rows of U / den in lexicographic order; U is read-only.

        d and -d count once, kept with the first nonzero coordinate
        positive: the points are sorted lexicographically first, so every
        later-minus-earlier difference is already that one.  Orthogonality
        needs no other form, since |1^_P(-d)| = |1^_P(d)|; the set does not
        depend on the order of the points.
        """
        den, a = self._coords
        if len(a) > 1:
            a = a[np.lexsort(a.T[::-1])]
        u = _distinct_differences(a)
        u.flags.writeable = False
        return den, u

    def __len__(self):
        return len(self._coords[1])


# a rational x rounds to a finite float exactly when |x| is below this,
# halfway from the largest finite float, 2^1024 - 2^971, to 2^1024
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _integer_form(den: int, a):
    """(den, A) for the rows of the integer array a over den, A int64 when
    twice its largest magnitude fits, so that every difference does, and
    Python ints otherwise; A is read-only.  PreconditionFailed for an entry
    beyond float range."""
    big = _abs_max(a)
    if big >= den * _FLOAT_OVERFLOW:
        i, k = np.argwhere(abs(a) >= den * _FLOAT_OVERFLOW)[0]
        raise PreconditionFailed(f"patch coordinate {k} of point {i} is beyond float range")
    a = a.astype(np.int64 if 2 * big <= INT64_MAX else object, copy=False)
    a.flags.writeable = False  # shared by every check of the patch
    return den, a


def _all_floats(points) -> bool:
    return bool(points) and all(type(c) is float for q in points for c in q)


def _patch_forms(points, floats=None):
    """(den, A): the points of a patch as the exact rows of A / den
    (_integer_form), a float read as its binary rational.

    All-float input x (floats: np.array(points, dtype=float), if formed)
    converts at once: np.frexp gives x = M 2^(e - 53) with M an integer
    whose lowest set bit 2^(t - 1) makes x's denominator 2^(54 - e - t);
    den = 2^K for the largest, and A = np.ldexp(x, K) fits int64 when
    e + K <= 63 for every nonzero x, as |x| < 2^e.  Anything else (other
    types, a non-finite float, an A past int64) reads each entry's p / q
    once (linalg.integer_ratios), den = lcm(q), and A = p (den / q) in
    int64 when den and max|p| max(den / q) fit, Python ints otherwise:
    the (den, A) of linalg.clear_denominators.  PreconditionFailed for a
    coordinate that is infinite, NaN or beyond float range.
    """
    if floats is None and _all_floats(points):
        floats = np.array(points, dtype=float)
    if floats is not None and np.isfinite(floats).all():
        mant, e = np.frexp(floats)
        mant = np.ldexp(mant, 53).astype(np.int64)
        _, t = np.frexp(mant & -mant)
        nonzero = floats != 0
        k = int(np.max(54 - e - t, where=nonzero, initial=0))
        if np.max(e, where=nonzero, initial=-k) + k <= 63:
            return _integer_form(1 << k, np.ldexp(floats, k).astype(np.int64))
    n, d = len(points), len(points[0]) if points else 0
    if len(set(map(len, points))) > 1:
        raise ValueError("patch points differ in length")
    try:
        pairs = integer_ratios([c for q in points for c in q])
    except (ValueError, OverflowError):  # a NaN or an infinity
        for q in points:
            if not all(math.isfinite(c) for c in q if isinstance(c, float)):
                raise PreconditionFailed(f"patch coordinates must be finite, got {q}") from None
        raise
    nums, dens = zip(*pairs) if pairs else ((), ())
    den = math.lcm(*set(dens))
    try:  # OverflowError for a numerator past int64
        num = np.array(nums, dtype=np.int64)
        fits = den <= INT64_MAX and _abs_max(num) * (den // min(dens, default=1)) <= INT64_MAX
    except OverflowError:
        fits = False
    if fits:
        a = num * (den // np.array(dens, dtype=np.int64))
    else:
        a = np.array([x * (den // q) for x, q in pairs], dtype=object)
    return _integer_form(den, a.reshape(n, d))


# cells per axis of the _separation grid: the rounding in the cell indices
# of two rows then adds up to at most 2^19 * 2^-51 = 2.4e-10 of a cell,
# well inside the 1e-9 margin, and three indices code into one int64
_GRID = 2**19


def _grid(a, h2: float):
    """(code, columns): one int64 code per row of a, for its cell in the
    grid of side sqrt(h2) (1 + 1e-9), widened where needed to keep _GRID
    cells per axis, and the code offsets P of the (3^(d-1) + 1)/2 columns
    of three cells along the last axis, codes code + P - 1 to code + P + 1,
    that hold a row's own cell and its (3^d - 1)/2 forward neighbour cells
    (the own column also holds the backward cell code - 1).  Without such
    a grid (more than three coordinates, or an infinite side) every row
    gets one code and there is one column, P = 0."""
    n, d = a.shape
    low = a.min(axis=0)
    side = max(math.sqrt(h2) * (1 + 1e-9), float((a.max(axis=0) - low).max()) / (_GRID - 3))
    if d > 3 or not math.isfinite(side):
        return np.zeros(n, dtype=np.int64), [0]
    places = [_GRID**k for k in range(d - 1, -1, -1)]
    code = (np.floor((a - low) / side).astype(np.int64) + 1) @ np.array(places)
    heads = itertools.product((-1, 0, 1), repeat=d - 1)
    return code, [sum(x * p for x, p in zip(o, places)) for o in heads if o >= (0,) * (d - 1)]


@np.errstate(over="ignore")
def _separation(a) -> float:
    """The smallest nonzero distance between two rows of the float64 array
    a, inf when there is none.

    The result equals, bit for bit, the minimum of
    sqrt(np.sum((a_i - a_j)**2, axis=-1)) over all pairs with a nonzero
    value, but only pairs that can be closest are evaluated, each with
    that same arithmetic: np.sum adds up to seven columns from left to
    right, as the loop over at most three here does (wider rows take
    np.sum).  Every coordinate is finite (make_patch); a difference that
    overflows is inf apart.

    The nearest neighbour of the row closest to the centroid gives h2, the
    computed squared distance of a real pair, so the result is at most
    sqrt(h2) (for a lattice ball it is the shortest vector).  The rows go
    into grid cells of side sqrt(h2) (1 + 1e-9), widened where needed to
    keep _GRID cells per axis, coded as one int64 each, and are sorted by
    code.  Rounding is monotone, so a pair whose computed squared distance
    is below h2 has every computed squared coordinate difference below
    h2, subnormals included; its two cells then differ by at most one in
    every index.  Each row is paired with the later rows of its own cell
    and with every row of the (3^d - 1)/2 forward neighbour cells.  These
    are the rows after it in its own column of three consecutive codes
    and all rows of the forward columns (_grid): one searchsorted pair
    finds the row range of every column of a chunk of rows, and np.repeat
    expands the ranges into index pairs about _BLOCK at a time, which
    bounds memory however many rows share a cell.  Rows of
    more than three coordinates, and point sets with no finite h2 or an
    overflowing range, share one cell, so that every pair is evaluated; so
    does, in effect, a cluster much smaller than the grid's cells.

    scipy.spatial.cKDTree would find the pairs too, but importing it adds
    about 37 MB of resident memory and 0.57 s to every run.
    """
    if len(a) < 2 or a.shape[1] == 0:
        return math.inf
    n = len(a)
    centre = np.argmin(np.sum((a - a.mean(axis=0)) ** 2, axis=-1))
    near = np.sum((a - a[centre]) ** 2, axis=-1)
    best = float(near[near > 0].min(initial=math.inf))
    code, columns = _grid(a, best)
    order = np.argsort(code)
    code, a = code[order], a[order]
    cols, columns = a.T.copy(), np.array(columns)[:, None]
    chunk = _BLOCK // len(columns)
    for first in range(0, n, chunk):
        rows = np.arange(first, min(first + chunk, n))
        lo = np.searchsorted(code, (code[rows] + (columns - 1)).ravel(), "left")
        hi = np.searchsorted(code, (code[rows] + (columns + 1)).ravel(), "right")
        lo[: len(rows)] = rows + 1  # in its own column, a row meets the later rows only
        count, row = hi - lo, np.tile(rows, len(columns))
        ends = np.cumsum(count)
        cuts = np.flatnonzero(np.diff(ends // _BLOCK)) + 1
        for s, t in zip((0, *cuts), (*cuts, len(ends))):
            c = count[s:t]
            i = np.repeat(row[s:t], c)
            k = np.repeat(lo[s:t] - (ends[s:t] - c), c) + np.arange(ends[s] - c[0], ends[t - 1])
            if len(cols) > 3:  # np.sum's own order, pairwise from eight columns on
                d2 = np.sum((a[i] - a[k]) ** 2, axis=-1)
            else:
                d2 = (cols[0][i] - cols[0][k]) ** 2
                for col in cols[1:]:
                    d2 += (col[i] - col[k]) ** 2
            best = min(best, float(np.min(d2, where=d2 > 0, initial=math.inf)))
    return math.sqrt(best)


def require_finite(x, name: str = "patch radius", non_negative: bool = False):
    """PreconditionFailed for an infinite or NaN float x (a radius or a
    tolerance), and with non_negative for x < 0."""
    if isinstance(x, float) and not math.isfinite(x):
        raise PreconditionFailed(f"{name} must be finite, got {x}")
    if non_negative and x < 0:
        raise PreconditionFailed(f"{name} must be non-negative, got {x}")


def _centred_radius(den: int, a) -> float:
    """The largest |q - c| over the points q = A / den with c their exact
    centroid, sum(x ** 2 for x in q - c) ** 0.5 with each coordinate of
    q - c rounded once; 0.0 for no points.  OverflowError for a value
    beyond float range.  With c = 0, as for a lattice ball, this is the
    largest |q| on the float64 rows of the patch.  A coordinate of q - c
    is (n x - t) / (n den), t its column total: numpy divides when
    2 n max(|A|, den) <= 2^53 makes both exact in float64, and adds each
    row left to right; squares and root stay Python's pow, which need not
    round as np.square and np.sqrt do."""
    n = len(a)
    if a.dtype == np.int64 and 2 * n * max(_abs_max(a), den) <= 2**53:
        q = (n * a - a.sum(axis=0)) / (n * den)
        squares = np.reshape(list(map(pow, q.ravel().tolist(), itertools.repeat(2))), q.shape)
        sums = sum(squares.T, np.zeros(n))
        return max(map(pow, sums.tolist(), itertools.repeat(0.5)), default=0.0)
    rows = a.tolist()
    total = [sum(col) for col in zip(*rows)]
    return max(
        (sum(((n * x - t) / (n * den)) ** 2 for x, t in zip(q, total)) ** 0.5 for q in rows),
        default=0.0,
    )


def _float64_rows(den: int, a):
    """The float64 rows of A / den, each coordinate one correctly rounded
    division: numpy's when A and den are exact in float64 (at most 2^53),
    Python's int division otherwise."""
    if a.dtype == np.int64 and max(_abs_max(a), den) <= 2**53:
        return a / den
    return (a.astype(object) / den).astype(float)


def make_patch(points, window_radius: float | None = None) -> SpectrumPatch:
    """The patch of the given points, each converted once (_patch_forms).

    separation is read from the float64 rows: the points themselves when
    all are Python floats, else those of A / den (_float64_rows).
    Without a window radius the window is centred at the points' exact
    centroid c and takes the largest |q - c| (_centred_radius).
    PreconditionFailed for a coordinate that is infinite, NaN or beyond
    float range, for a default window radius beyond float range, and for
    a given one that is infinite, NaN or negative.
    """
    pts = tuple(tuple(p) for p in points)
    floats = np.array(pts, dtype=float) if _all_floats(pts) else None
    forms = _patch_forms(pts, floats)
    if window_radius is None:
        try:
            window_radius = _centred_radius(*forms)
        except OverflowError:
            raise PreconditionFailed(
                "the default window radius, the largest |q - c| of a patch point q from the "
                "patch centroid c, is beyond float range"
            ) from None
    window_radius = float(window_radius)
    require_finite(window_radius, "window radius", non_negative=True)
    rows = _float64_rows(*forms) if floats is None else floats
    return SpectrumPatch(pts, window_radius, _separation(rows), _forms=forms)


def dual_lattice(lattice: Lattice) -> Lattice:
    """All vectors with integer inner products against the lattice."""
    return lattice.dual()


@dataclass(frozen=True)
class SpectralVerdict:
    is_spectral: bool
    reason: str
    spectrum: Lattice | None
    tiling: TilingReport


@memo
def decide_spectral(p: Polytope) -> SpectralVerdict:
    """Spectral iff the polytope tiles by translations (dimensions 2, 3);
    for a tiler the dual of the tiling lattice is a spectrum."""
    if p.dim not in (2, 3):
        raise UnsupportedDimension("the decision procedure covers dimensions 2 and 3")
    rep = venkov_mcmullen(p)
    if rep.tiles:
        spectrum = dual_lattice(lattice_T(p))
        return SpectralVerdict(True, "tiles-by-translation", spectrum, rep)
    if not rep.vm_centrally_symmetric:
        reason = "not-centrally-symmetric"
    elif not rep.vm_facets_symmetric:
        reason = "facet-not-centrally-symmetric"
    else:
        reason = f"belt-length-{rep.failing_belt_length}"
    return SpectralVerdict(False, reason, None, rep)


def patch_rows(lattice: Lattice, radius: float) -> tuple:
    """(den, A): all lattice points in the closed ball of the given radius,
    as the exact rows of A / den in lexicographic order (Lattice.ball_rows,
    in the form of _integer_form); the forms of patch(lattice, radius)."""
    require_finite(radius)
    if radius <= 0:
        raise PreconditionFailed("patch radius must be positive")
    r = Rat(radius)  # exact, a float included
    return _integer_form(*lattice.ball_rows(r * r))


def patch(lattice: Lattice, radius: float) -> SpectrumPatch:
    """All lattice points in the closed ball of the given radius, as a
    lattice patch built from patch_rows; its forms equal _patch_forms of
    Lattice.points_in_ball, which its points equal."""
    forms = patch_rows(lattice, radius)
    return SpectrumPatch(None, float(radius), _separation(_float64_rows(*forms)), _forms=forms)


def _unique(a):
    """The distinct entries of a 1-D array, or rows of a 2-D one, in
    (lexicographic) order."""
    if len(a) < 2:
        return a
    keep = np.ones(len(a), dtype=bool)
    if a.ndim == 1:
        a = np.sort(a)
        keep[1:] = a[1:] != a[:-1]
    else:
        a = a[np.lexsort(a.T[::-1])]
        keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


def _pair_blocks(a):
    """The differences a[i + k] - a[i] for every offset k >= 1, as arrays
    of about _BLOCK entries."""
    n = len(a)
    parts, size = [], 0
    for k in range(1, n):
        for lo in range(0, n - k, _BLOCK):
            hi = min(lo + _BLOCK, n - k)
            parts.append(a[lo + k : hi + k] - a[lo:hi])
            size += hi - lo
            if size >= _BLOCK:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def _radix(a):
    """(spans, places) when the int64 rows of a have a one-number code.

    A difference d of two rows has |d_k| <= span_k, the range of column k,
    so sum(d_k * place_k), with place_k the product of 2 * span_l + 1 over
    the later columns l, determines d and orders differences as their rows
    order lexicographically.  None when that code could overflow int64.
    """
    if a.dtype != np.int64 or not a.size:
        return None
    spans = [int(c) for c in a.max(axis=0) - a.min(axis=0)]
    places, size = [], 1
    for span in reversed(spans):
        places.insert(0, size)
        size *= 2 * span + 1
    return (spans, places) if size <= INT64_MAX else None


def _distinct_differences(a):
    """The distinct differences a[j] - a[i] (i < j) of the rows of a, as
    the rows of one array in lexicographic order.

    The array has the dtype of a (see SpectrumPatch._coords).  The pairs are
    formed one block at a time, offset by offset, and each block is
    deduplicated before it joins the distinct set, so memory stays bounded
    by the distinct set plus a few blocks; on a lattice patch the
    differences at one offset repeat heavily.  Integer rows are coded as
    single int64 numbers where _radix allows, so that a block sorts as a
    1-D array; other rows are sorted with np.lexsort.
    """
    radix = _radix(a)
    if radix is not None:
        spans, places = radix
        a = (a - a.min(axis=0)) @ np.array(places, dtype=np.int64)
    distinct, fresh, size = a[:0], [], 0
    for diff in _pair_blocks(a):
        fresh.append(_unique(diff))
        size += len(fresh[-1])
        if size >= max(len(distinct), _BLOCK):
            distinct = _unique(np.concatenate([distinct, *fresh]))
            fresh, size = [], 0
    distinct = _unique(np.concatenate([distinct, *fresh]))
    if radix is None:
        return distinct
    rest = distinct + sum(span * place for span, place in zip(spans, places))
    cols = []
    for span, place in zip(spans, places):
        digit, rest = np.divmod(rest, place)
        cols.append(digit - span)
    return np.stack(cols, axis=1).reshape(-1, len(spans))


def _matmul_mod(u, t, m: int):
    """(u @ t) % m for integer arrays u and t, in int64 when no product,
    sum or modulus can overflow, and in Python ints otherwise."""
    t = np.array(t, dtype=object)
    if u.dtype == object or max(u.shape[1] * _abs_max(u) * _abs_max(t), m) > INT64_MAX:
        return (u.astype(object) @ t) % m
    return (u @ t.astype(np.int64)) % m


# rows times group order per block of orbit codes
_ORBIT_BLOCK = 1 << 18


def _orbit_representatives(p: Polytope, U):
    """rep, with rep[i] the index of the first row of U (in U's order) in
    the orbit of row i under the polytope's linear symmetries, or None
    when orbits are not formed.

    A symmetry M of P - c (symmetry.linear_symmetries, x -> x M) maps a
    frequency row u to u M^T with |1^_P(u M^T)| = |1^_P(u)|: substitute
    x = y M in the transform of P - c, as |det M| = 1, and a translation
    changes only the phase.  Every member of an orbit therefore has its
    representative's exact magnitude.  A row's code is the least radix code
    of its images u M^T: with b = max|U| and l the largest row 1-norm of
    any M each image entry is at most b l, so radix 2 b l + 1 codes every
    image exactly, and as the code is linear in the row one integer
    product gives all the images' codes, a block of rows at a time.  The
    integer symmetries are a group (an inverse is a power), so two rows
    have equal codes exactly when they lie in one orbit.  None for
    Python-int rows, a group of order at most 2 ({+-I}, under which the
    sign-collapsed U has no two rows in one orbit), and codes that could
    pass int64.
    """
    if U.dtype != np.int64 or len(U) < 2:
        return None
    group = linear_symmetries(p)
    if len(group) <= 2:
        return None
    d = U.shape[1]
    radix = 2 * _abs_max(U) * int(np.abs(group).sum(axis=2).max()) + 1
    if (radix**d - 1) // 2 > INT64_MAX:
        return None
    places = np.array([radix**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    q = (group.transpose(0, 2, 1) @ places).T
    step = max(1, _ORBIT_BLOCK // len(group))
    codes = np.concatenate([(U[lo : lo + step] @ q).min(axis=1) for lo in range(0, len(U), step)])
    _, first, orbit = np.unique(codes, return_index=True, return_inverse=True)
    return first[orbit]


@dataclass(frozen=True)
class OrthogonalityReport:
    """passed is certified: every |1^_P(d)| plus its error bound is at most
    tolerance * volume.  The values are taken at one representative per
    symmetry orbit of the differences (verify_orthogonality), whose exact
    magnitude every member of its orbit shares.  max_residual is the
    largest |1^_P| and max_err_bound the largest bound over the evaluated
    differences (both 0.0 when there are none), worst_difference the one
    with the largest |1^_P| (a distinct difference of the patch),
    num_differences counts all distinct differences, and fallbacks the
    evaluated differences whose float64 bound was too coarse and that went
    to working precision."""

    passed: bool
    max_residual: float
    worst_difference: tuple | None
    num_points: int
    num_differences: int
    tolerance: float
    max_err_bound: float
    fallbacks: int


def verify_orthogonality(p: Polytope, s: SpectrumPatch, tol: float = TOL_ZERO) -> OrthogonalityReport:
    """All pairwise differences must lie in the zero set of the transform.

    The distinct differences up to sign (SpectrumPatch._differences, which
    num_differences counts) are exact rationals, the rows of U / den, float
    patches included.  The transform is evaluated at one representative
    per orbit of U under the polytope's linear symmetries, the orbit's
    first row (_orbit_representatives); every row is its own
    representative for Python-int rows, a symmetry group of order at most
    2 and codes past int64.  The representatives go through the float64
    batch kernel in one call; one whose error bound exceeds
    FALLBACK_FRACTION of tol * volume is evaluated again at working
    precision, and at higher precisions while its bound still exceeds that
    (fourier._indicator_rows_hp).  worst_difference is a tuple of Rat.
    """
    require_finite(tol, "tolerance", non_negative=True)
    if len(s) == 0:
        raise PreconditionFailed("empty patch")
    den, U = s._differences
    rep = _orbit_representatives(p, U)
    X = U if rep is None else U[rep == np.arange(len(U))]
    D = [den] * len(X)
    limit = tol * float(p.volume)
    val, err = _indicator_batch(p, X, D)
    fallbacks = _indicator_rows_hp(p, X, D, val, err, lambda mag, e: e > FALLBACK_FRACTION * limit)
    mag = np.abs(val)
    max_residual, worst_d, passed = 0.0, None, True
    if len(X):
        i = int(np.argmax(mag))
        max_residual = float(mag[i])
        worst_d = tuple(Rat(int(c), den) for c in X[i])
        passed = bool(np.max(mag + err) <= limit)
    return OrthogonalityReport(
        passed=passed,
        max_residual=max_residual,
        worst_difference=worst_d,
        num_points=len(s),
        num_differences=len(U),
        tolerance=tol,
        max_err_bound=float(np.max(err, initial=0.0)),
        fallbacks=fallbacks,
    )


@dataclass(frozen=True)
class DensityReport:
    passed: bool
    count: int
    ball_volume: float
    density: float
    target: float
    rel_tolerance: float


def verify_density(p: Polytope, s: SpectrumPatch, rel_tol: float = 0.05) -> DensityReport:
    """Point count per unit window volume must be |P| within rel_tol.

    A spectrum has density |P|: it is a translate-average of the dual
    tiling lattice whose covolume is 1/|P|.  The window must hold at least
    about 100 points for the boundary term not to swamp the estimate.
    """
    r = s.window_radius
    d = p.dim
    if d == 2:
        ball = math.pi * r * r
    elif d == 3:
        ball = 4.0 / 3.0 * math.pi * r**3
    else:
        ball = 2.0 * r
    target = float(p.volume)
    if ball * target < 100.0:
        raise WindowTooSmall("window holds fewer than ~100 expected points")
    density = len(s) / ball
    return DensityReport(
        passed=abs(density - target) <= rel_tol * target,
        count=len(s),
        ball_volume=ball,
        density=density,
        target=target,
        rel_tolerance=rel_tol,
    )


@dataclass(frozen=True)
class C2Report:
    passed: bool
    max_distance_to_integer: float
    tolerance: float


def _widest_gap(r, m: int) -> int:
    """The largest min(x - y mod m, y - x mod m) over pairs x, y of the
    residues r, which lie in [0, m).

    That is the largest distance between two residues on the circle of
    circumference m.  From each residue x, the farthest one at most
    h = floor(m/2) ahead, (z - x) mod m <= h, is the last one at or before
    x + h mod m, which searchsorted finds in the sorted residues (wrapping
    around to the last at the start).  Of a farthest pair, one residue
    lies at most h ahead of the other, so the largest of these forward
    distances is the answer.  Differences stay within (-m, m), so int64
    residues do not overflow.
    """
    s = np.sort(r)
    h = m // 2
    z = s[np.searchsorted(s, (s - (m - h)) % m, side="right") - 1]
    return int(((z - s) % m).max())


def condition_C2_check(s: SpectrumPatch, taus, tol: float = 1e-9) -> C2Report:
    """<difference, tau> must be within tol of an integer for every pair
    of patch points and every facet translation tau.

    Equivalently, every point has the same <q, tau> mod 1.  The check runs
    in integers on one residue per point and tau, with no pairs: the taus
    are cleared exactly, floats included, as the patch points are
    (linalg.clear_denominators).  With the points A / den and the taus
    T / tden, r = <a, t> mod M (M = den * tden), and the distance of a
    pair's <q_j - q_i, tau> to the nearest integer is the circular distance
    of their residues, min(r_j - r_i mod M, r_i - r_j mod M) / M.  The
    largest numerator (_widest_gap) is divided by M once, so
    max_distance_to_integer is the correctly rounded float of the exact
    maximum, whatever the order of the points.  PreconditionFailed for an
    infinite or NaN tau coordinate, and for a negative, infinite or NaN tol.
    """
    require_finite(tol, "tolerance", non_negative=True)
    taus = [tuple(t) for t in taus]
    try:
        tden, T = clear_denominators(taus)
    except (ValueError, OverflowError):  # a NaN or an infinity
        raise PreconditionFailed(f"tau coordinates must be finite, got {taus}") from None
    den, a = s._coords
    worst = 0.0
    if len(a) > 1 and taus:
        m = den * tden
        r = _matmul_mod(a, list(zip(*T)), m)
        worst = max(_widest_gap(col, m) for col in r.T) / m
    return C2Report(passed=worst <= tol, max_distance_to_integer=worst, tolerance=tol)


def uniqueness_check(p: Polytope, s: SpectrumPatch, tol: float = 1e-9) -> bool:
    """The patch must be a translate of the dual tiling lattice.

    That is a theorem for every true spectrum of a tiler that is not a
    prism (not a parallelogram in the plane); for prisms the check raises
    PrismExcluded because uniqueness genuinely fails there.

    The spectrum is T*, the dual of the tiling lattice T, so the patch is
    a translate of it iff every difference of two points has an integer
    inner product with each basis vector of T: C2's test against a basis
    of T (condition_C2_check), with its tol, in integers on per-point
    residues, float patches included.  An exact lattice translate reads 0,
    and the verdict does not depend on the order of the points.  A tol
    that is negative, infinite or NaN raises PreconditionFailed.
    """
    require_finite(tol, "tolerance", non_negative=True)
    verdict = decide_spectral(p)
    if not verdict.is_spectral:
        raise PreconditionFailed("uniqueness applies to spectral polytopes")
    if p.dim == 3:
        if is_prism(p) is not None:
            raise PrismExcluded("prisms admit non-translation-equivalent spectra")
    else:
        if len(p.facets) == 4:
            raise PrismExcluded("parallelograms admit non-translation-equivalent spectra")
    if len(s) == 0:
        raise PreconditionFailed("empty patch")
    return condition_C2_check(s, lattice_T(p).basis, tol).passed


@dataclass(frozen=True)
class PrismSpectrumSpec:
    """Base spectrum patch plus an offset theta(gamma) in [0,1) per point."""

    base_patch: SpectrumPatch
    theta: dict


def prism_spectrum(base: Polytope, spec: PrismSpectrumSpec, radius: float) -> SpectrumPatch:
    """Patch of the prism spectrum {(k + theta(gamma), gamma)} in the closed
    ball of the given radius.

    The 1D factor is the first coordinate, the prism axis of I x base
    (catalog.prism).  Offsets come from spec.theta, one per base point,
    each in [0, 1).  The window test is exact, as patch's is:
    |(k + theta, gamma)|^2 <= Rat(radius)^2.
    """
    require_finite(radius, "window radius", non_negative=True)
    r = Rat(radius)
    pts = []
    for gamma in spec.base_patch.points:
        th = spec.theta[tuple(gamma)]
        if not (0.0 <= float(th) < 1.0):
            raise ThetaOutOfRange(f"theta {th} outside [0,1)")
        room = r * r - sum(Rat(c) ** 2 for c in gamma)
        if room >= 0:
            root = sqrt_upper(room)
            ks = range(math.floor(-root - th), math.ceil(root - th) + 1)
            pts += [(k + th, *gamma) for k in ks if (k + th) ** 2 <= room]
    pts.sort(key=lambda q: tuple(float(c) for c in q))
    return make_patch(pts, float(radius))


@memo
def _second_moment(p: Polytope) -> tuple:
    """M = the integral over P of (x - c)(x - c)^T dx, c the vertex
    centroid, exactly: d rows of Rat.

    The n vertices V / s (Polytope.integer_vertices) are scaled by n s, so
    that c and every vertex are integer rows.  P is the fan of simplices
    from c over its facets, a 3D facet split into triangles along its
    cycle.  A simplex S with edge rows w_1..w_d from c contributes
    |S| (sum w_i w_i^T + (sum w_i)(sum w_i)^T) / ((d + 1)(d + 2)), with
    |S| = |det w| / d!; M sums the integer numerators over one
    (d + 2)! (n s)^(d + 2).
    """
    d = p.dim
    s, V = p.integer_vertices
    n = len(V)
    c = [sum(col) for col in zip(*V)]
    W = [[n * x - t for x, t in zip(v, c)] for v in V]
    acc = [[0] * d for _ in range(d)]
    for f in p.facets:
        first, *rest = f.indices
        for cell in [f.indices] if d < 3 else [(first, a, b) for a, b in zip(rest, rest[1:])]:
            w = [W[i] for i in cell]
            weight = abs(int(det(w)))
            w.append([sum(col) for col in zip(*w)])
            for j, k in itertools.product(range(d), repeat=2):
                acc[j][k] += weight * sum(row[j] * row[k] for row in w)
    scale = math.factorial(d + 2) * (n * s) ** (d + 2)
    return tuple(tuple(Rat(x, scale) for x in row) for row in acc)


def zero_free_radius(p: Polytope) -> float:
    """A certified radius r0: the indicator transform has no zero in the
    open ball |xi| < r0.

    For every c, Re(e^{2 pi i <xi, c>} 1^_P(xi)) is the integral over P of
    cos 2 pi <xi, x - c>, at least |P| - 2 pi^2 xi^T M xi with M the
    second moment about c (_second_moment), since cos t >= 1 - t^2 / 2.
    So there is no zero where |xi|^2 < |P| / (2 pi^2 lambda_max(M)).  Each
    step only shrinks that bound: lambda_max(M) is bounded by the largest
    absolute row sum of M (Gershgorin), pi by 355/113, the root is taken
    from below (linalg.sqrt_lower) and its float rounded toward 0.  Every
    difference of two spectrum points is a zero of the transform
    (Kolountzakis, Illinois J. Math. 2000), so r0 bounds the separation of
    every spectrum of P from below.  An interval of length L has
    r0 = sqrt(6) / (pi L) within those roundings.
    """
    gershgorin = max(sum(map(abs, row)) for row in _second_moment(p))
    exact = sqrt_lower(p.volume / (2 * Rat(355, 113) ** 2 * gershgorin))
    r0 = float(exact)
    return math.nextafter(r0, 0.0) if Rat(r0) > exact else r0
