"""Exact rational vectors, small matrices, and integer lattice normal forms.

All geometry in this package is exact.  Rationals are the stdlib
``fractions.Fraction``, exported as ``Rat``; vectors are plain tuples of
Rat and matrices tuples of row tuples.  Where the data is integer once a
common denominator is cleared (clear_denominators), the work runs in
Python ints instead: a polytope's metric quantities come from its one
integer vertex array (Polytope.integer_vertices), and lattices from
integer rows.  Sizes are at most 3x3 for geometry, but the routines are
written generically -- the Hermite normal form in particular sees n x d
generator matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub

Rat = Fraction

ZERO = Rat(0)

Vec = tuple
Mat = tuple

# the largest int64; integer arrays stay int64 only while their values
# provably fit under it, and hold Python ints otherwise
INT64_MAX = 2**63 - 1


def rational(x) -> Rat:
    """Coerce ints, rational strings ("p/q", "3", "0.25") and Fractions to Rat.

    Floats are rejected: exact fields never pass through binary floating
    point.  Use rational_from_float for explicit snapping.
    """
    if isinstance(x, float):
        raise TypeError("refusing implicit float->rational conversion; use rational_from_float")
    return Rat(x)


def rational_from_float(x: float, max_denominator: int = 10**6) -> Rat:
    """Snap a float to a nearby rational with bounded denominator."""
    return Rat(x).limit_denominator(max_denominator)


_SQRT_SHIFT = 64  # fixed-point scale; bound gap is 2^-64 of the denominator unit


def sqrt_lower(q) -> Rat:
    """Rational lower bound for sqrt(q), q >= 0; gap below 2^-64 / den."""
    if q < 0:
        raise ValueError("negative radicand")
    a, b = q.numerator, q.denominator
    return Rat(math.isqrt((a * b) << (2 * _SQRT_SHIFT)), b << _SQRT_SHIFT)


def sqrt_upper(q) -> Rat:
    """Rational upper bound for sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    a, b = q.numerator, q.denominator
    scaled = (a * b) << (2 * _SQRT_SHIFT)
    s = math.isqrt(scaled)
    if s * s == scaled:
        return Rat(s, b << _SQRT_SHIFT)
    return Rat(s + 1, b << _SQRT_SHIFT)


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(map(add, a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(map(sub, a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(a: Vec, s) -> Vec:
    return tuple(x * s for x in a)


def vdot(a: Vec, b: Vec):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def idot(a: Vec, b: Vec) -> int:
    """<a, b> for integer vectors, kept in Python ints."""
    return sum(map(mul, a, b))


def norm_sq(a: Vec):
    return vdot(a, a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def cross3(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def cross2(a: Vec, b: Vec):
    """z-component of the 2D cross product."""
    return a[0] * b[1] - a[1] * b[0]


def centroid(points) -> Vec:
    pts = list(points)
    n = Rat(len(pts))
    acc = pts[0]
    for p in pts[1:]:
        acc = vadd(acc, p)
    return tuple(c / n for c in acc)


def _ratio_of(c) -> tuple:
    """(numerator, denominator) of one exact entry: a float or a Fraction
    by its ratio, anything else through numerator and denominator."""
    if isinstance(c, (float, Fraction)):
        return c.as_integer_ratio()
    return int(c.numerator), int(c.denominator)


def integer_ratios(entries) -> list:
    """(numerator, denominator) of each entry of a list (clear_denominators)."""
    try:
        return [c.as_integer_ratio() for c in entries]
    except AttributeError:  # a numpy int
        return [_ratio_of(c) for c in entries]


def clear_denominators(rows) -> tuple:
    """(den, ints): rational rows as Python-int rows over the lcm of all
    their denominators, rows[i][j] == ints[i][j] / den exactly.  Rows may
    differ in length.  A float is read as its binary rational (ValueError
    for NaN, OverflowError for an infinity), anything else through
    numerator and denominator, so numpy ints work too.

    One pass reads every entry's ratio (integer_ratios), and the lcm is
    taken over the distinct denominators."""
    pairs = [integer_ratios(r) for r in rows]
    den = math.lcm(*{b for r in pairs for _, b in r})
    return den, [[a * (den // b) for a, b in r] for r in pairs]


def primitive(v: Vec, canonical_sign: bool = False) -> tuple:
    """Scale a nonzero rational vector to a primitive integer vector.

    With canonical_sign the first nonzero entry is made positive, which is
    the right form for dictionary keys; without it the geometric sign is
    preserved (outward normals).
    """
    if is_zero_vec(v):
        raise ValueError("zero vector has no direction")
    _, (ints,) = clear_denominators([v])
    g = math.gcd(*ints)
    ints = [x // g for x in ints]
    if canonical_sign:
        for x in ints:
            if x != 0:
                if x < 0:
                    ints = [-y for y in ints]
                break
    return tuple(ints)


# --- small dense matrices --------------------------------------------------


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(vdot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m))


def det(m: Mat):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return vdot(m[0], cross3(m[1], m[2]))
    raise ValueError("determinant implemented for n <= 3")


def solve(m: Mat, b: Vec) -> Vec | None:
    """Solve m x = b exactly; None when m is singular.

    Entries are coerced with rational(), so integer input is solved in
    exact rationals rather than by float division; floats are refused.
    """
    n = len(m)
    aug = [[rational(x) for x in row] + [rational(b[i])] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def _exact_rows(rows) -> list:
    """rows with every entry coerced as rational() does, ints and Rats as they are."""
    return [[x if isinstance(x, (int, Rat)) else rational(x) for x in r] for r in rows]


def adjugate_rows(b) -> tuple:
    """(det, C) for a square integer matrix b of size <= 3 (as det): the
    rows C_j of its transposed adjugate, <b_i, C_j> = det [i == j].  A
    smaller b is padded with an identity block, which changes neither."""
    n = len(b)
    if n > 3:
        raise ValueError("determinant implemented for n <= 3")
    m = [tuple(r) + (0,) * (3 - n) for r in b] + [tuple(int(i == k) for i in range(3)) for k in range(n, 3)]
    c = (cross3(m[1], m[2]), cross3(m[2], m[0]), cross3(m[0], m[1]))
    return idot(m[0], c[0]), [r[:n] for r in c[:n]]


def inverse(m: Mat) -> Mat:
    """Exact inverse of a rational matrix of size <= 3, entries coerced as
    rational() does; ValueError when singular.  With m cleared once to
    integer rows B / den, it is den adj(B) / det(B), from Python ints."""
    den, b = clear_denominators(_exact_rows(m))
    d, c = adjugate_rows(b)
    if d == 0:
        raise ValueError("singular matrix")
    return tuple(tuple(Rat(den * x, d) for x in col) for col in zip(*c))


def rank(rows) -> int:
    """Rank of a list of rational row vectors, entries coerced as rational()
    does: the length of the Hermite normal form (hnf) of the rows cleared
    once to integer rows, in Python ints alone."""
    return len(hnf(clear_denominators(_exact_rows(rows))[1]))


def affine_rank(points) -> int:
    pts = list(points)
    if len(pts) <= 1:
        return 0
    return rank([vsub(p, pts[0]) for p in pts[1:]])


# --- Hermite normal form ---------------------------------------------------


def hnf(rows) -> tuple:
    """Row-style Hermite normal form of an integer matrix.

    Input rows generate a subgroup of Z^d; the output is the unique echelon
    basis of that group: pivots positive, entries above each pivot reduced
    into [0, pivot), zero rows dropped.  Plain integer arithmetic throughout.
    """
    work = [list(int(x) for x in r) for r in rows if any(x != 0 for x in r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis: list[list[int]] = []
    row_idx = 0
    for col in range(ncols):
        # gcd-reduce all rows below row_idx in this column into one pivot row
        while True:
            nz = [i for i in range(row_idx, len(work)) if work[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(work[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = work[i][col] // work[i0][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[i0])]
        nz = [i for i in range(row_idx, len(work)) if work[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        work[row_idx], work[i0] = work[i0], work[row_idx]
        if work[row_idx][col] < 0:
            work[row_idx] = [-a for a in work[row_idx]]
        # reduce the entries above the pivot into [0, pivot)
        p = work[row_idx][col]
        for i in range(row_idx):
            q = work[i][col] // p
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[row_idx])]
        row_idx += 1
    basis = [r for r in work[:row_idx] if any(x != 0 for x in r)]
    return tuple(tuple(r) for r in basis)


def hnf_rational(generators) -> tuple:
    """HNF basis of the group generated by rational vectors.

    Clears denominators by their lcm D, runs the integer HNF, and scales
    back by 1/D; the result is the canonical basis of the same group.
    """
    return rat_hnf(*clear_denominators(generators))


def rat_hnf(den: int, rows) -> tuple:
    """hnf_rational of the integer rows over den, for any common denominator."""
    return tuple(tuple(Rat(x, den) for x in row) for row in hnf(rows))


def angular_sort(items, plane_vectors) -> list:
    """Sort items whose key is a nonzero 2D rational vector by angle.

    plane_vectors maps item -> (u, v) coordinates.  Exact: quadrant split
    first, cross-product comparison within a half-plane.  Starting ray is
    the positive u-axis, counterclockwise.
    """

    def half(p):
        # 0 for angle in [0, pi), 1 for [pi, 2 pi)
        if p[1] > 0 or (p[1] == 0 and p[0] > 0):
            return 0
        return 1

    import functools

    def cmp(a, b):
        pa, pb = plane_vectors[a], plane_vectors[b]
        ha, hb = half(pa), half(pb)
        if ha != hb:
            return -1 if ha < hb else 1
        c = cross2(pa, pb)
        if c > 0:
            return -1
        if c < 0:
            return 1
        return 0

    return sorted(items, key=functools.cmp_to_key(cmp))
