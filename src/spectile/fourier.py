"""Fourier transforms of polytope indicators and face surface measures.

The transform of the indicator, normalized as
f^(xi) = integral f(x) exp(-2 pi i <xi, x>) dx, is evaluated by the
boundary recursion: dotting the divergence identity
-2 pi i xi * 1^_P(xi) = sum_F n^_F sigma^_F(xi) with xi gives

    1^_P(xi) = sum_F <n^_F, xi> sigma^_F(xi) / (-2 pi i |xi|^2),

and the surface transform of a k-face either reduces to measure times a
phase when xi projects to zero on the face's direction space, or recurses
over the face's relative boundary the same way.  The projection test is
an exact rational zero test -- the only branch in the algorithm is never
decided by a tolerance.  Phases are reduced modulo 1 exactly and only then
evaluated trigonometrically; the geometry contributes no error at all, and
each value carries an a-posteriori bound for the rounding.

The recursion runs as a level walk over one memoized integer face
geometry: vertices, then edges (3D), facets and the body, each level
combining the values of the one below.  The walk has two arithmetics.
Values (ft_indicator, ft_surface, ft_with_boundary, asymptotic_cone_check)
come from _walk_hp at SPECTILE_PRECISION_BITS working precision (default
128); the facet level is the surface transforms and the body the
indicator.  Decisions over many frequencies (spectrum.verify_orthogonality,
decay_bound_check) go through the float64 batch kernel on integer-scaled
frequencies, a floating-point filter: a frequency whose float64 bound is
too coarse to decide is walked again at working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._backend import (
    Rat,
    ZERO,
    cis_neg,
    hp_complex,
    hp_pi,
    hp_real,
    hp_sqrt,
    phase_context,
    precision_bits,
    rational,
    rational_from_float,
    sin_pi,
    sqrt_lower,
    sqrt_upper,
)
from .errors import DimensionMismatch, NotStandardPosition, ZeroFrequency
from .geometry import Polytope, memo
from .linalg import INT64_MAX, centroid, clear_denominators, cross3, is_zero_vec, norm_sq, primitive, vdot, vneg, vsub

__all__ = [
    "ComplexValue",
    "frequency",
    "frequency_from_floats",
    "ft_indicator",
    "ft_surface",
    "ft_with_boundary",
    "ft_zero",
    "surface_area_upper",
    "decay_bound_check",
    "surface_decay_bound",
    "asymptotic_cone_check",
    "TOL_ZERO",
]

# Calibrated: exact zeros evaluate below 1e-13 of the volume even at the
# minimum precision, while nonzero values at lattice-adjacent points stay
# above 1e-3 of the volume on the catalog (regression-tested).
TOL_ZERO = 1e-10


@dataclass(frozen=True)
class ComplexValue:
    """A transform value: high-precision result rounded to floats plus an
    a-posteriori bound on the phase-evaluation error (geometry is exact)."""

    re: float
    im: float
    err_bound: float

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def frequency(coords) -> tuple:
    """Rational frequency vector; floats are rejected (snap them first)."""
    return tuple(rational(c) for c in coords)


def frequency_from_floats(coords, max_denominator: int = 10**6) -> tuple:
    """Snap a float vector to rationals; for plotting-style callers only."""
    return tuple(rational_from_float(float(c), max_denominator) for c in coords)


def _phase_eps(bits: int) -> float:
    """Bound on |computed cis(-2 pi t) - e^{-2 pi i t}| at `bits` of precision
    for an exactly reduced rational t; it is also a generous per-operation
    rounding unit for the arithmetic around the phases.

    With u = 2^-bits the unit roundoff, and cis 1-Lipschitz in the angle:
    * float64 (_cis): t is reduced to [-1/2, 1/2) in integers, so the angle
      2 pi t lies in [-pi, pi].  Converting t's numerator and denominator
      and dividing cost 3u relative, the rounded 2 pi and the product 2u
      more, so the angle is off by at most 5u * pi < 16u.  numpy documents
      at most 4 ulp for its float64 sin and cos, at most 4u each for values
      in [-1, 1], which adds sqrt(2) * 4u < 6u: 22u in all.
    * working precision (cis_neg): t is reduced to [0, 1), so the angle
      lies in [0, 2 pi].  The conversion of t, the rounded pi and the
      product cost at most 4u relative, 8u * pi < 26u, and mpmath's sin
      and cos are within 1 ulp, sqrt(2) u more: 27u in all.
    Both stay below 2^5 u.
    """
    return 2.0 ** (5 - bits)


# --- the face geometry --------------------------------------------------------
#
# One memoized integer geometry serves both evaluators.  It has the vertices
# and one level per face dimension above them (edges in 3D, the facets, the
# body), each face in Polytope.faces order.  A level lists the children of
# every parent contiguously, each with its (unnormalized) relative outward
# normal m = lam * primitive(m), and each face's normal (an edge's
# direction), centroid and exact squared measure.  Points are integer rows
# over one scale per level.  A frequency is a row X over a denominator D,
# so every phase, weight numerator and projects-to-zero test below is an
# exact integer product.

_UNIT = 2.0**-53  # float64 unit roundoff


def _primitive_rows(vectors):
    """Each vector scaled positively to coprime integers, for quantities
    that depend on its direction only."""
    return np.array([primitive(v) for v in vectors], dtype=object)


def _norms(mat):
    return np.sqrt(np.array([float(sum(c * c for c in row)) for row in mat]))


def _batch_level(kind, children, normals, centroids, measure_sq):
    """One level: the children (index, m) of every parent, contiguous so that
    np.add.reduceat sums them, and each face's normal, centroid and squared
    measure."""
    flat = [c for group in children for c in group]
    m = _primitive_rows([vec for _, vec in flat])
    sizes = np.array([len(group) for group in children])
    lv = {
        "child": np.array([i for i, _ in flat]),
        "m": m,
        "m_norm": _norms(m),
        "m_sq": [norm_sq(vec) for _, vec in flat],
        # the exact scale lam of m = lam * primitive(m)
        "lam": [next(Rat(c) / r for c, r in zip(vec, row) if r) for (_, vec), row in zip(flat, m)],
        "starts": np.concatenate(([0], np.cumsum(sizes)[:-1])),
        "bounds": [0] + np.cumsum(sizes).tolist(),
        # relative rounding of the weights, the products and the sum
        "rho": (sizes + 8) * _UNIT,
        "kind": kind,
        "measure_sq": list(measure_sq),
        "measure": np.sqrt(np.array([float(q) for q in measure_sq])),
    }
    lv["c_scale"], rows = clear_denominators(centroids)
    lv["centroid"] = np.array(rows, dtype=object)
    if normals is not None:
        lv["normal"] = _primitive_rows(normals)
        lv["normal_sq"] = np.array([sum(c * c for c in row) for row in lv["normal"]], dtype=object)
        lv["normal_norm"] = _norms(lv["normal"])
    return lv


@memo
def _batch_geometry(p: Polytope):
    d, V, fs = p.dim, p.vertices, p.facets
    v_scale, rows = clear_denominators(V)
    verts = np.array(rows, dtype=object)
    levels = []
    if d >= 2:
        edges = p.faces(1)
        us = [vsub(V[j], V[i]) for i, j in edges]
        children = [((j, u), (i, vneg(u))) for (i, j), u in zip(edges, us)]
        mids = [centroid((V[i], V[j])) for i, j in edges]
        levels.append(_batch_level("edge", children, us, mids, [norm_sq(u) for u in us]))
    if d == 3:
        edge_index = {e: k for k, e in enumerate(edges)}
        children = []
        for f in fs:
            pairs = zip(f.indices, f.indices[1:] + f.indices[:1])
            children.append(
                [(edge_index[tuple(sorted(e))], cross3(vsub(V[e[1]], V[e[0]]), f.normal)) for e in pairs]
            )
        ids = range(len(fs))
        centroids = [p.facet_centroid(fi) for fi in ids]
        measures = [p.face_measure_squared((2, fi)) for fi in ids]
        levels.append(_batch_level("facet", children, [f.normal for f in fs], centroids, measures))
    # xi = 0 is the body's flat case, with the volume as its measure
    body = _batch_level("body", [list(enumerate(f.normal for f in fs))], None, [(ZERO,) * d], [p.volume**2])
    body["measure"] = np.array([float(p.volume)])
    levels.append(body)
    faces = levels[:-1]
    ints = [verts] + [lv["m"] for lv in levels] + [lv[n] for lv in faces for n in ("normal", "centroid")]
    return {
        "verts": verts,
        "v_scale": v_scale,
        "levels": levels,
        # magnitude bounds for _fits_int64
        "l1": max(sum(abs(c) for c in row) for mat in ints for row in mat),
        "scale": max([v_scale] + [lv["c_scale"] for lv in faces]),
        "normal_sq": max([1] + [x for lv in faces for x in lv["normal_sq"]]),
    }


# --- the working-precision level walk ----------------------------------------


@memo
def _hp_roots(p: Polytope, bits: int):
    """pi, -2 pi i, and per level the square roots of the face measures and
    of the children's |m|^2, at `bits` of precision.  Build under
    phase_context."""
    pi = hp_pi()
    return {
        "eps": _phase_eps(bits),
        "pi_f": float(pi),
        "m2pi_i": hp_complex(0, -2) * pi,
        "levels": [
            ([hp_sqrt(q) for q in lv["measure_sq"]], [hp_sqrt(q) for q in lv["m_sq"]])
            for lv in _batch_geometry(p)["levels"]
        ],
    }


def _walk_hp(p: Polytope, x, den, want=((-1, 0),)):
    """The boundary recursion at xi = x / den, for integers x and a positive
    integer den, at working precision.  Returns one list per level (the
    vertices, the edges in 3D, the facets, the body) of (value, error
    bound) per face.  Only the faces in want, (level, index) pairs with the
    body by default, and the faces they reach are evaluated; the others are
    None.  Call under phase_context.

    Every operand reaches hp_real, hp_sqrt or cis_neg as an exactly reduced
    rational: a phase as its residue modulo den * scale, |xi_par|^2 as its
    integer numerator over den^2 |n|^2, and a weight <xi, m> / |m| as
    lam <x, primitive(m)> / den over sqrt(|m|^2).  A child of weight zero is
    skipped.  The error bound of a combination is the children's bounds
    through the weights plus 3 eps per term and 2 eps for the division.
    """
    g = _batch_geometry(p)
    hp = _hp_roots(p, precision_bits())
    eps = hp["eps"]
    x = np.array([int(c) for c in x], dtype=object)
    den = int(den)
    x_sq = int(x @ x)
    # per level: the weight numerators <x, primitive(m)>, and the numerators
    # of |xi_par|^2 over den^2 |n|^2, zero exactly on the flat branch
    ints = []
    for lv in g["levels"]:
        if lv["kind"] == "body":  # |xi|^2
            nums, par_dens = [x_sq], [den * den]
        else:
            c = (lv["normal"] @ x).tolist()
            n_sq = lv["normal_sq"].tolist()
            par_dens = [den * den * q for q in n_sq]
            if lv["kind"] == "edge":  # <xi, u>^2 / |u|^2
                nums = [ci * ci for ci in c]
            else:  # a facet: |xi|^2 - <xi, n>^2 / |n|^2
                nums = [x_sq * q - ci * ci for ci, q in zip(c, n_sq)]
        ints.append(((lv["m"] @ x).tolist(), lv["child"].tolist(), nums, par_dens))
    # the faces to evaluate, from the top down
    need = [set() for _ in range(len(ints) + 1)]
    for k, f in want:
        need[k].add(f)
    for k, lv in reversed(list(enumerate(g["levels"]))):
        coeffs, child, nums, _ = ints[k]
        for f in need[k + 1]:
            if nums[f]:
                need[k].update(child[j] for j in range(lv["bounds"][f], lv["bounds"][f + 1]) if coeffs[j])
    mod = den * g["v_scale"]
    phases = (g["verts"] @ x).tolist()
    below = [(cis_neg(Rat(r % mod, mod)), eps) if i in need[0] else None for i, r in enumerate(phases)]
    levels = [below]
    for lv, (measures, wdens), (coeffs, child, nums, par_dens), faces in zip(
        g["levels"], hp["levels"], ints, need[1:]
    ):
        out = [None] * len(nums)
        for f in faces:
            if nums[f] == 0:
                cmod = den * lv["c_scale"]
                phase = int(lv["centroid"][f] @ x) % cmod
                # the phase costs eps, the rounded measure and product far less
                out[f] = (measures[f] * cis_neg(Rat(phase, cmod)), 2 * eps * float(measures[f]))
                continue
            acc, err = hp_complex(0, 0), 0.0
            for j in range(lv["bounds"][f], lv["bounds"][f + 1]):
                if coeffs[j] == 0:
                    continue
                lam = lv["lam"][j]
                w = hp_real(Rat(lam.numerator * coeffs[j], lam.denominator * den)) / wdens[j]
                z, e = below[child[j]]
                acc = acc + w * z
                aw = abs(float(w))
                err += aw * e + aw * (float(abs(z)) + 1) * 3 * eps
            s = hp_real(Rat(nums[f], par_dens[f]))
            val = acc / (hp["m2pi_i"] * s)
            out[f] = (val, err / (2 * hp["pi_f"] * float(s)) + (float(abs(val)) + 1) * 2 * eps)
        levels.append(out)
        below = out
    return levels


def _integer_rows(xis):
    """Rational rows as integer numerators over one denominator per row."""
    nums, dens = [], []
    for xi in xis:
        den, (x,) = clear_denominators([xi])
        nums.append(x)
        dens.append(den)
    return nums, dens


def _walk_at(p: Polytope, xi, want=((-1, 0),)):
    """_walk_hp at one rational frequency.  Call under phase_context."""
    (x,), (den,) = _integer_rows([xi])
    return _walk_hp(p, x, den, want)


# --- the float64 batch kernel ------------------------------------------------
#
# The same walk for many frequencies at once, in float64 with an
# a-posteriori bound per row.  Row i is the frequency X[i] / D[i].  Phases
# are reduced modulo their denominator in integers, the facet quantity
# |xi|^2 |n|^2 - <xi, n>^2 is formed before any rounding, and every
# projects-to-zero branch is an integer zero test, so floats never see a
# cancelled difference of large numbers.  The integers are int64 when a
# magnitude bound rules out overflow and Python ints otherwise, with
# identical results.  Rows go _CHUNK at a time, so memory stays
# O(_CHUNK x faces).  Callers recompute rows whose bound is too coarse for
# their decision with _indicator_rows_hp.

_CHUNK = 256
# share of tol * volume above which a row's float64 bound is too coarse to
# decide zero-set membership, and the row goes to working precision
FALLBACK_FRACTION = 2.0**-10


def _fits_int64(g, dim: int, x_max: int, d_max: int) -> bool:
    """Whether every integer the kernel forms fits in int64: the products
    <X, row> (at most x_max times the row's 1-norm), twice a phase modulus
    D * scale, and |X|^2 |n|^2, which bounds <X, n>^2 as well."""
    largest = max(x_max * g["l1"], 2 * d_max * g["scale"], dim * x_max * x_max * g["normal_sq"])
    return largest <= INT64_MAX


def _cis(num, mod):
    """e^{-2 pi i num / mod} for integer arrays; num is reduced modulo the
    positive mod to [-mod/2, mod/2) in integers, so _phase_eps(53) bounds
    the error."""
    r = num % mod
    r = np.where(2 * r >= mod, r - mod, r)
    angle = (2 * np.pi) * (r.astype(float) / mod.astype(float))
    z = np.empty(angle.shape, dtype=complex)
    z.real = np.cos(angle)
    z.imag = -np.sin(angle)
    return z


def _batch_combine(lv, x, den, den_f, x_sq, z, e):
    """One level of _walk_hp for every row and every parent, given the
    children's values z and error bounds e."""
    w = (x @ lv["m"].astype(x.dtype).T).astype(float) / (den_f[:, None] * lv["m_norm"])
    zc, ec = z[:, lv["child"]], e[:, lv["child"]]
    aw = np.abs(w)
    acc = np.add.reduceat(w * zc, lv["starts"], axis=1)
    # |computed acc - exact acc|: the children's errors through the weights,
    # plus the rounding of weights, products and sum relative to the terms
    spread = np.add.reduceat(aw * ec, lv["starts"], axis=1) + lv["rho"] * np.add.reduceat(
        aw * (np.abs(zc) + ec), lv["starts"], axis=1
    )
    den_sq = den_f * den_f
    if lv["kind"] == "body":  # |xi|^2
        flat = (x_sq == 0)[:, None]
        s = (x_sq.astype(float) / den_sq)[:, None]
    else:
        c = x @ lv["normal"].astype(x.dtype).T
        if lv["kind"] == "edge":  # |xi_par|^2 = <xi, u>^2 / |u|^2
            flat = c == 0
            s = (c.astype(float) / (den_f[:, None] * lv["normal_norm"])) ** 2
        else:  # a facet: |xi|^2 - <xi, n>^2 / |n|^2, numerator exact
            num = x_sq[:, None] * lv["normal_sq"].astype(x.dtype) - c * c
            flat = num == 0
            s = num.astype(float) / (den_sq[:, None] * lv["normal_sq"].astype(float))
    with np.errstate(divide="ignore"):
        k = 1.0 / ((2 * np.pi) * s)
    k[flat] = 0.0
    # acc / (-2 pi i s) = i acc k; s (at most 12u off for an edge), k and
    # the product stay within 16u relative, which rho2 covers
    rho2 = 24 * _UNIT
    val = 1j * acc * k
    err = k * (spread * (1 + rho2) + rho2 * np.abs(acc))
    if flat.any():
        rows, faces = np.nonzero(flat)
        phase = (x[rows] * lv["centroid"].astype(x.dtype)[faces]).sum(axis=1)
        measure = lv["measure"][faces]
        val[rows, faces] = measure * _cis(phase, den[rows] * lv["c_scale"])
        # as in _walk_hp: the measure's rounding is far below eps
        err[rows, faces] = 2 * _phase_eps(53) * measure
    return val, err


def _indicator_batch(p: Polytope, X, D):
    """float64 values of 1^_P(X[i] / D[i]) and their error bounds, as two
    arrays, for integer rows X and positive integer denominators D."""
    g = _batch_geometry(p)
    X = np.array(X, dtype=object).reshape(-1, p.dim)
    D = np.array(D, dtype=object)
    val = np.empty(len(D), dtype=complex)
    err = np.empty(len(D))
    for lo in range(0, len(D), _CHUNK):
        x, den = X[lo : lo + _CHUNK], D[lo : lo + _CHUNK]
        if _fits_int64(g, p.dim, max(abs(c) for c in x.flat), max(den)):
            x, den = x.astype(np.int64), den.astype(np.int64)
        den_f = den.astype(float)
        x_sq = (x * x).sum(axis=1)
        z = _cis(x @ g["verts"].astype(x.dtype).T, (den * g["v_scale"])[:, None])
        e = np.full(z.shape, _phase_eps(53))
        for lv in g["levels"]:
            z, e = _batch_combine(lv, x, den, den_f, x_sq, z, e)
        val[lo : lo + _CHUNK] = z[:, 0]
        # the bound's own arithmetic is within 2^-20 relative of exact
        err[lo : lo + _CHUNK] = e[:, 0] * (1 + 2.0**-20)
    return val, err


def _indicator_rows_hp(p: Polytope, X, D, rows, val, err):
    """Overwrite the given rows of a batch result by their _walk_hp values."""
    with phase_context():
        for i in rows:
            z, err[i] = _walk_hp(p, X[i], D[i])[-1][0]
            val[i] = complex(float(z.real), float(z.imag))


def _check_frequency(p: Polytope, xi) -> tuple:
    xi = tuple(rational(c) for c in xi)
    if len(xi) != p.dim:
        raise DimensionMismatch("frequency dimension differs from polytope dimension")
    return xi


def _complex_value(face) -> ComplexValue:
    z, err = face
    return ComplexValue(float(z.real), float(z.imag), err)


def ft_indicator(p: Polytope, xi) -> ComplexValue:
    """Exact-recursion transform of the indicator; volume at xi = 0."""
    xi = _check_frequency(p, xi)
    if is_zero_vec(xi):
        return ComplexValue(float(p.volume), 0.0, 0.0)
    with phase_context():
        return _complex_value(_walk_at(p, xi)[-1][0])


def ft_surface(p: Polytope, facet: int, xi) -> ComplexValue:
    """Transform of the surface measure of one facet."""
    xi = _check_frequency(p, xi)
    with phase_context():
        return _complex_value(_walk_at(p, xi, [(-2, facet)])[-2][facet])


def ft_with_boundary(p: Polytope, xi):
    """(indicator transform, per-facet surface transforms) in one pass.

    The facet values satisfy the divergence identity
    -2 pi i xi * 1^_P(xi) = sum_F unit(n_F) sigma^_F(xi) componentwise;
    they are the facet level of the same walk that gives the indicator,
    so the bundle costs no more than the indicator alone.
    """
    xi = _check_frequency(p, xi)
    if is_zero_vec(xi):
        raise ZeroFrequency("boundary identity is stated for nonzero frequencies")
    with phase_context():
        *_, facets, body = _walk_at(p, xi, [(-1, 0)] + [(-2, fi) for fi in range(len(p.facets))])
        return _complex_value(body[0]), tuple(_complex_value(f) for f in facets)


def ft_zero(p: Polytope, xi, tol: float = TOL_ZERO) -> bool:
    """Whether xi lies in the zero set, to tol * volume."""
    xi = _check_frequency(p, xi)
    if is_zero_vec(xi):
        raise ZeroFrequency("the origin is never in the zero set")
    return ft_indicator(p, xi).magnitude <= tol * float(p.volume)


# --- decay bounds -----------------------------------------------------------


def surface_area_upper(p: Polytope):
    """Rational upper bound for the total (d-1)-measure of the boundary."""
    k = p.dim - 1
    total = ZERO
    if k == 0:
        return Rat(2)
    for fi in range(len(p.facets)):
        total += sqrt_upper(p.face_measure_squared((k, fi)))
    return total


# 333/106 < pi < 355/113
_PI_LB = Rat(333, 106)


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    checked: int
    worst_ratio: float
    worst_xi: tuple | None


def decay_bound_check(p: Polytope, samples) -> DecayReport:
    """|1^_P(xi)| <= (|boundary| / 2 pi) |xi|^{-1} at every sample.

    The boundary measure is rounded up and |xi| down, so the verified
    inequality is never tightened by the square-root bounds.  All samples
    go through the float64 batch kernel; a sample whose error bound
    straddles the decay bound is evaluated again at working precision.
    """
    xis = []
    for raw in samples:
        xi = _check_frequency(p, raw)
        if is_zero_vec(xi):
            raise ZeroFrequency("decay bound applies to nonzero frequencies")
        xis.append(xi)
    area_ub = surface_area_upper(p)
    bound = np.array([float(area_ub / (2 * _PI_LB * sqrt_lower(norm_sq(xi)))) for xi in xis])
    X, D = _integer_rows(xis)
    val, err = _indicator_batch(p, X, D)
    mag = np.abs(val)
    # float64 decides a sample when |v| + err <= bound or |v| - err > bound
    _indicator_rows_hp(p, X, D, np.flatnonzero((mag + err > bound) & (mag - err <= bound)), val, err)
    mag = np.abs(val)
    worst = -1.0
    worst_xi = None
    for xi, m, b, e in zip(xis, mag, bound, err):
        ratio = float(m / b)
        if ratio > worst:
            worst, worst_xi = ratio, xi
        if m > b + e:
            return DecayReport(False, len(xis), ratio, xi)
    return DecayReport(True, len(xis), worst, worst_xi)


def surface_decay_bound(p: Polytope, facet: int, xi) -> float:
    """Generous upper bound (|rel boundary of F| / 2 pi) |xi|^{-1} / |sin angle(xi, n_F)|."""
    xi = _check_frequency(p, xi)
    if is_zero_vec(xi):
        raise ZeroFrequency("bound applies to nonzero frequencies")
    f = p.facets[facet]
    n = f.normal
    dot = vdot(xi, n)
    sin_sq = 1 - dot * dot / (norm_sq(xi) * norm_sq(n))
    if sin_sq == 0:
        return math.inf
    if p.dim == 3:
        cyc = f.indices
        perim = ZERO
        for k in range(len(cyc)):
            a = p.vertices[cyc[k]]
            b = p.vertices[cyc[(k + 1) % len(cyc)]]
            perim += sqrt_upper(norm_sq(vsub(b, a)))
    else:
        perim = Rat(2)  # relative boundary of a segment: two points
    denom_lb = 2 * _PI_LB * sqrt_lower(norm_sq(xi)) * sqrt_lower(Rat(sin_sq))
    return float(perim / denom_lb)


# --- the cone asymptotics -----------------------------------------------------


@dataclass(frozen=True)
class ConeSample:
    xi: tuple
    r_abs: float
    r_scaled: float  # |r(xi)| * |xi_1|


@dataclass(frozen=True)
class ConeReport:
    alpha: float
    samples: tuple
    max_r_abs: float
    max_r_scaled: float


def _require_standard_position(p: Polytope, sigma: Polytope):
    if sigma.dim != p.dim - 1:
        raise NotStandardPosition("base must have codimension one")
    vs = set(p.vertices)
    if {vneg(v) for v in vs} != vs:
        raise NotStandardPosition("polytope is not symmetric about the origin")
    e1 = tuple([1] + [0] * (p.dim - 1))
    half = Rat(1, 2)
    target = None
    for fi, f in enumerate(p.facets):
        if f.normal == e1 and f.offset == half:
            target = fi
            break
    if target is None:
        raise NotStandardPosition("no facet in the plane {x_1 = 1/2} with outward normal e_1")
    shadow = {v[1:] for v in p.facet_points(target)}
    if shadow != set(sigma.vertices):
        raise NotStandardPosition("facet at x_1 = 1/2 does not project onto the given base")
    return target


def asymptotic_cone_check(p: Polytope, sigma: Polytope, alpha: float, xi1_values, eta_dirs=None) -> ConeReport:
    """Residual of the facet asymptotics in the cone |xi_j| <= alpha |xi_1|.

    For each sample, r(xi) = pi xi_1 1^_P(xi) - sin(pi xi_1) 1^_Sigma(xi_2..)
    is evaluated at working precision; the report carries |r| and the
    scaled residual |r| |xi_1|, whose boundedness over a growing ladder is
    the checkable content.  For a prism the residual vanishes identically.
    """
    _require_standard_position(p, sigma)
    alpha_r = rational_from_float(float(alpha), 1000)
    dbase = p.dim - 1
    if eta_dirs is None:
        dirs = []
        for j in range(dbase):
            e = [0] * dbase
            e[j] = 1
            dirs.append(tuple(e))
        if dbase >= 2:
            dirs.append(tuple([1] * dbase))
            dirs.append(tuple([1] + [-1] * (dbase - 1)))
        eta_dirs = tuple(dirs)
    samples = []
    with phase_context():
        for raw in xi1_values:
            xi1 = rational(raw) if not isinstance(raw, float) else rational_from_float(raw)
            scale_full = alpha_r * abs(xi1)
            etas = [tuple(ZERO for _ in range(dbase))]
            for dvec in eta_dirs:
                for f in (Rat(1, 2), Rat(1)):
                    etas.append(tuple(f * scale_full * c for c in dvec))
            for eta in etas:
                xi = (xi1,) + eta
                body, _ = _walk_at(p, xi)[-1][0]
                if is_zero_vec(eta):
                    base_val = hp_complex(hp_real(sigma.volume), 0)
                else:
                    base_val, _ = _walk_at(sigma, eta)[-1][0]
                r = hp_pi() * hp_real(xi1) * body - sin_pi(xi1) * base_val
                r_abs = float(abs(r))
                samples.append(ConeSample(xi=xi, r_abs=r_abs, r_scaled=r_abs * abs(float(hp_real(xi1)))))
    max_abs = max(s.r_abs for s in samples)
    max_scaled = max(s.r_scaled for s in samples)
    return ConeReport(alpha=float(alpha), samples=tuple(samples), max_r_abs=max_abs, max_r_scaled=max_scaled)
