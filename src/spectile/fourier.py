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
geometry, built from the polytope's integer vertex array: vertices, then
edges (3D), facets and the body, each level combining the values of the
one below.  Each level groups its children into weight classes, those
whose integer m agree up to sign (a zonotope's edges have one class per
generator direction); the walk forms each weight <xi, m> / |m| once per
class, and each child takes the weight or its exact negation.  The walk
has two arithmetics.  Values (ft_indicator, ft_surface, ft_with_boundary,
asymptotic_cone_check) come from _walk_hp at a working precision of 128
bits (precision_bits()); it runs on mpmath's libmp tuples, with the
precision and rounding (to nearest) that mpmath's mpf and mpc objects
would use, so its values are theirs.  One walk evaluates every face: its
facet level is the surface transforms and its body the indicator.  It
divides by -2 pi i |xi_par|^2 with mpc_div's own steps minus the terms of
the divisor's zero real part (_div_imag).  Decisions over many
frequencies (spectrum.verify_orthogonality, decay_bound_check) go
through the float64 batch kernel on integer-scaled frequencies, a
floating-point filter: a frequency whose float64 bound is too coarse to
decide is walked again at working precision, and again at 256, 512 and
1024 bits while its bound stays too coarse.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath.libmp import (
    fzero,
    from_int,
    mpc_mul_mpf,
    mpf_add,
    mpf_cos_sin,
    mpf_div,
    mpf_hypot,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_sqrt,
    to_float,
)
from mpmath.libmp.libmpf import round_fast

from .errors import DimensionMismatch, NotStandardPosition, ZeroFrequency
from .geometry import Polytope, memo
from .linalg import (
    INT64_MAX,
    Rat,
    ZERO,
    clear_denominators,
    cross3,
    idot,
    is_zero_vec,
    norm_sq,
    rational,
    rational_from_float,
    sqrt_lower,
    sqrt_upper,
    vadd,
    vdot,
    vneg,
    vsub,
)

__all__ = [
    "precision_bits",
    "ComplexValue",
    "frequency",
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

# the working precision of every value, in bits
_BITS = 128
# the precisions a decision climbs through, up to a fixed cap
_LADDER = (_BITS, 2 * _BITS, 4 * _BITS, 8 * _BITS)


def precision_bits() -> int:
    """The working precision of transform values, in bits."""
    return _BITS


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


# libmp operations round to nearest, as mpmath's wrappers do by default
_RND = "n"


def _ratio_t(num: int, den: int, prec: int):
    """num / den for integers, den > 0, as a libmp value at prec bits.  The
    fraction is reduced first, so the value does not depend on how it was
    scaled even where its numerator is wider than the precision."""
    g = math.gcd(num, den)
    return mpf_div(from_int(num // g, prec, _RND), from_int(den // g), prec, _RND)


def _ratio(num: int, den: int):
    """_ratio_t at the current working precision."""
    return mpmath.mp.make_mpf(_ratio_t(num, den, mpmath.mp.prec))


def _mpf(q):
    """A Fraction at the current working precision."""
    return _ratio(q.numerator, q.denominator)


def _minus_two_pi(prec: int):
    return mpf_mul_int(mpf_pi(prec, _RND), -2, prec, _RND)


def _phase_t(num: int, mod: int, m2pi, prec: int):
    """e^{-2 pi i num / mod} for integers num and mod > 0 as a libmp pair
    (cos, sin) at prec bits, with m2pi = -2 pi at prec bits; num is reduced
    modulo mod in integers first, so the angle lies in [-2 pi, 0] however
    large the arguments."""
    return mpf_cos_sin(mpf_mul(m2pi, _ratio_t(num % mod, mod, prec), prec, _RND), prec, _RND)


def _phase(num: int, mod: int):
    """_phase_t at the current working precision."""
    prec = mpmath.mp.prec
    return mpmath.mp.make_mpc(_phase_t(num, mod, _minus_two_pi(prec), prec))


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
    * working precision (_phase): t is reduced to [0, 1), so the angle
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
# every parent contiguously, and each face's normal (an edge's direction),
# centroid and exact squared measure.  A child's (unnormalized) relative
# outward normal is m = +-lam * row for the row and lam > 0 of its weight
# class, the row primitive with its first nonzero entry positive: children
# whose m agree up to sign have weights <xi, m> / |m| that agree up to sign,
# so both evaluators form a weight once per class.  A class keeps its row,
# the row's float norm, lam as (numerator, denominator) and |m|^2; a child
# keeps its class and its sign, -1 where m is -lam * row (flip 1 in its
# face's terms).  Points are integer rows over one scale per level.  A
# frequency is a row X over a denominator D, so every phase, weight
# numerator and projects-to-zero test below is an exact integer product.

_UNIT = 2.0**-53  # float64 unit roundoff


def _primitive_rows(vectors):
    """Each nonzero integer vector divided by the gcd of its entries, for
    quantities that depend on its direction only."""
    rows = []
    for v in vectors:
        g = math.gcd(*v)
        rows.append([c // g for c in v])
    return np.array(rows, dtype=object)


def _norms(mat):
    return np.sqrt(np.array([float(idot(row, row)) for row in mat]))


def _least_form(scale, rows):
    """Integer rows standing for rows / scale, over the least common
    denominator of those rationals: what clear_denominators gives for
    them."""
    g = math.gcd(scale, *(c for r in rows for c in r))
    return scale // g, [[c // g for c in r] for r in rows]


def _batch_level(kind, children, scale, normals, centroids, measure_sq):
    """One level: the children (index, m) of every parent as (child, class,
    flip) terms, contiguous so that np.add.reduceat sums them, with each
    integer m standing for m / scale; its weight classes; and each face's
    normal, centroid (scale, integer rows) and squared measure."""
    index, terms = {}, []
    for group in children:
        face = []
        for j, vec in group:
            g = math.gcd(*vec)
            flip = int(next(c for c in vec if c) < 0)
            key = (g, tuple(c // (-g if flip else g) for c in vec))
            face.append((j, index.setdefault(key, len(index)), flip))
        terms.append(face)
    sizes = np.array([len(face) for face in terms])
    child, klass, flip = np.array([t for face in terms for t in face]).T
    rows = np.array([row for _, row in index], dtype=object)
    lv = {
        "child": child,
        "klass": klass,
        "sign": 1.0 - 2.0 * flip,
        "terms": terms,
        "rows": rows,
        "row_norm": _norms(rows),
        "lams": [(g // math.gcd(g, scale), scale // math.gcd(g, scale)) for g, _ in index],
        "m_sq": [Rat(g * g * idot(row, row), scale * scale) for g, row in index],
        "starts": np.concatenate(([0], np.cumsum(sizes)[:-1])),
        # relative rounding of the weights, the products and the sum
        "rho": (sizes + 8) * _UNIT,
        "kind": kind,
        "measure_sq": list(measure_sq),
        "measure": np.sqrt(np.array([float(q) for q in measure_sq])),
    }
    lv["c_scale"], rows = _least_form(*centroids)
    lv["centroid"] = np.array(rows, dtype=object)
    if normals is not None:
        lv["normal"] = _primitive_rows(normals)
        lv["normal_sq"] = np.array([idot(row, row) for row in lv["normal"]], dtype=object)
        lv["normal_norm"] = _norms(lv["normal"])
    return lv


@memo
def _batch_geometry(p: Polytope):
    d, fs = p.dim, p.facets
    v_scale, V = p.integer_vertices
    verts = np.array(V, dtype=object)
    levels = []
    if d >= 2:
        edges = p.faces(1)
        us = [vsub(V[j], V[i]) for i, j in edges]
        children = [((j, u), (i, vneg(u))) for (i, j), u in zip(edges, us)]
        mids = (2 * v_scale, [vadd(V[i], V[j]) for i, j in edges])
        squares = [Rat(idot(u, u), v_scale * v_scale) for u in us]
        levels.append(_batch_level("edge", children, v_scale, us, mids, squares))
    if d == 3:
        edge_index = {e: k for k, e in enumerate(edges)}
        children = []
        for f in fs:
            pairs = zip(f.indices, f.indices[1:] + f.indices[:1])
            children.append(
                [(edge_index[tuple(sorted(e))], cross3(vsub(V[e[1]], V[e[0]]), f.normal)) for e in pairs]
            )
        # facet centroids over v_scale times the lcm of the facet sizes
        count = math.lcm(*(len(f.indices) for f in fs))
        sums = [[sum(V[i][c] for i in f.indices) * (count // len(f.indices)) for c in range(d)] for f in fs]
        measures = [p.face_measure_squared((2, fi)) for fi in range(len(fs))]
        levels.append(_batch_level("facet", children, v_scale, [f.normal for f in fs], (count * v_scale, sums), measures))
    # xi = 0 is the body's flat case, with the volume as its measure
    body = _batch_level("body", [list(enumerate(f.normal for f in fs))], 1, None, (1, [[0] * d]), [p.volume**2])
    body["measure"] = np.array([float(p.volume)])
    levels.append(body)
    faces = levels[:-1]
    ints = [verts] + [lv["rows"] for lv in levels] + [lv[n] for lv in faces for n in ("normal", "centroid")]
    return {
        "verts": verts,
        "v_scale": v_scale,
        "levels": levels,
        # magnitude bounds for _fits_int64
        "l1": max(np.abs(mat).sum(axis=1).max() for mat in ints),
        "scale": max([v_scale] + [lv["c_scale"] for lv in faces]),
        "normal_sq": max([1] + [x for lv in faces for x in lv["normal_sq"]]),
    }


# --- the working-precision level walk ----------------------------------------


@memo
def _hp_roots(p: Polytope, bits: int):
    """-2 pi, and per level the square roots of the face measures (with
    their floats) and of the weight classes' |m|^2, as libmp values at
    `bits` of precision.  Each distinct square is rooted once."""
    roots = {}

    def root(q):
        if q not in roots:
            roots[q] = mpf_sqrt(_ratio_t(q.numerator, q.denominator, bits), bits, _RND)
        return roots[q]

    levels = []
    for lv in _batch_geometry(p)["levels"]:
        measures = [root(q) for q in lv["measure_sq"]]
        levels.append((measures, [to_float(m, rnd=_RND) for m in measures], [root(q) for q in lv["m_sq"]]))
    return {
        "eps": _phase_eps(bits),
        "pi_f": to_float(mpf_pi(bits, _RND), rnd=_RND),
        "m2pi": _minus_two_pi(bits),
        "levels": levels,
    }


def _imag_divisor(d, bits: int):
    """For a nonzero real d, the divisor i d of _div_imag: d and its square
    as mpc_div forms it, at bits + 10 with its default rounding."""
    return d, mpf_mul(d, d, bits + 10, round_fast)


def _div_imag(z, divisor, bits: int):
    """z / (i d) for a complex z and divisor = _imag_divisor(d, bits), bit
    for bit mpc_div(z, (fzero, d), bits, _RND): mpc_div's own steps, with
    the products of its zero real part dropped.  Its numerators b d and
    -a d are rounded at bits + 10 with its default rounding, as d^2 is,
    and the quotients at bits to nearest."""
    (a, b), (d, mag) = z, divisor
    wp = bits + 10
    return (
        mpf_div(mpf_mul(b, d, wp, round_fast), mag, bits, _RND),
        mpf_div(mpf_mul(mpf_neg(a), d, wp, round_fast), mag, bits, _RND),
    )


def _walk_hp(p: Polytope, x, den, bits: int = _BITS):
    """The boundary recursion at xi = x / den, for integers x and a positive
    integer den, at `bits` of working precision.  Returns one list per
    level (the vertices, the edges in 3D, the facets, the body) of (value,
    error bound) for every face, the values as mpmath.mpc.  Arithmetic on
    the values needs a workprec of its own.

    Every operand reaches mpmath as integers: a phase as its numerator
    modulo den * scale, |xi_par|^2 as its integer numerator over
    den^2 |n|^2, and a weight <xi, m> / |m| as lam <x, row> / den over
    sqrt(|m|^2) for the row and lam of its weight class (_batch_level).  A
    weight is formed once per class, and a child takes it or its exact
    negation: rounding to nearest is symmetric, so that is the value the
    child's own division gives.  A child of weight zero is skipped.  The
    error bound of a combination is the children's bounds through the
    weights plus 3 eps per term and 2 eps for the division by
    -2 pi i |xi_par|^2, which _div_imag performs as mpc_div would; faces
    with equal |xi_par|^2 share its divisor.

    The arithmetic is mpmath's own libmp layer on raw (sign, man, exp, bc)
    tuples, one call per operation at `bits` and rounding to nearest, so
    the values are those of the same expressions on mpmath.mpf and
    mpmath.mpc, without their wrapper objects.  Each face keeps the float
    of its magnitude, formed once, for the bounds of its parents; a
    vertex's is 1.0.
    """
    g = _batch_geometry(p)
    x = np.array([int(c) for c in x], dtype=object)
    den = int(den)
    x_sq = int(x @ x)
    # per level: the numerators of |xi_par|^2 over den^2 |n|^2, zero exactly
    # on the flat branch
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
        ints.append((nums, par_dens))

    hp = _hp_roots(p, bits)
    eps, m2pi, two_pi_f = hp["eps"], hp["m2pi"], 2 * hp["pi_f"]
    # per distinct |xi_par|^2 (parallel edges and opposite facets share
    # one): the divisor of _div_imag and the float 2 pi |xi_par|^2
    divisors = {}

    def magnitude(z):
        return to_float(mpf_hypot(*z, bits, _RND), rnd=_RND)

    # a vertex value is a phase, cos and sin each within an ulp at `bits`:
    # its modulus, as mpc_abs rounds it, is 1 within a few 2^-bits, far
    # inside the 2^-54 around 1 that rounds to the float 1.0
    mod = den * g["v_scale"]
    below = [(_phase_t(r, mod, m2pi, bits), eps, 1.0) for r in (g["verts"] @ x).tolist()]
    levels = [below]
    for lv, (measures, measures_f, roots), (nums, par_dens) in zip(g["levels"], hp["levels"], ints):
        # per class: the weight, its negation and the float of |weight|, or
        # None for weight zero
        weights = []
        for c, (num, dnm), w_den in zip((lv["rows"] @ x).tolist(), lv["lams"], roots):
            if c == 0:
                weights.append(None)
                continue
            w = mpf_div(_ratio_t(num * c, dnm * den, bits), w_den, bits, _RND)
            weights.append((w, mpf_neg(w), abs(to_float(w, rnd=_RND))))
        out = []
        for f, terms in enumerate(lv["terms"]):
            if nums[f] == 0:
                phase = _phase_t(int(lv["centroid"][f] @ x), den * lv["c_scale"], m2pi, bits)
                z = mpc_mul_mpf(phase, measures[f], bits, _RND)
                # the phase costs eps, the rounded measure and product far less
                out.append((z, 2 * eps * measures_f[f], magnitude(z)))
                continue
            # the sum of weight * value, as mpc_add of mpc_mul_mpf would form it
            re, im, err = fzero, fzero, 0.0
            for j, k, flip in terms:
                weight = weights[k]
                if weight is None:
                    continue
                (zr, zi), e, mag = below[j]
                w, aw = weight[flip], weight[2]
                re = mpf_add(re, mpf_mul(zr, w, bits, _RND), bits, _RND)
                im = mpf_add(im, mpf_mul(zi, w, bits, _RND), bits, _RND)
                err += aw * e + aw * (mag + 1) * 3 * eps
            key = (nums[f], par_dens[f])
            if key not in divisors:
                s = _ratio_t(*key, bits)
                divisors[key] = (_imag_divisor(mpf_mul(m2pi, s, bits, _RND), bits), two_pi_f * to_float(s, rnd=_RND))
            divisor, scale = divisors[key]
            val = _div_imag((re, im), divisor, bits)
            mag = magnitude(val)
            # an |xi_par|^2 below the normal floats leaves no finite bound
            err = err / scale if scale >= sys.float_info.min else math.inf
            out.append((val, err + (mag + 1) * 2 * eps, mag))
        levels.append(out)
        below = out
    make = mpmath.mp.make_mpc
    return [[(make(z), e) for z, e, _ in level] for level in levels]


def _integer_rows(xis):
    """Rational rows as integer numerators over one denominator per row."""
    nums, dens = [], []
    for xi in xis:
        den, (x,) = clear_denominators([xi])
        nums.append(x)
        dens.append(den)
    return nums, dens


def _walk_at(p: Polytope, xi):
    """_walk_hp at one rational frequency."""
    (x,), (den,) = _integer_rows([xi])
    return _walk_hp(p, x, den)


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


def _fits_float(g, dim: int, x: int, den: int) -> bool:
    """Whether the float64s the kernel forms for one row stay finite: the
    integers of _fits_int64, D times a row's 1-norm and D^2 |n|^2, which
    bounds 1 / |xi_par|^2, are at most 2^500, so that products of two of
    them are too."""
    square = max(dim * x * x, den * den) * g["normal_sq"]
    return max(x * g["l1"], den * g["l1"], 2 * den * g["scale"], square) <= 2**500


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
    # the weights per class, then per child: the int -> float conversion and
    # the division are sign-symmetric and the product with -1.0 is exact, so
    # a flipped child gets what its own division gives, once adding 0.0 has
    # made a flipped zero weight +0.0 again
    w = (x @ lv["rows"].astype(x.dtype).T).astype(float) / (den_f[:, None] * lv["row_norm"])
    w = w[:, lv["klass"]] * lv["sign"] + 0.0
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


def _int_array(a):
    """An integer array as numpy holds it when that is int64, else as exact
    Python ints: numpy reads ints beyond int64 as uint64, or as float64
    when some are negative."""
    arr = np.asarray(a)
    return arr if arr.dtype == np.int64 else np.array(a, dtype=object)


def _indicator_batch(p: Polytope, X, D):
    """float64 values of 1^_P(X[i] / D[i]) and their error bounds, as two
    arrays, for integer rows X and positive integer denominators D.

    A row whose integers are too large for float64 (_fits_float), such as
    a difference of two floats of very different magnitudes, gets the
    enclosure 0 with an infinite bound, which every caller's decision test
    sends to working precision (_indicator_rows_hp).
    """
    g = _batch_geometry(p)
    X = _int_array(X).reshape(-1, p.dim)
    D = _int_array(D)
    val = np.zeros(len(D), dtype=complex)
    err = np.full(len(D), math.inf)
    for lo in range(0, len(D), _CHUNK):
        x, den = X[lo : lo + _CHUNK], D[lo : lo + _CHUNK]
        rows = slice(lo, lo + len(den))
        # exact at INT64_MIN, where np.abs wraps
        if _fits_int64(g, p.dim, max(int(x.max()), -int(x.min())), int(den.max())):
            x, den = x.astype(np.int64), den.astype(np.int64)
        else:
            x, den = x.astype(object), den.astype(object)
            keep = np.flatnonzero([_fits_float(g, p.dim, max(map(abs, r)), d) for r, d in zip(x, den)])
            if not len(keep):
                continue
            rows, x, den = lo + keep, x[keep], den[keep]
        den_f = den.astype(float)
        x_sq = (x * x).sum(axis=1)
        z = _cis(x @ g["verts"].astype(x.dtype).T, (den * g["v_scale"])[:, None])
        e = np.full(z.shape, _phase_eps(53))
        for lv in g["levels"]:
            z, e = _batch_combine(lv, x, den, den_f, x_sq, z, e)
        val[rows] = z[:, 0]
        # the bound's own arithmetic is within 2^-20 relative of exact
        err[rows] = e[:, 0] * (1 + 2.0**-20)
    return val, err


def _indicator_rows_hp(p: Polytope, X, D, val, err, too_coarse) -> int:
    """Settle the rows of a batch result whose bound is too coarse to decide.

    too_coarse(|val|, err) is the caller's decision test, a mask over all
    rows.  The rows it flags are overwritten by their _walk_hp values, and
    those it still flags are walked again at each higher precision of
    _LADDER; past the cap the last result stands.  The walk's bound is a
    multiple of _phase_eps(bits), so a row that even the cap's smaller
    bound would leave too coarse (a tolerance of 0, a value exactly on a
    decision bound) stops climbing at once.  Returns the number of rows
    the float64 bound left too coarse.
    """
    rows = np.flatnonzero(too_coarse(np.abs(val), err))
    fallbacks = len(rows)
    for bits in _LADDER:
        for i in rows:
            z, err[i] = _walk_hp(p, X[i], D[i], bits=bits)[-1][0]
            val[i] = complex(float(z.real), float(z.imag))
        mag = np.abs(val)
        at_cap = err * (_phase_eps(_LADDER[-1]) / _phase_eps(bits))
        rows = rows[(too_coarse(mag, err) & ~too_coarse(mag, at_cap))[rows]]
    return fallbacks


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
    return _complex_value(_walk_at(p, xi)[-1][0])


def ft_surface(p: Polytope, facet: int, xi) -> ComplexValue:
    """Transform of the surface measure of one facet."""
    xi = _check_frequency(p, xi)
    return _complex_value(_walk_at(p, xi)[-2][facet])


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
    *_, facets, body = _walk_at(p, xi)
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
    inequality is never tightened by the square-root bounds.  A sample
    passes when |1^_P(xi)| plus its error bound is within the decay bound.
    All samples go through the float64 batch kernel; a sample whose error
    bound straddles the decay bound climbs the precision ladder, and one
    still undecided at its cap does not pass.
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
    # a sample is decided when |v| + err <= bound or |v| - err > bound
    _indicator_rows_hp(p, X, D, val, err, lambda mag, e: (mag + e > bound) & (mag - e <= bound))
    mag = np.abs(val)
    worst = -1.0
    worst_xi = None
    for xi, m, b, e in zip(xis, mag, bound, err):
        ratio = float(m / b)
        if ratio > worst:
            worst, worst_xi = ratio, xi
        if m + e > b:
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
    with mpmath.workprec(_BITS):
        for raw in xi1_values:
            xi1 = rational(raw) if not isinstance(raw, float) else rational_from_float(raw)
            t = _mpf(xi1)
            # sin(pi xi_1) = -Im e^{-2 pi i xi_1 / 2}
            sin_pi = -_phase(xi1.numerator, 2 * xi1.denominator).imag
            scale_full = alpha_r * abs(xi1)
            etas = [tuple(ZERO for _ in range(dbase))]
            for dvec in eta_dirs:
                for f in (Rat(1, 2), Rat(1)):
                    etas.append(tuple(f * scale_full * c for c in dvec))
            for eta in etas:
                xi = (xi1,) + eta
                body, _ = _walk_at(p, xi)[-1][0]
                if is_zero_vec(eta):
                    base_val = mpmath.mpc(_mpf(sigma.volume), 0)
                else:
                    base_val, _ = _walk_at(sigma, eta)[-1][0]
                r = (+mpmath.pi) * t * body - sin_pi * base_val
                r_abs = float(abs(r))
                samples.append(ConeSample(xi=xi, r_abs=r_abs, r_scaled=r_abs * abs(float(t))))
    max_abs = max(s.r_abs for s in samples)
    max_scaled = max(s.r_scaled for s in samples)
    return ConeReport(alpha=float(alpha), samples=tuple(samples), max_r_abs=max_abs, max_r_scaled=max_scaled)
