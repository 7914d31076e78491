"""The working-precision level walk of the boundary recursion.

_walk_hp evaluates every face of a polytope at one rational frequency, at
128 bits (fourier.precision_bits()) or at a rung of fourier._LADDER.  It
runs on mpmath's libmp tuples, with the precision and rounding (to
nearest) that mpmath's mpf and mpc objects would use, so its values are
theirs.  It walks the integer face geometry of fourier._batch_geometry,
the same levels and weight classes as the float64 batch kernel there.

This is the only spectile module that imports mpmath when it is loaded.
fourier and oracle import it inside the functions that compute a
working-precision value, so a command that evaluates none (spectrum,
classify, and analyze or verify when no row climbs the precision ladder)
never loads mpmath.
"""

from __future__ import annotations

import math
import sys

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

from .fourier import _BITS, _batch_geometry, _integer_rows, _phase_eps
from .geometry import Polytope, memo


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
    sqrt(|m|^2) for the row and lam of its weight class
    (fourier._batch_level).  A weight is formed once per class, and a
    child takes it or its exact negation: rounding to nearest is
    symmetric, so that is the value the child's own division gives.  A
    child of weight zero is skipped.  The error bound of a combination is
    the children's bounds through the weights plus 3 eps per term and
    2 eps for the division by -2 pi i |xi_par|^2, which _div_imag performs
    as mpc_div would; faces with equal |xi_par|^2 share its divisor.

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


def _walk_at(p: Polytope, xi):
    """_walk_hp at one rational frequency."""
    (x,), (den,) = _integer_rows([xi])
    return _walk_hp(p, x, den)

