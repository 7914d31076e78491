"""Arithmetic backends: exact rationals and high-precision phase evaluation.

All geometry in this package is exact rational arithmetic; the only inexact
step anywhere is evaluating trigonometric phases, which is done at a
configurable precision (SPECTILE_PRECISION_BITS, default 128 bits).

Two interchangeable backends provide both layers:

* ``gmpy2`` (GMP rationals + MPFR/MPC floats), used when importable -- it is
  several times faster on the rational hot paths and an order of magnitude
  faster on high-precision trig;
* the stdlib ``fractions.Fraction`` plus ``mpmath``, always available.

Set ``SPECTILE_BACKEND=stdlib`` to force the pure-Python path (used by the
backend benchmark and its tests).  The rest of the package imports ``Rat``
and the helpers below and never touches gmpy2/mpmath directly.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from fractions import Fraction

__all__ = [
    "BACKEND",
    "Rat",
    "rational",
    "rational_from_float",
    "rat_str",
    "frac_part",
    "floor_rat",
    "sqrt_lower",
    "sqrt_upper",
    "precision_bits",
    "phase_context",
    "hp_real",
    "hp_sqrt",
    "hp_complex",
    "hp_pi",
    "cis_neg",
    "sin_pi",
    "to_complex",
    "to_float",
]

_FORCED = os.environ.get("SPECTILE_BACKEND", "auto").lower()

if _FORCED not in ("auto", "gmpy2", "stdlib"):
    raise RuntimeError(f"SPECTILE_BACKEND must be auto, gmpy2 or stdlib, got {_FORCED!r}")

if _FORCED in ("auto", "gmpy2"):
    try:
        import gmpy2
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:
        if _FORCED == "gmpy2":
            raise
        BACKEND = "stdlib"
else:
    BACKEND = "stdlib"

if BACKEND == "stdlib":
    import mpmath

    Rat = Fraction


ZERO = Rat(0)
ONE = Rat(1)


def rational(x) -> "Rat":
    """Coerce ints, rational strings ("p/q", "3", "0.25") and Fractions to Rat.

    Floats are rejected: exact fields never pass through binary floating
    point.  Use rational_from_float for explicit snapping.
    """
    if isinstance(x, float):
        raise TypeError("refusing implicit float->rational conversion; use rational_from_float")
    if isinstance(x, str):
        return Rat(Fraction(x))
    return Rat(x)


def rational_from_float(x: float, max_denominator: int = 10**6) -> "Rat":
    """Snap a float to a nearby rational with bounded denominator."""
    return Rat(Fraction(x).limit_denominator(max_denominator))


def rat_str(q) -> str:
    """Serialize exactly, "p/q" or "p"."""
    return str(q)


def floor_rat(q) -> int:
    return int(q.numerator // q.denominator)


def frac_part(q):
    """q mod 1, exactly, in [0, 1)."""
    return q - (q.numerator // q.denominator)


_SQRT_SHIFT = 64  # fixed-point scale; bound gap is 2^-64 of the denominator unit


def sqrt_lower(q) -> "Rat":
    """Rational lower bound for sqrt(q), q >= 0; gap below 2^-64 / den."""
    if q < 0:
        raise ValueError("negative radicand")
    a, b = int(q.numerator), int(q.denominator)
    return Rat(math.isqrt((a * b) << (2 * _SQRT_SHIFT)), b << _SQRT_SHIFT)


def sqrt_upper(q) -> "Rat":
    """Rational upper bound for sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    a, b = int(q.numerator), int(q.denominator)
    scaled = (a * b) << (2 * _SQRT_SHIFT)
    s = math.isqrt(scaled)
    if s * s == scaled:
        return Rat(s, b << _SQRT_SHIFT)
    return Rat(s + 1, b << _SQRT_SHIFT)


def precision_bits() -> int:
    """Phase-evaluation precision; SPECTILE_PRECISION_BITS, default 128."""
    try:
        bits = int(os.environ.get("SPECTILE_PRECISION_BITS", "128"))
    except ValueError:
        raise RuntimeError("SPECTILE_PRECISION_BITS must be an integer")
    if bits < 53:
        raise RuntimeError("SPECTILE_PRECISION_BITS must be at least 53")
    return bits


# --- high-precision layer -------------------------------------------------
#
# Callers wrap any arithmetic on the values returned here in phase_context;
# both gmpy2 and mpmath tie operator precision to an ambient context.

if BACKEND == "gmpy2":

    @contextmanager
    def phase_context(bits: int | None = None):
        with gmpy2.context(precision=(bits or precision_bits())):
            yield

    def hp_real(q):
        return gmpy2.mpfr(q)

    def hp_sqrt(q):
        return gmpy2.sqrt(gmpy2.mpfr(q))

    def hp_complex(re=0, im=0):
        return gmpy2.mpc(re, im)

    def hp_pi():
        return gmpy2.const_pi()

    def _hp_sincos(x):
        return gmpy2.sin_cos(x)

else:

    @contextmanager
    def phase_context(bits: int | None = None):
        with mpmath.workprec(bits or precision_bits()):
            yield

    def hp_real(q):
        if isinstance(q, Fraction):
            return mpmath.mpf(q.numerator) / q.denominator
        return mpmath.mpf(q)

    def hp_sqrt(q):
        return mpmath.sqrt(hp_real(q))

    def hp_complex(re=0, im=0):
        return mpmath.mpc(re, im)

    def hp_pi():
        return +mpmath.pi

    def _hp_sincos(x):
        return mpmath.sin(x), mpmath.cos(x)


def to_float(x) -> float:
    return float(x)


def to_complex(z) -> complex:
    return complex(z)


def cis_neg(q):
    """e^{-2 pi i q} for rational q, with exact argument reduction mod 1.

    Must be called inside phase_context.  Reducing in exact rationals first
    removes the catastrophic cancellation that plain float 2*pi*q suffers
    for large lattice arguments.
    """
    t = frac_part(q)
    angle = -2 * hp_pi() * hp_real(t)
    s, c = _hp_sincos(angle)
    return hp_complex(c, s)


def sin_pi(q):
    """sin(pi q) for rational q, argument reduced mod 2 exactly."""
    two = Rat(2)
    t = q - two * ((q / two).numerator // (q / two).denominator)
    s, _ = _hp_sincos(hp_pi() * hp_real(t))
    return s
