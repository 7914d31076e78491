"""Exact rationals and high-precision phase evaluation.

All geometry in this package is exact rational arithmetic on the stdlib
``fractions.Fraction`` (exported as ``Rat``); the only inexact step anywhere
is evaluating trigonometric phases, which mpmath does at a configurable
precision (SPECTILE_PRECISION_BITS, default 128 bits).  The rest of the
package imports the helpers below and never touches mpmath directly.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from fractions import Fraction

import mpmath

__all__ = [
    "BACKEND",
    "Rat",
    "rational",
    "rational_from_float",
    "frac_part",
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
]

# the arithmetic named in every report's tool block
BACKEND = "stdlib"

Rat = Fraction

ZERO = Rat(0)


def rational(x) -> "Rat":
    """Coerce ints, rational strings ("p/q", "3", "0.25") and Fractions to Rat.

    Floats are rejected: exact fields never pass through binary floating
    point.  Use rational_from_float for explicit snapping.
    """
    if isinstance(x, float):
        raise TypeError("refusing implicit float->rational conversion; use rational_from_float")
    return Rat(x)


def rational_from_float(x: float, max_denominator: int = 10**6) -> "Rat":
    """Snap a float to a nearby rational with bounded denominator."""
    return Rat(x).limit_denominator(max_denominator)


def frac_part(q):
    """q mod 1, exactly, in [0, 1)."""
    return q - (q.numerator // q.denominator)


_SQRT_SHIFT = 64  # fixed-point scale; bound gap is 2^-64 of the denominator unit


def sqrt_lower(q) -> "Rat":
    """Rational lower bound for sqrt(q), q >= 0; gap below 2^-64 / den."""
    if q < 0:
        raise ValueError("negative radicand")
    a, b = q.numerator, q.denominator
    return Rat(math.isqrt((a * b) << (2 * _SQRT_SHIFT)), b << _SQRT_SHIFT)


def sqrt_upper(q) -> "Rat":
    """Rational upper bound for sqrt(q), q >= 0."""
    if q < 0:
        raise ValueError("negative radicand")
    a, b = q.numerator, q.denominator
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
# mpmath ties operator precision to an ambient context.


@contextmanager
def phase_context(bits: int | None = None):
    with mpmath.workprec(bits or precision_bits()):
        yield


def hp_real(q):
    # mpmath.mpf refuses a Fraction
    if isinstance(q, Fraction):
        return mpmath.mpf(q.numerator) / q.denominator
    return mpmath.mpf(q)


def hp_sqrt(q):
    return mpmath.sqrt(hp_real(q))


def hp_complex(re=0, im=0):
    return mpmath.mpc(re, im)


def hp_pi():
    return +mpmath.pi


def cis_neg(q):
    """e^{-2 pi i q} for rational q, with exact argument reduction mod 1.

    Must be called inside phase_context.  Reducing in exact rationals first
    removes the catastrophic cancellation that plain float 2*pi*q suffers
    for large lattice arguments.
    """
    angle = -2 * hp_pi() * hp_real(frac_part(q))
    return mpmath.mpc(mpmath.cos(angle), mpmath.sin(angle))


def sin_pi(q):
    """sin(pi q) for rational q, argument reduced mod 2 exactly."""
    half = q / Rat(2)
    t = q - 2 * (half.numerator // half.denominator)
    return mpmath.sin(hp_pi() * hp_real(t))
