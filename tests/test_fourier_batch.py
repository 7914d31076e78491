"""The float64 batch kernel: agreement with the working-precision recursion
and the simplex oracle within its own bounds, the cancellation branch and
its fallback, the int64/object-int paths, and the certified reports."""

import hashlib
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectile import Rat, make, zonotope
from spectile import fourier
from spectile.fourier import (
    FALLBACK_FRACTION,
    TOL_ZERO,
    _batch_geometry,
    _cis,
    _fits_int64,
    _indicator_batch,
    _indicator_rows_hp,
    _integer_rows,
    _phase,
    _phase_eps,
    _walk_at,
)
from spectile.linalg import cross3, vsub
from spectile.oracle import simplex_ft
from spectile.spectrum import decide_spectral, make_patch, patch, verify_orthogonality

from conftest import random_frequency, random_generators, random_zonotope

rationals = st.builds(Rat, st.integers(-40, 40), st.integers(1, 12))


def _hp(p, xi):
    z, e = _walk_at(p, xi)[-1][0]
    return complex(z), e


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=8))
def test_batch_matches_hp_and_simplex_oracle(seed, raw):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    p = zonotope(random_generators(rng, rng.randint(dim, dim + 2), dim))
    xis = [tuple(r[:dim]) for r in raw if any(r[:dim])]
    if not xis:
        return
    X, D = _integer_rows(xis)
    val, err = _indicator_batch(p, X, D)
    for xi, v, e in zip(xis, val, err):
        h, h_err = _hp(p, xi)
        assert abs(v - h) <= e + h_err
        o = simplex_ft(p, xi)
        assert abs(v - o.as_complex()) <= max(1e-9 * abs(v), 1e-12)


def test_phase_allowance_at_both_precisions():
    # large reduced phases, against a 300-bit reference
    rng = random.Random(5)
    nums = [rng.randrange(-(10**15), 10**15) for _ in range(200)]
    mods = [rng.randrange(1, 10**12) for _ in range(200)]
    z = _cis(np.array(nums, dtype=object), np.array(mods, dtype=object))
    for n, m, got in zip(nums, mods, z):
        with mpmath.workprec(300):
            ref = complex(mpmath.expjpi(-2 * mpmath.mpf(n) / m))
        assert abs(got - ref) <= _phase_eps(53)
        with mpmath.workprec(53):
            hp53 = complex(_phase(n, m))
        assert abs(hp53 - ref) <= _phase_eps(53)


@pytest.mark.parametrize("k", range(3, 13))
def test_near_degenerate_frequencies_take_the_fallback(k):
    # xi perpendicular to an edge plus 10^-k along it: the edge projects to
    # a tiny nonzero <xi, u>, whose cancellation the bound must show
    p = make("hexagonal-prism")
    i, j = p.faces(1)[0]
    u = vsub(p.vertices[j], p.vertices[i])
    base = cross3(u, (Rat(1, 3), Rat(2, 7), Rat(5, 11)))
    xi = tuple(b + Rat(1, 10**k) * c for b, c in zip(base, u))
    X, D = _integer_rows([xi, base])
    val, err = _indicator_batch(p, X, D)
    h, h_err = _hp(p, xi)
    assert abs(val[0] - h) <= err[0] + h_err
    # the exactly perpendicular frequency takes the flat branch instead
    assert err[1] < err[0]
    limit = TOL_ZERO * float(p.volume)
    if k >= 6:
        assert err[0] > FALLBACK_FRACTION * limit
    rows = np.flatnonzero(err > FALLBACK_FRACTION * limit)
    _indicator_rows_hp(p, X, D, val, err, lambda mag, e: e > FALLBACK_FRACTION * limit)
    for i in rows:
        ref, ref_err = _hp(p, (xi, base)[i])
        assert val[i] == ref and err[i] == ref_err


def test_object_ints_match_int64_bit_for_bit(monkeypatch):
    p = make("truncated-octahedron")
    rng = random.Random(9)
    xis = [tuple(Rat(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3)) for _ in range(300)]
    X, D = _integer_rows([xi for xi in xis if any(xi)])
    g = _batch_geometry(p)
    assert _fits_int64(g, 3, max(abs(c) for row in X for c in row), max(D))
    fast = _indicator_batch(p, X, D)
    monkeypatch.setattr(fourier, "_fits_int64", lambda *args: False)
    slow = _indicator_batch(p, X, D)
    assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])


def test_coordinates_near_two_to_the_62_use_python_ints():
    p = make("cube")
    big = 2**62 - 57
    X = [(big, 3 * big + 1, -big), (big - 2, 5, 7)]
    D = [big + 11, 2**61 + 1]
    g = _batch_geometry(p)
    assert not _fits_int64(g, 3, big * 3 + 1, max(D))
    val, err = _indicator_batch(p, X, D)
    for x, den, v, e in zip(X, D, val, err):
        h, h_err = _hp(p, tuple(Rat(c, den) for c in x))
        assert abs(v - h) <= e + h_err


def test_rows_beyond_float_range_go_to_working_precision():
    # float64 cannot hold D^2 for D = 10^200 or 2^1074 (a subnormal's
    # denominator): such rows get 0 with an infinite bound, and the ladder
    # gives them their working-precision values
    p = make("hexagon")
    xis = [(Rat(1, 10**200), Rat(0)), (Rat(1, 3), Rat(5, 2**1074)), (Rat(1, 3), Rat(1, 7))]
    X, D = _integer_rows(xis)
    val, err = _indicator_batch(p, X, D)
    assert list(err[:2]) == [math.inf] * 2 and list(val[:2]) == [0, 0] and err[2] < 1e-12
    _indicator_rows_hp(p, X, D, val, err, lambda mag, e: e > FALLBACK_FRACTION * TOL_ZERO)
    for xi, v, e in zip(xis, val, err):
        assert (v, e) == _hp(p, xi) or xi == xis[2]


# the benchmark's analyze radii: the README default 5 where it is fast, the
# smallest 1/8 step with a passing density window elsewhere
BENCH_RADII = {
    "square": 5.0,
    "hexagon": 5.0,
    "cube": 5.0,
    "hexagonal-prism": 2.0,
    "rhombic-dodecahedron": 1.25,
    "elongated-dodecahedron": 1.125,
    "truncated-octahedron": 1.25,
}


def _kernel_pin_inputs():
    """Batches for the kernel pin: the differences of the benchmark's seven
    patches, a seeded zonotope's decay samples, rows of Python ints beyond
    int64 (one beyond float64 range), and int64 rows at its extremes."""
    for name in sorted(BENCH_RADII):
        p = make(name)
        den, U = patch(decide_spectral(p).spectrum, BENCH_RADII[name])._differences
        yield "bench patches", p, U, [den] * len(U)
    rng = random.Random(29)
    p = random_zonotope(rng, 6, 3)
    yield "zonotope decay samples", p, *_integer_rows([random_frequency(rng, 3) for _ in range(1000)])
    X = [[rng.randint(-(2**70), 2**70) >> rng.randrange(0, 72) for _ in range(3)] for _ in range(600)]
    D = [rng.randint(1, 2**66) >> rng.randrange(0, 66) or 1 for _ in range(600)]
    X += [[-(2**63), 5, 7], [2**63, -1, 0], [2**62 - 57, 3 * 2**62, -(2**62)], [1, 2, 3]]
    D += [3, 2**63 + 1, 2**61 + 1, 10**200]
    yield "rows beyond int64", make("truncated-octahedron"), X, D
    # ints in [2^63, 2^64) beside negative ones, which numpy reads as float64
    yield "rows beyond int64", make("cube"), [[2**63, -1, 0], [3, -4, 5]], [7, 2**63 + 3]
    # int64 arrays at its extremes: INT64_MIN's magnitude does not fit
    cube = make("cube")
    yield "int64 extremes", cube, np.array([[-(2**63), 5, 7], [4, -9, 2]]), np.array([3, 7])
    yield "int64 extremes", cube, np.array([[2**63 - 1, -3, 1]]), np.array([2**62 + 1])


# sha256 of val.tobytes() + err.tobytes() per batch, recorded before the
# kernel's weights were grouped by class: each value and bound is pinned
# bit for bit, not only the maxima that reach the reports
_KERNEL_SHA256 = {
    "bench patches": "11e604a3f1deab0bd8309617ed16b5c8ccea625a884def6819ee2f1654416bbf",
    "zonotope decay samples": "a81549c26cddbf1e8863865704c7866d47827bca2ba3198cbfde18e048c57296",
    "rows beyond int64": "ed670a7492e1f9e7eec8de244dd775e779c9c97c4c296c555bef8b8e5028f9f6",
    "int64 extremes": "30fcbc39d1104d6d1499f53f8053106f57c75ebdc3f8ec0788a6a73e822a4843",
}


def test_float64_kernel_values_and_bounds_pinned():
    digests = {}
    for key, p, X, D in _kernel_pin_inputs():
        val, err = _indicator_batch(p, X, D)
        digests.setdefault(key, hashlib.sha256()).update(val.tobytes() + err.tobytes())
    assert {key: h.hexdigest() for key, h in digests.items()} == _KERNEL_SHA256


@pytest.mark.parametrize("name", sorted(BENCH_RADII))
def test_catalog_orthogonality_certified_without_fallbacks(name):
    p = make(name)
    rep = verify_orthogonality(p, patch(decide_spectral(p).spectrum, BENCH_RADII[name]))
    assert rep.passed and rep.fallbacks == 0
    assert rep.max_residual + rep.max_err_bound <= TOL_ZERO * float(p.volume)


def test_orthogonality_counts_fallbacks(cube):
    # x-component 1 puts the difference in the zero set; the tiny
    # y-component makes the float64 bound too coarse to say so
    sp = make_patch([(0, 0, 0), (1, Rat(1, 10**12), 0)], 1.0)
    rep = verify_orthogonality(cube, sp)
    assert rep.fallbacks == 1 and rep.passed
    assert rep.max_err_bound < 1e-20


def test_orthogonality_climbs_past_128_bits(truncated_octahedron):
    # a snapped difference of an irrationally shifted dual patch: at 128 bits
    # it reads 1.05e-7 with a bound of 4.7e-5, far above the tolerance, and
    # the walk at 256 bits certifies it
    d = (Rat(1, 2), Rat(-50000000000000003, 10**17), Rat(-50000000000000003, 10**17))
    rep = verify_orthogonality(truncated_octahedron, make_patch([(0, 0, 0), d], 1.0))
    assert rep.passed and rep.fallbacks == 1
    assert rep.max_err_bound <= FALLBACK_FRACTION * TOL_ZERO * float(truncated_octahedron.volume)


def test_float_patch_difference_rounding_to_zero_fails(cube):
    # a nonzero float difference that snaps to 0 evaluates to the volume
    sp = make_patch([(0.0, 0.0, 0.0), (1e-12, 0.0, 0.0)], 1.0)
    rep = verify_orthogonality(cube, sp)
    assert not rep.passed and rep.max_residual == 1.0


def test_decay_check_sends_straddling_samples_to_working_precision(monkeypatch, truncated_octahedron):
    rng = random.Random(3)
    samples = [tuple(Rat(rng.randint(-8, 8), rng.randint(1, 7)) for _ in range(3)) for _ in range(40)]
    samples = [xi for xi in samples if any(xi)]
    fast = fourier.decay_bound_check(truncated_octahedron, samples)
    batch = fourier._indicator_batch

    def coarse(p, X, D):  # a bound that straddles every decay bound
        val, err = batch(p, X, D)
        return val, err + 10.0

    monkeypatch.setattr(fourier, "_indicator_batch", coarse)
    slow = fourier.decay_bound_check(truncated_octahedron, samples)
    assert fast.passed and slow.passed and fast.worst_xi == slow.worst_xi
    assert math.isclose(fast.worst_ratio, slow.worst_ratio, rel_tol=1e-12)
    assert fourier.decay_bound_check(truncated_octahedron, []).passed


def test_decay_check_undecided_at_the_cap_does_not_pass(monkeypatch, truncated_octahedron):
    # bounds that straddle the decay bound at every precision: the sample
    # climbs the whole ladder and, still undecided at the cap, does not pass
    samples = [(Rat(1, 3), Rat(1, 5), Rat(2, 7))]
    assert fourier.decay_bound_check(truncated_octahedron, samples).passed
    batch, walk = fourier._indicator_batch, fourier._walk_hp
    seen = []

    def coarse_batch(p, X, D):
        val, err = batch(p, X, D)
        return val, err + 1e3

    def coarse_walk(p, x, den, bits):
        seen.append(bits)
        levels = walk(p, x, den, bits=bits)
        z, e = levels[-1][0]
        levels[-1][0] = (z, e + 1e3)
        return levels

    monkeypatch.setattr(fourier, "_indicator_batch", coarse_batch)
    monkeypatch.setattr(fourier, "_walk_hp", coarse_walk)
    assert not fourier.decay_bound_check(truncated_octahedron, samples).passed
    assert seen == [128, 256, 512, 1024]


def test_orthogonality_at_tolerance_zero_stays_at_128_bits(monkeypatch, cube):
    # no precision certifies a tolerance of 0, so no row climbs the ladder
    walk, seen = fourier._walk_hp, []

    def counted(p, x, den, bits):
        seen.append(bits)
        return walk(p, x, den, bits=bits)

    monkeypatch.setattr(fourier, "_walk_hp", counted)
    rep = verify_orthogonality(cube, patch(decide_spectral(cube).spectrum, 2.0), tol=0.0)
    assert not rep.passed and rep.fallbacks == len(seen) > 0
    assert set(seen) == {128}
