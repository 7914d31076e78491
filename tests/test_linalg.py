import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import Rat
from spectile.linalg import (
    affine_rank,
    angular_sort,
    clear_denominators,
    cross3,
    det,
    hnf,
    hnf_rational,
    inverse,
    primitive,
    rank,
    rational,
    rational_from_float,
    solve,
    sqrt_lower,
    sqrt_upper,
    transpose,
    vdot,
)

from conftest import gram_det


def test_rational_parsing():
    assert rational("3/4") == Rat(3, 4)
    assert rational("0.25") == Rat(1, 4)
    assert rational(7) == Rat(7)
    assert rational("-2/6") == Rat(-1, 3)
    with pytest.raises(TypeError):
        rational(0.5)


def test_rational_from_float_snaps():
    assert rational_from_float(0.5) == Rat(1, 2)
    assert abs(float(rational_from_float(math.pi)) - math.pi) < 1e-11


def test_rat_str_roundtrip():
    for q in (Rat(3, 4), Rat(-7, 2), Rat(5), Rat(0)):
        assert rational(str(q)) == q


@pytest.mark.parametrize("q", [Rat(2), Rat(9, 4), Rat(1, 3), Rat(10**12, 7)])
def test_sqrt_bounds(q):
    lo, hi = sqrt_lower(q), sqrt_upper(q)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Rat(1, q.denominator * 2**60)


def test_sqrt_exact_square():
    assert sqrt_lower(Rat(9, 4)) == sqrt_upper(Rat(9, 4)) == Rat(3, 2)


def mat_mul(a, b):
    return tuple(tuple(vdot(row, col) for col in transpose(b)) for row in a)


def test_solve_and_inverse():
    m = ((Rat(2), Rat(1)), (Rat(1), Rat(3)))
    x = solve(m, (Rat(5), Rat(10)))
    assert x == (Rat(1), Rat(3))
    assert mat_mul(m, inverse(m)) == ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
    assert solve(((Rat(1), Rat(2)), (Rat(2), Rat(4))), (Rat(1), Rat(1))) is None


def test_det_cross():
    assert det(((Rat(1), Rat(2)), (Rat(3), Rat(4)))) == -2
    assert cross3((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    m = ((Rat(1), Rat(2), Rat(3)), (Rat(0), Rat(1), Rat(4)), (Rat(5), Rat(6), Rat(0)))
    assert det(m) == 1


def test_rank_affine_rank():
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_rank([(0, 0, 0), (1, 1, 1), (2, 2, 2)]) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.builds(Rat, st.integers(-50, 50), st.integers(1, 40)), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_clear_denominators_is_the_lcm(rows):
    den, ints = clear_denominators(rows)
    assert den == math.lcm(*(c.denominator for r in rows for c in r))
    assert all(type(x) is int for r in ints for x in r)
    assert [[Rat(x, den) for x in r] for r in ints] == rows


_entries = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.builds(Rat, st.integers(-(2**70), 2**70), st.integers(1, 10**6)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1e308, -1e308]),
)


@settings(max_examples=80, deadline=None)
@example([[np.int64(2**62), Rat(1, 3)]])  # a numpy int times the lcm leaves int64
@example([[5e-324, -0.0, 1e308], [Rat(1, 3), 7, np.int64(-5)]])
@given(st.lists(st.lists(_entries, min_size=1, max_size=3), min_size=1, max_size=5))
def test_clear_denominators_reads_every_entry_exactly(rows):
    ref = [[Fraction(int(c)) if isinstance(c, np.integer) else Fraction(c) for c in r] for r in rows]
    den, ints = clear_denominators(rows)
    assert den == math.lcm(*(c.denominator for r in ref for c in r))
    assert all(type(x) is int for r in ints for x in r)
    assert [[Fraction(x, den) for x in r] for r in ints] == ref


def test_clear_denominators_rejects_non_finite_floats():
    with pytest.raises(ValueError):
        clear_denominators([[Rat(1, 3), math.nan]])
    for bad in (math.inf, -math.inf):
        with pytest.raises(OverflowError):
            clear_denominators([[0.5], [bad]])


def test_primitive():
    assert primitive((Rat(2, 3), Rat(-4, 3))) == (1, -2)
    assert primitive((Rat(-2), Rat(4)), canonical_sign=True) == (1, -2)
    assert primitive((Rat(0), Rat(-5), Rat(10)), canonical_sign=True) == (0, 1, -2)
    with pytest.raises(ValueError):
        primitive((Rat(0), Rat(0)))


def test_hnf_known_values():
    # the hexagon's three facet translations
    assert hnf([(1, 1), (1, -2), (2, -1)]) == ((1, 1), (0, 3))
    assert hnf([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 2), (2, 2, -2), (2, -2, 2)]) == (
        (2, 2, 2),
        (0, 4, 0),
        (0, 0, 4),
    )
    # rank-deficient input keeps only independent rows
    assert hnf([(1, 2), (2, 4)]) == ((1, 2),)


def test_hnf_rational_scaling():
    basis = hnf_rational([(Rat(1, 3), Rat(2, 3)), (Rat(0), Rat(1))])
    assert basis == ((Rat(1, 3), Rat(2, 3)), (Rat(0), Rat(1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
@example(seed=1310)  # singular rows [[3,4,2],[-2,-6,2],[0,-2,2]]: rank must be 2
def test_hnf_matches_sympy_oracle(seed):
    # independent integer-linear-algebra oracle for the normal form
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(rng.randint(3, 5))]
    if rank(rows) < 3:
        return
    ours = hnf(rows)
    # sympy's HNF is column-style on the transpose; transpose back and
    # canonicalize row order/sign to compare lattices via double inclusion
    theirs = hermite_normal_form(Matrix(rows).T).T.tolist()

    def in_lattice(basis, v):
        rows = tuple(tuple(Rat(int(c)) for c in row) for row in basis)
        x = solve(transpose(rows), tuple(Rat(int(c)) for c in v))
        return x is not None and all(c.denominator == 1 for c in x)

    assert len(ours) == len(theirs) == 3
    for v in theirs:
        assert in_lattice(ours, v)
    for v in ours:
        assert in_lattice(theirs, v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hnf_invariant_under_unimodular_mixing(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
    if rank(rows) < 3:
        return
    mixed = list(rows)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        f = rng.randint(-3, 3)
        mixed[i] = [a + f * b for a, b in zip(mixed[i], mixed[j])]
    assert hnf(rows) == hnf(mixed + rows)


def test_gram_det_square_area():
    # area^2 of the unit square cell spanned in 3D
    assert gram_det([(1, 0, 0), (0, 1, 0)]) == 1
    assert gram_det([(1, 1, 0), (0, 1, 1)]) == 3


def test_angular_sort_circle():
    pts = {
        "e": (Rat(1), Rat(0)),
        "ne": (Rat(1), Rat(1)),
        "n": (Rat(0), Rat(1)),
        "w": (Rat(-2), Rat(0)),
        "s": (Rat(0), Rat(-3)),
        "se": (Rat(2), Rat(-2)),
    }
    order = angular_sort(list(pts), pts)
    assert order == ["e", "ne", "n", "w", "s", "se"]
