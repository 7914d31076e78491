import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectile import AffineMap, Rat, make, spectrum
from spectile.catalog import prism
from spectile.errors import (
    PreconditionFailed,
    PrismExcluded,
    ThetaOutOfRange,
    UnsupportedDimension,
    WindowTooSmall,
)
from spectile.linalg import clear_denominators, det, inverse
from spectile.spectrum import (
    PrismSpectrumSpec,
    SpectrumPatch,
    _separation,
    chi_estimate,
    condition_C2_check,
    decide_spectral,
    dual_lattice,
    make_patch,
    patch,
    prism_spectrum,
    uniqueness_check,
    verify_density,
    verify_orthogonality,
)
from spectile.symmetry import tau_vectors
from spectile.tiling import Lattice, lattice_T


def test_dual_lattice_examples(hexagon):
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert dual_lattice(z3) == z3
    lt = lattice_T(hexagon)
    dual = dual_lattice(lt)
    assert dual.covolume == Rat(1, 3)
    # every dual point pairs integrally with every lattice vector
    for v in dual.points_in_ball(Rat(4)):
        for b in lt.basis:
            val = sum(x * y for x, y in zip(v, b))
            assert val.denominator == 1
    diag = Lattice.from_generators([(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert dual_lattice(diag) == Lattice.from_generators([(Rat(1, 2), 0, 0), (0, 1, 0), (0, 0, 1)])


def test_decide_spectral(triangle, hexagon, rhombic_icosahedron, interval):
    assert not decide_spectral(triangle).is_spectral
    assert decide_spectral(triangle).reason == "not-centrally-symmetric"
    v = decide_spectral(hexagon)
    assert v.is_spectral and v.spectrum is not None
    v = decide_spectral(rhombic_icosahedron)
    assert not v.is_spectral and v.reason == "belt-length-8"
    with pytest.raises(UnsupportedDimension):
        decide_spectral(interval)


def test_patch_counts(hexagon):
    z2 = Lattice.from_generators([(1, 0), (0, 1)])
    assert len(patch(z2, 1.5)) == 9
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(patch(z3, 1.0)) == 7
    # regression: the hexagon's dual patch at R=10 (density 3 per unit area)
    dual = dual_lattice(lattice_T(hexagon))
    assert len(patch(dual, 10.0)) == 949


def test_orthogonality_cube(cube):
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    sp = patch(z3, 3.0)
    rep = verify_orthogonality(cube, sp)
    assert rep.passed and rep.max_residual <= 1e-12


def test_orthogonality_detects_bad_point(cube):
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    pts = list(patch(z3, 2.0).points)
    pts += [tuple(c + s for c, s in zip(q, (Rat(1, 4), 0, 0))) for q in pts]
    sp = make_patch(sorted(set(pts)), 2.3)
    rep = verify_orthogonality(cube, sp)
    assert not rep.passed
    assert rep.worst_difference is not None


def _brute_differences(points):
    """Every q_j - q_i (i < j), d and -d counted once as the one with its
    first nonzero coordinate positive."""
    out = set()
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            d = tuple(y - x for x, y in zip(a, b))
            if next((c for c in d if c != 0), 0) < 0:
                d = tuple(-c for c in d)
            out.add(d)
    return out


def _rat_rows(sp):
    """The difference set of an exact patch as a set of Rat tuples."""
    den, rows = sp._differences
    return {tuple(Rat(int(c), den) for c in row) for row in rows}


def _sign_normalized(rows) -> bool:
    """Whether every nonzero row has its first nonzero coordinate positive."""
    return all(next((c for c in row if c != 0), 1) > 0 for row in rows.tolist())


def _exact(points):
    """The points with every coordinate a Fraction, floats converted exactly."""
    return [tuple(Fraction(c) for c in q) for q in points]


def _float_rows(points):
    """The points as float64 rows, float(c) for each coordinate c."""
    return np.array([[float(c) for c in q] for q in points], dtype=float)


def _brute_c2(points, taus):
    """Largest distance of <q_j - q_i, tau> to an integer over every pair,
    in Fraction arithmetic; float points and taus are converted exactly."""
    worst = 0.0
    points, taus = _exact(points), _exact(taus)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            d = [y - x for x, y in zip(a, b)]
            for t in taus:
                v = sum(x * c for x, c in zip(d, t))
                fr = v - math.floor(v)
                worst = max(worst, float(min(fr, 1 - fr)))
    return worst


fractions = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 7, 12]))
# offsets that send integer rows down the three paths: one-number codes,
# int64 rows sorted with lexsort, and Python-int rows (magnitudes near 2^62)
offsets = st.sampled_from([0, 2**40, 2**62])
floats = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.25]), st.floats(-8, 8, allow_nan=False))


@st.composite
def exact_patches(draw):
    d = draw(st.sampled_from([2, 3]))
    offset = draw(offsets)
    pts = draw(st.lists(st.tuples(*[fractions] * d), max_size=9))
    shift = [offset * (k + 1) for k in range(d)] if offset else [0] * d
    # distinct offsets per column give int64 rows no one-number code
    if offset == 2**40 and pts:
        pts[0] = tuple(c + offset * (k + 1) for k, c in enumerate(pts[0]))
        shift = [0] * d
    return [tuple(Rat(c + s) for c, s in zip(q, shift)) for q in pts], d


@settings(max_examples=40, deadline=None)
@example(  # int64 points whose products with the taus overflow int64
    patch_and_dim=([(Rat(0), Rat(0)), (Rat(2**61), Rat(1)), (Rat(7 - 2**61), Rat(3))], 2),
    tau_rows=[[Fraction(5, 3), Fraction(1, 7), Fraction(0)]],
    tau_type=Rat,
)
@given(
    exact_patches(),
    st.lists(st.lists(fractions, min_size=3, max_size=3), max_size=3),
    st.sampled_from([Rat, float]),
)
def test_difference_set_and_c2_match_brute_force_exact(patch_and_dim, tau_rows, tau_type):
    pts, d = patch_and_dim
    sp = SpectrumPatch(points=tuple(pts), window_radius=1.0, separation=0.0)
    den, rows = sp._differences
    brute = _brute_differences(pts)
    assert _rat_rows(sp) == brute and len(rows) == len(brute)
    assert [tuple(r) for r in rows.tolist()] == sorted(tuple(r) for r in rows.tolist())
    assert _sign_normalized(rows)
    # Python ints exactly when twice the cleared magnitudes overflow int64
    den = math.lcm(*(c.denominator for q in pts for c in q))
    big = max((abs(c) * den for q in pts for c in q), default=0)
    assert (sp._coords[1].dtype == object) == (2 * big >= 2**63)
    taus = [tuple(tau_type(c) for c in t[:d]) for t in tau_rows]
    rep = condition_C2_check(sp, taus)
    assert rep.max_distance_to_integer == _brute_c2(pts, taus)
    assert rep.passed == (rep.max_distance_to_integer <= rep.tolerance)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(lambda d: st.lists(st.tuples(*[floats] * d), max_size=9)),
    st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_difference_set_and_c2_match_brute_force_float(pts, tau_rows):
    # a float patch is its exact binary rationals: -0.0 and 0.0 are one point
    sp = SpectrumPatch(points=tuple(pts), window_radius=1.0, separation=0.0)
    den, rows = sp._differences
    brute = _brute_differences(_exact(pts))
    assert _rat_rows(sp) == brute and len(rows) == len(brute)
    assert _sign_normalized(rows)
    if pts and pts[0]:
        d = len(pts[0])
        taus = [tuple(Rat(c) for c in t[:d]) for t in tau_rows]
        rep = condition_C2_check(sp, taus)
        assert rep.max_distance_to_integer == _brute_c2(pts, taus)


float_patches = st.sampled_from([2, 3]).flatmap(
    lambda d: st.tuples(st.lists(st.tuples(*[floats] * d), max_size=9), st.just(d))
)


@settings(max_examples=30, deadline=None)
@given(st.one_of(exact_patches(), float_patches), st.randoms(use_true_random=False))
def test_difference_set_independent_of_point_order(patch_and_dim, rnd):
    # one set per patch, whatever the order of its points (duplicates kept)
    pts, _ = patch_and_dim
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    brute = _brute_differences(_exact(pts))
    forms = []
    for q in (pts, shuffled, shuffled[::-1]):
        sp = SpectrumPatch(points=tuple(q), window_radius=1.0, separation=0.0)
        assert _rat_rows(sp) == brute
        den, rows = sp._differences
        forms.append((den, rows.dtype, rows.tolist()))
    assert forms[0] == forms[1] == forms[2]


def test_reports_independent_of_point_order(hexagon):
    # a lattice patch, a copy with one point moved off the lattice and an
    # irrationally shifted float copy: shuffling the points changes nothing
    taus = [t.tau for t in tau_vectors(hexagon)]
    base = list(patch(dual_lattice(lattice_T(hexagon)), 3.0).points)
    moved = list(base)
    moved[5] = (moved[5][0] + Rat(1, 4), moved[5][1])
    shift = (math.sqrt(2) / 7, math.sqrt(3) / 9)
    shifted = [tuple(float(c) + s for c, s in zip(q, shift)) for q in base]
    rnd = random.Random(11)
    passed = []
    for pts in (base, moved, shifted):
        shuffled = list(pts)
        rnd.shuffle(shuffled)
        reports = []
        for q in (sorted(pts), shuffled):
            sp = make_patch(q, 3.5)
            reports.append((verify_orthogonality(hexagon, sp), condition_C2_check(sp, taus)))
        assert reports[0] == reports[1]
        passed.append((reports[0][0].passed, reports[0][1].passed))
    assert passed == [(True, True), (False, False), (True, True)]


_HEXAGON_PATCH = patch(dual_lattice(lattice_T(make("hexagon"))), 2.0)


@st.composite
def hexagon_float_patches(draw):
    """Float points in the plane: a few drawn ones, or the hexagon's dual
    patch at radius 2 shifted by a drawn vector, with one point perhaps
    moved."""
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(floats, floats), max_size=9))
    shift = draw(st.tuples(floats, floats))
    pts = [tuple(float(c) + s for c, s in zip(q, shift)) for q in _HEXAGON_PATCH.points]
    i, move = draw(st.integers(0, len(pts) - 1)), draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.1]))
    pts[i] = (pts[i][0] + move, pts[i][1])
    return pts


@settings(max_examples=25, deadline=None)
@example(pts=[(0.0, 0.0), (5e-324, 1.0), (1.0, 1e-300)])  # denominators past float range
@given(hexagon_float_patches())
def test_float_patch_checks_equal_its_exact_conversion(hexagon, pts):
    # one arithmetic: the floats and their Fraction values give one result
    taus = [t.tau for t in tau_vectors(hexagon)]
    results = []
    for q in (pts, _exact(pts)):
        sp = make_patch(q, 2.5)
        orth = verify_orthogonality(hexagon, sp) if len(sp) else None
        uniq = uniqueness_check(hexagon, sp) if len(sp) else None
        results.append((repr(condition_C2_check(sp, taus)), repr(orth), uniq, sp.separation))
    assert results[0] == results[1]


def test_analyze_walks_the_pairs_once(monkeypatch):
    # orthogonality forms the difference set once; C2 on the exact patch
    # reads per-point residues and walks no pairs
    from spectile.report import analyze

    walks = []
    pair_blocks = spectrum._pair_blocks

    def counted(a):
        walks.append(len(a))
        return pair_blocks(a)

    monkeypatch.setattr(spectrum, "_pair_blocks", counted)
    for name in ("hexagon", "truncated-octahedron"):
        walks.clear()
        rep = analyze(make(name), radius=2.0)
        assert rep["verification"]["c2_integrality"]["passed"]
        assert walks == [rep["verification"]["patch"]["count"]]


def _brute_gap(r, m):
    """Largest min(x - y mod m, y - x mod m) over every pair of r."""
    return max(min((x - y) % m, (y - x) % m) for x in r for y in r)


@settings(max_examples=200, deadline=None)
@example(([0], 1))
@example(([1, 4, 0], 5))  # residues on both sides of 0
@example(([3, 1, 2], 4))  # two residues exactly m/2 apart
@example(([0, 13, 15], 21))  # odd m
@example(([2, 2, 2], 9))  # a single residue class
@example(([0, 2**62 + 1], 2**63 - 1))  # int64 residues near the top
@given(st.integers(1, 40).flatmap(lambda m: st.tuples(st.lists(st.integers(0, m - 1), min_size=1, max_size=12), st.just(m))))
def test_widest_gap_matches_every_pair(case):
    r, m = case
    for dtype in (np.int64, object):
        assert spectrum._widest_gap(np.array(r, dtype=dtype), m) == _brute_gap(r, m)


@settings(max_examples=60, deadline=None)
@example(  # residues 0, 1, 4 mod 5: both sides of 0
    patch_and_dim=([(Rat(0), Rat(0)), (Rat(1, 5), Rat(0)), (Rat(-1, 5), Rat(0))], 2),
    tau_rows=[[Fraction(1), Fraction(0), Fraction(0)]],
)
@example(  # residues 0, 2, 1 mod 4: two of them m/2 apart
    patch_and_dim=([(Rat(0), Rat(0)), (Rat(1, 2), Rat(0)), (Rat(1, 4), Rat(1))], 2),
    tau_rows=[[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]],
)
@example(  # residues 0, 13, 15 mod 21: odd m
    patch_and_dim=([(Rat(0), Rat(0)), (Rat(2, 7), Rat(1)), (Rat(5, 7), Rat(3))], 2),
    tau_rows=[[Fraction(1), Fraction(1, 3), Fraction(0)]],
)
@example(  # every point in residue class 1 mod 3
    patch_and_dim=([(Rat(1, 3), Rat(0)), (Rat(4, 3), Rat(0)), (Rat(1, 3), Rat(5))], 2),
    tau_rows=[[Fraction(1), Fraction(0), Fraction(0)]],
)
@example(  # Python-int rows: the products with the taus overflow int64
    patch_and_dim=([(Rat(0), Rat(0)), (Rat(2**61), Rat(1)), (Rat(7 - 2**61), Rat(3))], 2),
    tau_rows=[[Fraction(5, 3), Fraction(1, 7), Fraction(0)]],
)
@given(exact_patches(), st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=3))
def test_exact_c2_on_residues_matches_brute_force(patch_and_dim, tau_rows):
    pts, d = patch_and_dim
    taus = [tuple(Rat(c) for c in t[:d]) for t in tau_rows]
    rep = condition_C2_check(SpectrumPatch(points=tuple(pts), window_radius=1.0, separation=0.0), taus)
    assert rep.max_distance_to_integer == _brute_c2(pts, taus)
    assert rep.passed == (rep.max_distance_to_integer <= rep.tolerance)


def test_c2_of_a_moved_lattice_point_matches_every_pair(hexagon):
    # a 600-point lattice patch with one point moved by 1/1000, against
    # <q_j - q_i, tau> mod M for every ordered pair in integers
    taus = [t.tau for t in tau_vectors(hexagon)]
    base = patch(dual_lattice(lattice_T(hexagon)), 8.1)
    pts = list(base.points)
    assert len(pts) >= 600
    i = len(pts) // 3
    pts[i] = (pts[i][0] + Rat(1, 1000), pts[i][1])
    sp = SpectrumPatch(points=tuple(pts), window_radius=8.1, separation=0.0)
    den, a = clear_denominators(pts)
    tden, t = clear_denominators(taus)
    m = den * tden
    a, t = np.array(a, dtype=np.int64), np.array(t, dtype=np.int64).T
    r = ((a[:, None, :] - a[None, :, :]) @ t) % m
    num = int(np.minimum(r, m - r).max())
    rep = condition_C2_check(sp, taus)
    assert num > 0 and rep.max_distance_to_integer == num / m and not rep.passed
    assert condition_C2_check(base, taus).max_distance_to_integer == 0.0


def test_c2_never_walks_pairs(monkeypatch, hexagon):
    # C2 reads per-point residues, float taus and float patches included;
    # orthogonality alone walks the pairs, once
    walks, uniques = [], []
    pair_blocks, unique = spectrum._pair_blocks, spectrum._unique

    def counted_walk(a):
        walks.append(len(a))
        return pair_blocks(a)

    def counted_unique(a):
        uniques.append(len(a))
        return unique(a)

    monkeypatch.setattr(spectrum, "_pair_blocks", counted_walk)
    monkeypatch.setattr(spectrum, "_unique", counted_unique)
    taus = [t.tau for t in tau_vectors(hexagon)]
    sp = patch(dual_lattice(lattice_T(hexagon)), 3.0)
    floats = make_patch([tuple(float(c) + 0.25 for c in q) for q in sp.points], 3.0)
    float_taus = [tuple(float(c) for c in t) for t in taus]
    for s, t in ((sp, taus), (sp, float_taus), (floats, taus)):
        assert condition_C2_check(s, t).passed
        assert walks == [] and uniques == []
    verify_orthogonality(hexagon, sp)
    assert walks == [len(sp)] and uniques


def test_c2_empty_and_single_point_patches():
    taus = [(Rat(1), Rat(0))]
    for pts in ((), ((Rat(1, 3), Rat(2)),), ((0.5, -0.0),)):
        sp = make_patch(pts, 1.0)
        rep = condition_C2_check(sp, taus)
        assert rep.passed and rep.max_distance_to_integer == 0.0
        assert len(sp._differences[1]) == 0


def test_integer_differences_match_fraction_brute_force():
    # mixed denominators 1 and 4: the integer path must clear them exactly
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    pts = list(patch(z3, 2.0).points)
    pts += [tuple(c + s for c, s in zip(q, (Rat(1, 4), 0, 0))) for q in pts]
    ordered = sorted(set(pts))
    # the reversed order puts every pair against the kept sign
    for sp in (make_patch(ordered, 2.3), make_patch(ordered[::-1], 2.3)):
        got = _rat_rows(sp)
        assert got == _brute_differences(sp.points)
        assert all(isinstance(c, Rat) for d in got for c in d)


def test_orthogonality_hexagon_difference_count(hexagon):
    # regression: 949 points at R=10 collapse to 1870 +- distinct differences
    dual = dual_lattice(lattice_T(hexagon))
    rep = verify_orthogonality(hexagon, patch(dual, 10.0))
    assert rep.num_points == 949
    assert rep.num_differences == 1870


def test_orthogonality_truncated_octahedron(truncated_octahedron):
    dual = dual_lattice(lattice_T(truncated_octahedron))
    sp = patch(dual, 2.0)
    assert len(sp) > 100
    rep = verify_orthogonality(truncated_octahedron, sp)
    assert rep.passed
    assert rep.max_residual <= 1e-10 * float(truncated_octahedron.volume)


def test_density(cube, hexagon):
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    rep = verify_density(cube, patch(z3, 10.0))
    assert rep.passed and abs(rep.density - 1.0) < 0.05
    dual = dual_lattice(lattice_T(hexagon))
    rep = verify_density(hexagon, patch(dual, 20.0))
    assert rep.passed and abs(rep.density - 3.0) <= 0.15
    box = cube.apply_affine(AffineMap.linear([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    dual_box = dual_lattice(lattice_T(box))
    rep = verify_density(box, patch(dual_box, 10.0))
    assert rep.passed and abs(rep.density - 2.0) <= 0.1
    with pytest.raises(WindowTooSmall):
        verify_density(cube, patch(z3, 2.0))


def test_c2_exact_and_translation_invariant(hexagon):
    taus = [t.tau for t in tau_vectors(hexagon)]
    dual = dual_lattice(lattice_T(hexagon))
    sp = patch(dual, 4.0)
    rep = condition_C2_check(sp, taus)
    assert rep.passed and rep.max_distance_to_integer == 0.0
    shifted = make_patch([tuple(c + s for c, s in zip(q, (Rat(5, 7), Rat(-2, 9)))) for q in sp.points], 5.0)
    rep = condition_C2_check(shifted, taus)
    assert rep.passed  # differences are unchanged by translation


def test_c2_rejects_a_bad_tolerance(hexagon):
    # a NaN tol once failed every patch silently; uniqueness shares the check
    taus = [t.tau for t in tau_vectors(hexagon)]
    sp = patch(dual_lattice(lattice_T(hexagon)), 3.0)
    for tol in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(PreconditionFailed, match="tolerance"):
            condition_C2_check(sp, taus, tol)
    assert condition_C2_check(sp, taus, 0.0).passed


def test_c2_detects_perturbation(hexagon):
    taus = [t.tau for t in tau_vectors(hexagon)]
    dual = dual_lattice(lattice_T(hexagon))
    base = list(patch(dual, 3.0).points)
    bad = [tuple(float(c) for c in q) for q in base]
    bad[0] = (bad[0][0] + math.sqrt(2) / 100, bad[0][1])
    rep = condition_C2_check(make_patch(bad, 3.1), taus)
    assert not rep.passed


def test_uniqueness_translate_passes(truncated_octahedron):
    dual = dual_lattice(lattice_T(truncated_octahedron))
    sp = patch(dual, 2.0)
    shift = (Rat(1, 7), Rat(2, 7), Rat(3, 7))
    shifted = make_patch([tuple(c + s for c, s in zip(q, shift)) for q in sp.points], 2.5)
    assert uniqueness_check(truncated_octahedron, shifted)


def test_uniqueness_hexagon(hexagon):
    dual = dual_lattice(lattice_T(hexagon))
    sp = patch(dual, 4.0)
    assert uniqueness_check(hexagon, sp)
    # an irrational float translate is exact binary rationals within tol
    # of a lattice translate
    shift = (math.sqrt(2) / 7, math.sqrt(3) / 9)
    shifted = make_patch(
        [tuple(float(c) + s for c, s in zip(q, shift)) for q in sp.points], 4.5
    )
    assert uniqueness_check(hexagon, shifted)


def test_uniqueness_detects_alien_point(hexagon):
    dual = dual_lattice(lattice_T(hexagon))
    pts = list(patch(dual, 3.0).points)
    pts.append((Rat(1, 2) + pts[0][0], pts[0][1]))
    assert not uniqueness_check(hexagon, make_patch(pts, 3.5))


def test_uniqueness_exact_with_huge_coordinates(hexagon):
    # a translate by 2^62 puts the patch on Python ints; an alien point fails
    dual = dual_lattice(lattice_T(hexagon))
    pts = [tuple(c + Rat(2**62, 3) for c in q) for q in patch(dual, 3.0).points]
    shifted = make_patch(pts, 3.5)
    assert shifted._coords[1].dtype == object
    assert uniqueness_check(hexagon, shifted) is True
    bad = make_patch(pts + [(pts[0][0] + Rat(1, 2), pts[0][1])], 3.5)
    assert uniqueness_check(hexagon, bad) is False


def test_uniqueness_tolerance_on_exact_points(hexagon):
    # C2's rule: a point may lie at most tol (1e-9) off the lattice
    # translate, in dual-basis coordinates
    pts = list(patch(dual_lattice(lattice_T(hexagon)), 3.0).points)
    for off, passed in ((Rat(1, 10**6), False), (Rat(1, 10**12), True)):
        moved = pts + [(pts[0][0] + off, pts[0][1])]
        assert uniqueness_check(hexagon, make_patch(moved, 3.5)) is passed
    for tol in (-1e-9, math.nan):
        with pytest.raises(PreconditionFailed, match="tolerance"):
            uniqueness_check(hexagon, make_patch(pts, 3.5), tol)


def _uniqueness_reference(p, s, tol=1e-9):
    """The dual-basis rule: with B the spectrum's basis (rows) and q_0 the
    first point, every coefficient of (q - q_0) B^-1 lies within tol of an
    integer; in Fraction arithmetic, floats converted exactly."""
    binv = inverse(decide_spectral(p).spectrum.basis)
    pts = _exact(s.points)
    worst = 0
    for q in pts:
        d = [x - y for x, y in zip(q, pts[0])]
        for col in zip(*binv):
            v = sum(x * c for x, c in zip(d, col))
            worst = max(worst, min(v - math.floor(v), math.ceil(v) - v))
    return worst <= tol


_UNIQUE_SHIFTS = [(math.sqrt(2) / 7, math.sqrt(3) / 9, math.sqrt(5) / 11), (0.37, -1 / 3, 2.5e-8), (1e6 / 3, math.pi, -math.e)]


@pytest.mark.parametrize(
    "name, radius",
    [("hexagon", 3.0), ("rhombic-dodecahedron", 1.5), ("elongated-dodecahedron", 1.5), ("truncated-octahedron", 1.5)],
)
def test_uniqueness_matches_the_dual_basis_rule(name, radius):
    # each non-prism tiler: its exact patch, three irrationally shifted float
    # copies, and one point moved by 1/1000 or by 1e-12
    p = make(name)
    pts = list(patch(decide_spectral(p).spectrum, radius).points)
    copies = [pts] + [[tuple(float(c) + s for c, s in zip(q, shift)) for q in pts] for shift in _UNIQUE_SHIFTS]
    i = len(pts) // 3
    for move in (Rat(1, 1000), 1e-12):
        copies.append(pts[:i] + [(pts[i][0] + move, *pts[i][1:])] + pts[i + 1 :])
    verdicts = []
    for q in copies:
        sp = make_patch(q, radius + 0.5)
        verdicts.append(uniqueness_check(p, sp))
        assert verdicts[-1] is _uniqueness_reference(p, sp)
    assert verdicts == [True, True, True, True, False, True]


def test_uniqueness_independent_of_point_order(hexagon):
    # two points moved by +-x along a basis vector of the spectrum: relative
    # to the first point the dual-basis rule passes or fails with the order
    # (x or 2x off against tol = 1e-9), C2 against the tiling lattice fails
    # in every order
    b = decide_spectral(hexagon).spectrum.basis[0]
    x = Rat(6, 10**10)
    pts = list(patch(decide_spectral(hexagon).spectrum, 3.0).points)
    pts[1] = tuple(c + x * e for c, e in zip(pts[1], b))
    pts[2] = tuple(c - x * e for c, e in zip(pts[2], b))
    orders = [pts, pts[1:] + pts[:1], pts[::-1]]  # an unmoved point first, a moved one, an unmoved one
    assert [_uniqueness_reference(hexagon, make_patch(q, 3.5)) for q in orders] == [True, False, True]
    assert [uniqueness_check(hexagon, make_patch(q, 3.5)) for q in orders] == [False] * 3


def test_stages_computed_once_per_polytope(hexagonal_prism, interval):
    from spectile.tiling import is_prism

    # identical objects: the second call returns the kept value
    assert decide_spectral(hexagonal_prism) is decide_spectral(hexagonal_prism)
    assert is_prism(hexagonal_prism) is is_prism(hexagonal_prism) is not None
    for _ in range(2):  # a failure is not kept (see test_memo_keeps_values_not_failures)
        with pytest.raises(UnsupportedDimension):
            decide_spectral(interval)


def test_analyze_runs_each_stage_once(monkeypatch):
    from collections import Counter

    from spectile import make, symmetry, tiling
    from spectile.report import analyze

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(tiling, "belts", counted("belts", tiling.belts))
    monkeypatch.setattr(symmetry, "_symmetric", counted("symmetric", symmetry._symmetric))
    cube = make("cube")  # fresh: the shared fixtures may have stages kept already
    analyze(cube, radius=2.0)
    # one point-set test for the center and one per facet
    assert calls == {"belts": 1, "symmetric": 1 + len(cube.facets)}


def test_uniqueness_prism_excluded(hexagonal_prism, square):
    dual = dual_lattice(lattice_T(hexagonal_prism))
    sp = patch(dual, 2.0)
    with pytest.raises(PrismExcluded):
        uniqueness_check(hexagonal_prism, sp)
    dual2 = dual_lattice(lattice_T(square))
    with pytest.raises(PrismExcluded):
        uniqueness_check(square, patch(dual2, 3.0))


def test_prism_spectrum_zero_offsets_is_product(square):
    base_dual = dual_lattice(lattice_T(square))
    base_patch = patch(base_dual, 2.0)
    spec = PrismSpectrumSpec(base_patch=base_patch, theta={q: 0 for q in base_patch.points})
    sp = prism_spectrum(square, spec, 2.0)
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert set(sp.points) == set(patch(z3, 2.0).points)


def test_prism_spectrum_orthogonal_on_cube(cube, square):
    base_dual = dual_lattice(lattice_T(square))
    base_patch = patch(base_dual, 2.0)
    theta = {}
    for i, q in enumerate(sorted(base_patch.points)):
        theta[q] = Rat(i % 5, 5)
    sp = prism_spectrum(square, PrismSpectrumSpec(base_patch=base_patch, theta=theta), 2.0)
    rep = verify_orthogonality(cube, sp)
    assert rep.passed


def test_prism_spectrum_theta_guard(square):
    base_dual = dual_lattice(lattice_T(square))
    base_patch = patch(base_dual, 1.0)
    theta = {q: Rat(3, 2) for q in base_patch.points}
    with pytest.raises(ThetaOutOfRange):
        prism_spectrum(square, PrismSpectrumSpec(base_patch=base_patch, theta=theta), 1.5)


def _not_translates(a, b):
    """Canonical difference-set comparison: translate iff equal after
    anchoring each patch at its lexicographic minimum."""
    ca = sorted(tuple(x - min_ for x, min_ in zip(q, min(a.points))) for q in a.points)
    cb = sorted(tuple(x - min_ for x, min_ in zip(q, min(b.points))) for q in b.points)
    return ca != cb


def test_prism_spectrum_non_uniqueness(hexagon, hexagonal_prism):
    base_dual = dual_lattice(lattice_T(hexagon))
    base_patch = patch(base_dual, 2.0)
    theta0 = {q: 0 for q in base_patch.points}
    theta1 = {q: sum(c * w for c, w in zip(q, (Rat(1, 5), Rat(1, 5)))) % 1 for q in base_patch.points}
    sp0 = prism_spectrum(hexagon, PrismSpectrumSpec(base_patch, theta0), 2.0)
    sp1 = prism_spectrum(hexagon, PrismSpectrumSpec(base_patch, theta1), 2.0)
    assert _not_translates(sp0, sp1)
    for sp in (sp0, sp1):
        rep = verify_orthogonality(hexagonal_prism, sp)
        assert rep.passed
        assert rep.max_residual <= 1e-10 * float(hexagonal_prism.volume)


def test_chi_estimates(interval, cube, hexagon):
    assert abs(chi_estimate(interval) - 1.0) <= 1e-6
    assert abs(chi_estimate(cube) - 1.0) <= 1e-6
    # regression fixture for the catalog hexagon: sqrt(2)/3, the length of
    # the shortest dual lattice vector (1/3, -1/3)
    assert abs(chi_estimate(hexagon) - math.sqrt(2) / 3) <= 1e-6


def test_separation_at_least_chi(cube, hexagon, truncated_octahedron):
    for p in (cube, hexagon, truncated_octahedron):
        dual = dual_lattice(lattice_T(p))
        sp = patch(dual, 3.0)
        assert sp.separation >= chi_estimate(p) - 1e-6


def test_spectrum_covariance(hexagon, truncated_octahedron):
    # the dual patch of A(P) is the inverse-transpose image of P's patch
    rng = random.Random(12)
    for p in (hexagon, truncated_octahedron):
        d = p.dim
        while True:
            m = tuple(tuple(Rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d)) for _ in range(d))
            if det(m) != 0:
                break
        amap = AffineMap.linear(m)
        image = p.apply_affine(amap)
        lt = lattice_T(p)
        lt_img = lattice_T(image)
        # T(A P) = A T(P) as lattices
        assert lt_img == Lattice.from_generators([amap.apply(b) for b in lt.basis])
        # spectra: dual(T(A P)) = (A^-1)^T dual(T(P))
        inv_t = AffineMap.linear(list(zip(*amap.inverse().matrix)))
        expect = Lattice.from_generators([inv_t.apply(b) for b in dual_lattice(lt).basis])
        assert dual_lattice(lt_img) == expect
        # patch points of the image pull back exactly into the original dual
        fwd_t = AffineMap.linear(list(zip(*amap.matrix)))
        for q in patch(dual_lattice(lt_img), 2.0).points:
            assert dual_lattice(lt).contains(fwd_t.apply(q))


def test_patch_rejects_bad_radius():
    z2 = Lattice.from_generators([(1, 0), (0, 1)])
    with pytest.raises(PreconditionFailed):
        patch(z2, 0.0)


def _separation_reference(points) -> float:
    """The O(n^2) loop _separation replaced: every pair, 512 rows at a time."""
    if len(points) < 2:
        return math.inf
    arr = np.array([[float(c) for c in p] for p in points])
    best = math.inf
    chunk = 512
    for i in range(0, len(arr), chunk):
        block = arr[i : i + chunk]
        d2 = np.sum((block[:, None, :] - arr[None, i:, :]) ** 2, axis=2)
        tri = np.triu_indices(block.shape[0], k=1, m=d2.shape[1])
        offd = d2[tri]
        offd = offd[offd > 0]
        if offd.size:
            best = min(best, float(np.sqrt(offd.min())))
    return best


@st.composite
def separation_inputs(draw):
    """Exact or float points in 1 to 3 dimensions, with duplicates and, next
    to the spread points, tight clusters."""
    d = draw(st.sampled_from([1, 2, 3]))
    exact = draw(st.booleans())
    pts = draw(st.lists(st.tuples(*[fractions if exact else floats] * d), max_size=40))
    if pts and draw(st.booleans()):
        k = draw(st.sampled_from([3, 7, 12]))
        scale = Fraction(1, 10**k) if exact else 10.0**-k
        steps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=40))
        pts += [tuple(c + s * scale for c, s in zip(pts[0], step)) for step in steps]
    if pts and draw(st.booleans()):
        pts += draw(st.lists(st.sampled_from(pts), max_size=6))
    return draw(st.permutations(pts))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=150, deadline=None)
@example([])
@example([(Rat(1, 3), Rat(2))])
@example([(0.5, -0.0, 1.0)] * 5)
@example([(0.0,), (1e-170,), (-1e-170,)])  # squares that underflow to 0 or a subnormal
@example([(0.0,), (4.223e-162,), (6.779e-162,)])  # the bound's own pair is the closest
@example([(0.0, 0.0), (1e200, 0.0), (1e200, 1e185)])  # squares that overflow
@example([(1e308, 0.0), (-1e308, 0.0), (0.0, 1.0)])  # a range that overflows
@example([(math.nan, 0.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, 0.0), (0.0, 0.5)])  # rejected
# the range overflows, so all 302 points share one cell: 45,451 pairs, two blocks of _BLOCK
@example([(1e308, 0.0), (-1e308, 0.0)] + [(i % 19 / 19, (i * 0.618034) % 1.0) for i in range(300)])
@example([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (10.0, 10.0, 10.0)])  # a row with empty forward cells
# eight coordinates, which np.sum adds pairwise: the closest pair is the last two
@example([(0.0,) * 8, (-120.56, -3.85, -7.17, 3.0, -5.45, -10.43, 2.07, 8.14), (64.0,) + (0.0,) * 7,
          (56.56, 3.85, 7.17, -3.0, 5.45, 10.43, -2.07, -8.14)])
@given(separation_inputs())
def test_separation_matches_the_pair_loop(pts):
    if not np.isfinite(_float_rows(pts)).all():
        with pytest.raises(PreconditionFailed, match="finite"):
            make_patch(pts, 1.0)
        return
    expected = _separation_reference(pts)
    assert _separation(_float_rows(pts)) == expected
    assert make_patch(pts, 1.0).separation == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_patch_rejects_non_finite_coordinates(truncated_octahedron, bad):
    # such a point has no exact value for C2, uniqueness or orthogonality
    sp = patch(dual_lattice(lattice_T(truncated_octahedron)), 2.0)
    pts = [tuple(float(c) for c in q) for q in sp.points]
    pts[3] = (pts[3][0], bad, pts[3][2])
    with pytest.raises(PreconditionFailed, match="finite"):
        make_patch(pts, 2.0)


def test_orthogonality_of_a_float_difference_near_a_zero(cube):
    # the float difference 1 + 3e-10 lies near 1, a zero of the transform,
    # but the transform at it is 3.0e-10, above tol * volume
    from spectile.fourier import ft_indicator

    u = 1 + 3e-10
    rep = verify_orthogonality(cube, make_patch([(0.0, 0.0, 0.0), (u, 0.0, 0.0)], 1.0))
    true = ft_indicator(cube, (Fraction(u), 0, 0)).magnitude
    assert true > rep.tolerance * float(cube.volume)
    assert rep.max_residual + rep.max_err_bound >= true
    assert not rep.passed


def test_patch_checks_reject_non_finite_input():
    # unchecked, this patch passed C2 with distance 0.0 although (1, 0.5)
    # is 0.5 from an integer: max(worst, nan) keeps worst
    with pytest.raises(PreconditionFailed, match="finite"):
        SpectrumPatch(points=((0.0, 0.0), (math.nan, 1.0), (1.0, 0.5)), window_radius=1.0, separation=0.5)
    sp = make_patch([(0.0, 0.0), (1.0, 0.5)], 1.0)
    assert not condition_C2_check(sp, [(1, 0), (0, 1)]).passed
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionFailed, match="finite"):
            condition_C2_check(sp, [(1, 0), (0.0, bad)])


def test_patch_rejects_coordinates_beyond_float_range():
    # float(Fraction(10**400)) raised OverflowError out of make_patch
    big = Rat(10**400)
    for pts in (((Rat(0), Rat(0)), (big, Rat(1))), ((0.0, 0.0), (big, 1.0))):
        with pytest.raises(PreconditionFailed, match="coordinate 0 of point 1 is beyond float range"):
            make_patch(pts, 1.0)
        with pytest.raises(PreconditionFailed, match="coordinate 0 of point 1 is beyond float range"):
            SpectrumPatch(points=pts, window_radius=1.0, separation=0.5)
    # a large numerator over a large denominator is within range
    sp = make_patch([(Rat(10**400 + 1, 10**399), Rat(0)), (Rat(0), Rat(1))], 1.0)
    assert sp.separation == math.sqrt(101.0)


@settings(max_examples=40, deadline=None)
@example(([(Rat(1, 2**53), Rat(2**53 - 1)), (Rat(-3, 2**53 - 1), Rat(0))], 2))  # den past 2^53
@example(([(Rat(2**53 + 1), Rat(1, 3)), (Rat(0), Rat(0))], 2))  # a numerator past 2^53
@example(([(Rat(2**53), Rat(1, 3)), (Rat(-(2**53)), Rat(-1, 7))], 2))
@example(([(Rat(10**400 + 1, 10**399), 1e-300), (0.5, Rat(1, 3))], 2))  # mixed, den past float range
@given(st.one_of(exact_patches(), float_patches))
def test_patch_floats_round_each_coordinate_once(patch_and_dim):
    # one exact form; the rows separation reads are float(c) per coordinate
    pts, _ = patch_and_dim
    den, a = spectrum._patch_forms(tuple(pts))
    assert {tuple(Rat(int(c), den) for c in r) for r in a.tolist()} == set(_exact(pts))
    seen = []
    with mock.patch.object(spectrum, "_separation", lambda rows: seen.append(rows) or 0.0):
        make_patch(pts, 1.0)
    assert seen[0].dtype == np.float64 and seen[0].tolist() == _float_rows(pts).tolist()


def _generic_forms(pts):
    """The (den, A) that clear_denominators and _integer_form give."""
    den, ints = clear_denominators(pts)
    try:
        a = np.array(ints, dtype=np.int64)
    except OverflowError:
        a = np.array(ints, dtype=object)
    return spectrum._integer_form(den, a.reshape(len(pts), len(pts[0])))


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@example([(-0.0, 0.0), (0.0, -0.0)])
@example([(5e-324,)])  # a subnormal: den 2^1074
@example([(5e-324, 0.0), (-5e-324, 1e-300)])
@example([(3.0, -7.0), (2.0**62, 0.0)])  # integral floats: den 1, A past twice int64
@example([(0.1, 0.2, 0.3)])  # one point
@example([(0.5, 1.5e-302)])  # A far past int64
@example([(1e300, 0.1)])  # the scaled entries pass int64: Python ints
@example([(-(2.0**63), 0.0)])  # A = INT64_MIN
@example([(2.0**63, 0.0)])  # A one bit past int64
@given(st.integers(1, 3).flatmap(lambda d: st.lists(st.tuples(*[finite_floats] * d), min_size=1, max_size=12)))
def test_float_patch_forms_equal_clear_denominators(pts):
    # the whole-array conversion of a float patch gives the exact form
    den, a = spectrum._patch_forms(tuple(pts))
    ref_den, ref = _generic_forms(pts)
    assert den == ref_den and a.dtype == ref.dtype and a.tolist() == ref.tolist()
    assert not a.flags.writeable


def test_patch_forms_take_clear_denominators_for_other_input():
    seen = []
    with mock.patch.object(spectrum, "clear_denominators", lambda rows: seen.append(rows) or clear_denominators(rows)):
        assert spectrum._patch_forms(((0.5, -0.25), (3.0, 0.0)))[0] == 4  # all floats: numpy
        assert not seen
        for pts in (((0.5, Rat(1, 3)), (0.25, 1.0)), ((0.5, 1),), ((1e300, 0.1),), (), ((np.float64(0.5),),)):
            seen.clear()
            den, a = spectrum._patch_forms(pts)
            assert seen == [pts]
            if pts:
                ref_den, ref = _generic_forms(pts)
                assert den == ref_den and a.dtype == ref.dtype and a.tolist() == ref.tolist()
        with pytest.raises(PreconditionFailed, match="finite"):
            spectrum._patch_forms(((0.5, math.inf),))
        assert seen[-1] == ((0.5, math.inf),)


def test_c2_fails_an_overflowing_product():
    # <d, tau> = 1e300 * 1e10 + 0.5 overflows float64, where this patch once
    # passed C2 with distance 0.0; in exact arithmetic it is 0.5 off
    sp = SpectrumPatch(points=((0.0, 0.0), (1e300, 0.5)), window_radius=1.0, separation=0.5)
    for taus in ([(1e10, 1)], [(1e10, 1), (0, 1)], [(10**10, 1)]):
        rep = condition_C2_check(sp, taus)
        assert not rep.passed
        assert rep.max_distance_to_integer == 0.5


def test_c2_of_a_float_tau_on_rows_beyond_float_products():
    # the difference 2e308 overflows a float; exactly, <d, tau> = 2 * 10^308
    sp = make_patch([(Rat(10**308), Rat(0)), (Rat(-(10**308)), Rat(0))], 1.0)
    rep = condition_C2_check(sp, [(1.0, 0.0)])
    assert rep.passed and rep.max_distance_to_integer == 0.0


def test_separation_of_lattice_patches(hexagon, truncated_octahedron):
    shift = np.array([math.sqrt(2), math.sqrt(3)]) / 7
    for p, radius in ((hexagon, 5.0), (truncated_octahedron, 3.0)):
        sp = patch(dual_lattice(lattice_T(p)), radius)
        assert sp.separation == _separation_reference(sp.points)
        floats = [tuple(float(c) + s for c, s in zip(q, shift)) for q in sp.points]
        assert make_patch(floats, radius).separation == _separation_reference(floats)
        shift = np.array([math.sqrt(2), math.sqrt(3), math.sqrt(5)]) / 7
    # a cluster 1e-6 across next to spread points
    rng = np.random.default_rng(5)
    cluster = np.vstack([rng.random((300, 3)) * 1e-6, rng.random((500, 3))])
    assert _separation(cluster) == _separation_reference(cluster.tolist())



def test_patch_repr_is_the_dataclass_text():
    # a lattice patch forms its points for the repr; both texts are the
    # ones the patch had as a frozen dataclass
    assert repr(make_patch([(Rat(1, 2), 0), (0, 1.5)], 2.0)) == (
        "SpectrumPatch(points=((Fraction(1, 2), 0), (0, 1.5)), window_radius=2.0, separation=1.5811388300841898)"
    )
    lattice = Lattice.from_generators([(Rat(1, 2), 0), (0, 1)])
    assert repr(patch(lattice, 0.6)) == (
        "SpectrumPatch(points=((Fraction(-1, 2), Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 2), Fraction(0, 1))), window_radius=0.6, separation=0.5)"
    )
