import math
import random
from fractions import Fraction

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
from spectile._backend import frac_part
from spectile.linalg import det
from spectile.spectrum import (
    PrismSpectrumSpec,
    SpectrumPatch,
    _difference_rows,
    _float_rows,
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


def _brute_differences(points, collapse_sign):
    out = set()
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            d = tuple(y - x for x, y in zip(a, b))
            if collapse_sign and next((c for c in d if c != 0), 0) < 0:
                d = tuple(-c for c in d)
            out.add(d)
    return out


def _rat_rows(sp, collapse_sign):
    """_difference_rows of an exact patch as a set of Rat tuples."""
    den, rows = _difference_rows(sp, collapse_sign)
    return {tuple(Rat(int(c), den) for c in row) for row in rows}


def _brute_c2(points, taus):
    """Largest distance of <q_j - q_i, tau> to an integer: Fraction
    arithmetic for exact points and taus, else a float sum in vdot order
    (exact differences are rounded once)."""
    worst = 0.0
    exact_pts = all(not isinstance(c, float) for q in points for c in q)
    exact = exact_pts and all(not isinstance(c, float) for t in taus for c in t)
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            if exact_pts:
                d = [Fraction(y) - Fraction(x) for x, y in zip(a, b)]
            else:
                d = [float(y) - float(x) for x, y in zip(a, b)]
            for t in taus:
                if exact:
                    v = sum(x * Fraction(c) for x, c in zip(d, t))
                    fr = v - math.floor(v)
                    dist = float(min(fr, 1 - fr))
                else:
                    v = sum((float(x) * float(c) for x, c in zip(d, t)), 0.0)
                    dist = abs(v - round(v))
                worst = max(worst, dist)
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
    collapse_sign=False,
    tau_rows=[[Fraction(5, 3), Fraction(1, 7), Fraction(0)]],
    tau_type=Rat,
)
@given(
    exact_patches(),
    st.booleans(),
    st.lists(st.lists(fractions, min_size=3, max_size=3), max_size=3),
    st.sampled_from([Rat, float]),
)
def test_difference_set_and_c2_match_brute_force_exact(patch_and_dim, collapse_sign, tau_rows, tau_type):
    pts, d = patch_and_dim
    sp = SpectrumPatch(points=tuple(pts), window_radius=1.0, separation=0.0)
    den, rows = _difference_rows(sp, collapse_sign)
    brute = _brute_differences(pts, collapse_sign)
    assert _rat_rows(sp, collapse_sign) == brute and len(rows) == len(brute)
    assert [tuple(r) for r in rows.tolist()] == sorted(tuple(r) for r in rows.tolist())
    # Python ints exactly when twice the cleared magnitudes overflow int64
    den = math.lcm(*(c.denominator for q in pts for c in q))
    big = max((abs(c) * den for q in pts for c in q), default=0)
    assert (sp._coords[1].dtype == object) == (2 * big >= 2**63)
    taus = [tuple(tau_type(c) for c in t[:d]) for t in tau_rows]
    rep = condition_C2_check(sp, taus)
    assert rep.max_distance_to_integer == _brute_c2(pts, taus)
    assert rep.num_differences == len(_brute_differences(pts, False))
    assert rep.passed == (rep.max_distance_to_integer <= rep.tolerance)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(lambda d: st.lists(st.tuples(*[floats] * d), max_size=9)),
    st.booleans(),
    st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_difference_set_and_c2_match_brute_force_float(pts, collapse_sign, tau_rows):
    sp = SpectrumPatch(points=tuple(pts), window_radius=1.0, separation=0.0)
    den, rows = _difference_rows(sp, collapse_sign)
    brute = _brute_differences(pts, collapse_sign)  # -0.0 == 0.0 in the set
    assert den == 1 and {tuple(r) for r in rows.tolist()} == brute and len(rows) == len(brute)
    assert not np.signbit(rows[rows == 0]).any()
    if pts and pts[0]:
        d = len(pts[0])
        taus = [tuple(Rat(c) for c in t[:d]) for t in tau_rows]
        rep = condition_C2_check(sp, taus)
        assert rep.max_distance_to_integer == _brute_c2(pts, taus)
        assert rep.num_differences == len(_brute_differences(pts, False))


@settings(max_examples=30, deadline=None)
@given(exact_patches(), st.randoms(use_true_random=False))
def test_collapsed_set_derived_from_plain_set(patch_and_dim, rnd):
    pts, _ = patch_and_dim
    ordered = sorted(set(pts))
    shuffled = list(ordered)
    rnd.shuffle(shuffled)
    for q in (ordered, shuffled):
        sp = SpectrumPatch(points=tuple(q), window_radius=1.0, separation=0.0)
        assert _rat_rows(sp, True) == _brute_differences(q, True)
        assert _rat_rows(sp, False) == _brute_differences(q, False)


def test_analyze_walks_the_pairs_once(monkeypatch):
    # orthogonality and C2 share one difference set per patch
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


def test_c2_empty_and_single_point_patches():
    taus = [(Rat(1), Rat(0))]
    for pts in ((), ((Rat(1, 3), Rat(2)),), ((0.5, -0.0),)):
        sp = make_patch(pts, 1.0)
        rep = condition_C2_check(sp, taus)
        assert rep.passed and rep.max_distance_to_integer == 0.0 and rep.num_differences == 0
        assert len(_difference_rows(sp, True)[1]) == 0


def test_integer_differences_match_fraction_brute_force():
    # mixed denominators 1 and 4: the integer path must clear them exactly
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    pts = list(patch(z3, 2.0).points)
    pts += [tuple(c + s for c, s in zip(q, (Rat(1, 4), 0, 0))) for q in pts]
    ordered = sorted(set(pts))
    # the reversed order puts every pair against the collapsed sign
    for sp in (make_patch(ordered, 2.3), make_patch(ordered[::-1], 2.3)):
        for collapse_sign in (True, False):
            got = _rat_rows(sp, collapse_sign)
            assert got == _brute_differences(sp.points, collapse_sign)
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
    # an irrational translate still passes through the float path
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
    monkeypatch.setattr(symmetry, "_point_set_symmetric", counted("facet", symmetry._point_set_symmetric))
    cube = make("cube")  # fresh: the shared fixtures may have stages kept already
    analyze(cube, radius=2.0)
    assert calls == {"belts": 1, "facet": len(cube.facets)}


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
    theta1 = {q: frac_part(sum(c * w for c, w in zip(q, (Rat(1, 5), Rat(1, 5))))) for q in base_patch.points}
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
@example([(math.nan, 0.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, 0.0), (0.0, 0.5)])
@given(separation_inputs())
def test_separation_matches_the_pair_loop(pts):
    expected = _separation_reference(pts)
    got = _separation(_float_rows(pts))
    assert got == expected or (math.isnan(got) and math.isnan(expected))
    assert make_patch(pts, 1.0).separation == expected


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

