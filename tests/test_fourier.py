import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero, mpc_div

from spectile import AffineMap, Rat, zonotope
from spectile.errors import NotStandardPosition, ZeroFrequency
from spectile.fourier import (
    _batch_geometry,
    _indicator_rows_hp,
    _integer_rows,
    _phase_eps,
    asymptotic_cone_check,
    decay_bound_check,
    ft_indicator,
    ft_surface,
    ft_with_boundary,
    ft_zero,
    surface_area_upper,
    surface_decay_bound,
)
from spectile.linalg import cross3, det, idot, norm_sq, transpose, vdot, vsub
from spectile.oracle import simplex_ft
from spectile.walk import _div_imag, _imag_divisor, _phase

from conftest import random_frequency, random_generators, random_zonotope


def test_cis_reduces_large_arguments():
    # 10^40 + 1/8 reduced exactly: the naive float path would lose the 1/8
    with mpmath.workprec(128):
        z = complex(_phase(8 * 10**40 + 1, 8))
    expect = complex(math.cos(-2 * math.pi / 8), math.sin(-2 * math.pi / 8))
    assert abs(z - expect) < 1e-15


def test_phase_beyond_two_to_the_128():
    # operands wider than the working precision are still reduced exactly
    rng = random.Random(11)
    for _ in range(50):
        mod = rng.randrange(2**128, 2**200)
        num = rng.randrange(-(2**260), 2**260)
        with mpmath.workprec(128):
            got = _phase(num, mod)
        with mpmath.workprec(300):
            ref = mpmath.expjpi(-2 * mpmath.mpf(num % mod) / mod)
            assert abs(got - ref) <= _phase_eps(128)


def test_phase_magnitude_is_the_float_one():
    # the walk takes 1.0 as the magnitude float of every vertex phase
    rng = random.Random(12)
    for bits in (128, 256, 512, 1024):
        for _ in range(300):
            mod = rng.randrange(1, 10 ** rng.randint(1, 40))
            num = rng.randrange(-(10**45), 10**45)
            with mpmath.workprec(bits):
                assert float(abs(_phase(num, mod))) == 1.0


def test_sin_pi_exact_reduction():
    # the cone check's sin(pi q) = -Im e^{-2 pi i q / 2}, reduced modulo 2 in integers
    def sin_pi(q):
        with mpmath.workprec(128):
            return float(-_phase(q.numerator, 2 * q.denominator).imag)

    assert abs(sin_pi(Rat(10) ** 30)) < 1e-30
    assert abs(sin_pi(Rat(10) ** 30 + Rat(1, 2)) - 1.0) < 1e-30


def sinc(t: float) -> float:
    return 1.0 if t == 0 else math.sin(math.pi * t) / (math.pi * t)


def test_interval_sinc(interval):
    v = ft_indicator(interval, (1,))
    assert abs(v.re) <= 1e-15 and abs(v.im) <= 1e-15
    for t in (Rat(1, 2), Rat(1, 3), Rat(7, 5)):
        v = ft_indicator(interval, (t,))
        assert abs(v.re - sinc(float(t))) < 1e-14
        assert abs(v.im) < 1e-14


def test_cube_product_structure(cube):
    assert ft_indicator(cube, (1, 2, 3)).magnitude <= 1e-15
    v = ft_indicator(cube, (Rat(1, 2), 0, 0))
    assert abs(v.re - 2 / math.pi) < 1e-14
    v = ft_indicator(cube, (Rat(1, 3), Rat(1, 5), Rat(1, 7)))
    assert abs(v.re - sinc(1 / 3) * sinc(1 / 5) * sinc(1 / 7)) < 1e-14


def test_value_at_zero_is_volume(hexagon, cube):
    assert ft_indicator(hexagon, (0, 0)).re == 3.0
    assert ft_indicator(cube, (0, 0, 0)).re == 1.0


def test_surface_examples(cube):
    fid = next(i for i, f in enumerate(cube.facets) if f.normal == (1, 0, 0))
    t = Rat(3, 7)
    v = ft_surface(cube, fid, (t, 0, 0))
    assert abs(v.as_complex() - cmath.exp(-1j * math.pi * 3 / 7)) < 1e-14
    assert ft_surface(cube, fid, (0, 1, 0)).magnitude <= 1e-15


def test_surface_segment_closed_form(hexagon):
    # an edge transform equals midpoint phase x length x sinc along the edge
    rng = random.Random(8)
    for fi, f in enumerate(hexagon.facets):
        a, b = (hexagon.vertices[i] for i in f.indices)
        xi = random_frequency(rng, 2)
        v = ft_surface(hexagon, fi, xi).as_complex()
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        length = math.sqrt(float(norm_sq(tuple(x - y for x, y in zip(b, a)))))
        along = float(vdot(xi, tuple(x - y for x, y in zip(b, a)))) / length
        expect = cmath.exp(-2j * math.pi * float(vdot(xi, mid))) * length * sinc(along * length)
        assert abs(v - expect) < 1e-12


def test_ft_zero(cube, hexagon):
    assert ft_zero(cube, (1, 0, 0))
    assert not ft_zero(cube, (Rat(1, 2), 0, 0))
    # any nonzero dual lattice point of the hexagon lies in the zero set
    for xi in ((Rat(1, 3), Rat(2, 3)), (Rat(2, 3), Rat(1, 3)), (0, 1), (1, 0), (Rat(1, 3), Rat(-1, 3))):
        assert ft_zero(hexagon, xi)
    with pytest.raises(ZeroFrequency):
        ft_zero(cube, (0, 0, 0))


def test_conjugate_symmetry_and_reality(hexagon, truncated_octahedron, triangle):
    rng = random.Random(31)
    for p in (hexagon, truncated_octahedron, triangle):
        for _ in range(12):
            xi = random_frequency(rng, p.dim)
            v1 = ft_indicator(p, xi).as_complex()
            v2 = ft_indicator(p, tuple(-c for c in xi)).as_complex()
            assert abs(v1 - v2.conjugate()) < 1e-14
    # origin-symmetric bodies have real transforms
    for p in (hexagon, truncated_octahedron):
        for _ in range(12):
            xi = random_frequency(rng, p.dim)
            assert abs(ft_indicator(p, xi).im) < 1e-14


def test_oracle_equivalence_random():
    rng = random.Random(6)
    for _ in range(25):
        dim = rng.choice((2, 3))
        p = zonotope(random_generators(rng, rng.randint(dim, dim + 2), dim))
        for _ in range(4):
            xi = random_frequency(rng, dim)
            a = ft_indicator(p, xi)
            b = simplex_ft(p, xi)
            diff = abs(a.as_complex() - b.as_complex())
            assert diff <= max(1e-9 * a.magnitude, 1e-12)


def test_boundary_identity(truncated_octahedron, hexagon):
    # -2 pi i xi 1^(xi) = sum_F unit-normal_F sigma^_F(xi), componentwise
    rng = random.Random(14)
    for p in (hexagon, truncated_octahedron):
        for _ in range(8):
            xi = random_frequency(rng, p.dim)
            val, sigmas = ft_with_boundary(p, xi)
            left = [-2 * math.pi * float(c) * complex(0, 1) * val.as_complex() for c in xi]
            right = [0j] * p.dim
            for f, s in zip(p.facets, sigmas):
                scale = math.sqrt(float(norm_sq(f.normal)))
                for j in range(p.dim):
                    right[j] += float(f.normal[j]) / scale * s.as_complex()
            for j in range(p.dim):
                assert abs(left[j] - right[j]) <= 1e-10


@pytest.mark.parametrize("name", ["interval", "hexagon", "cube", "zonotope"])
def test_values_are_levels_of_one_walk(name, request):
    # the indicator, the surface transforms and the batch kernel's working-
    # precision rows are read off the same walk, so they agree bit for bit
    rng = random.Random(17)
    p = random_zonotope(rng, 5) if name == "zonotope" else request.getfixturevalue(name)
    xis = [random_frequency(rng, p.dim) for _ in range(6)] + [(Rat(1),) + (Rat(0),) * (p.dim - 1)]
    X, D = _integer_rows(xis)
    val, err = np.zeros(len(xis), dtype=complex), np.zeros(len(xis))
    # every row is still zeroed at first, and carries a positive bound once walked
    _indicator_rows_hp(p, X, D, val, err, lambda mag, e: e == 0)
    for xi, v, e in zip(xis, val, err):
        value = ft_indicator(p, xi)
        body, sigmas = ft_with_boundary(p, xi)
        assert body == value
        assert v == value.as_complex() and e == value.err_bound
        assert len(sigmas) == len(p.facets)
        for fi, sigma in enumerate(sigmas):
            assert ft_surface(p, fi, xi) == sigma


def test_decay_bound(cube, interval, truncated_octahedron):
    rng = random.Random(77)
    samples = [random_frequency(rng, 3) for _ in range(200)]
    assert decay_bound_check(cube, samples).passed
    assert surface_area_upper(cube) == 6
    samples1 = [(Rat(k, 3),) for k in range(1, 40)]
    assert decay_bound_check(interval, samples1).passed
    # equality case: |sinc(1/2)| = 1/(pi/2) exactly matches the bound
    assert decay_bound_check(interval, [(Rat(1, 2),)]).passed
    samples3 = [random_frequency(rng, 3) for _ in range(200)]
    assert decay_bound_check(truncated_octahedron, samples3).passed


def test_surface_decay_bound(truncated_octahedron):
    rng = random.Random(15)
    p = truncated_octahedron
    checked = 0
    while checked < 30:
        xi = random_frequency(rng, 3)
        fi = rng.randrange(len(p.facets))
        bound = surface_decay_bound(p, fi, xi)
        if not math.isfinite(bound):
            continue
        n = p.facets[fi].normal
        sin_sq = 1 - float(vdot(xi, n)) ** 2 / (float(norm_sq(xi)) * float(norm_sq(n)))
        if sin_sq < 0.1:  # bound blows up near the normal direction
            continue
        assert ft_surface(p, fi, xi).magnitude <= bound * (1 + 1e-9)
        checked += 1


def test_affine_covariance(hexagon):
    # transform of A(P) at xi equals |det A| x transform of P at A^T xi
    rng = random.Random(21)
    for _ in range(8):
        while True:
            m = tuple(tuple(Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)) for _ in range(2))
            if det(m) != 0:
                break
        image = hexagon.apply_affine(AffineMap.linear(m))
        for _ in range(4):
            xi = random_frequency(rng, 2)
            lhs = ft_indicator(image, xi).as_complex()
            pullback = tuple(vdot(row, xi) for row in transpose(m))
            rhs = abs(float(det(m))) * ft_indicator(hexagon, pullback).as_complex()
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_cone_check_cube_is_exact(cube, square):
    rep = asymptotic_cone_check(cube, square, 0.1, [Rat(13, 3), Rat(25, 3), Rat(49, 3)])
    assert rep.max_r_abs <= 1e-30


def test_cone_check_requires_standard_position(cube, square, hexagon):
    with pytest.raises(NotStandardPosition):
        asymptotic_cone_check(cube.translate((Rat(1, 4), 0, 0)), square, 0.1, [Rat(13, 3)])
    with pytest.raises(NotStandardPosition):
        asymptotic_cone_check(cube, hexagon, 0.1, [Rat(13, 3)])


def test_zero_frequency_guard(cube, square):
    with pytest.raises(ZeroFrequency):
        ft_with_boundary(cube, (0, 0, 0))
    with pytest.raises(ZeroFrequency):
        decay_bound_check(square, [(0, 0)])


# --- the working-precision walk against its mpmath-object form ---------------


def _level_children(p):
    """Per level of the face geometry (the edges in 3D, the facets, the
    body), each face's children as (index, m) with m an integer vector over
    the level's scale, recomputed from the polytope: an edge's endpoints
    take +-(V[j] - V[i]), a facet's edges cross3(edge, normal) around its
    cycle, the body's facets their normals."""
    v_scale, V = p.integer_vertices
    edges = p.faces(1) if p.dim >= 2 else []
    levels = []
    if edges:
        levels.append(([[(j, vsub(V[j], V[i])), (i, vsub(V[i], V[j]))] for i, j in edges], v_scale))
    if p.dim == 3:
        index = {e: k for k, e in enumerate(edges)}
        faces = []
        for f in p.facets:
            cycle = list(zip(f.indices, f.indices[1:] + f.indices[:1]))
            faces.append([(index[tuple(sorted(e))], cross3(vsub(V[e[1]], V[e[0]]), f.normal)) for e in cycle])
        levels.append((faces, v_scale))
    levels.append(([list(enumerate(f.normal for f in p.facets))], 1))
    return levels


def _walk_reference(p, x, den, bits):
    """The level walk written on mpmath.mpf / mpmath.mpc objects, with cos
    and sin taken separately and one weight <xi, m> / |m| per child from
    _level_children: the form _walk_hp had before it moved to libmp tuples
    and weight classes, kept as the reference its values and bounds must
    equal bit for bit."""
    from spectile.fourier import _batch_geometry

    def ratio(num, den):
        g = math.gcd(num, den)
        return mpmath.mpf(num // g) / (den // g)

    def phase(num, mod):
        angle = -2 * (+mpmath.pi) * ratio(num % mod, mod)
        return mpmath.mpc(mpmath.cos(angle), mpmath.sin(angle))

    g = _batch_geometry(p)
    x = np.array([int(c) for c in x], dtype=object)
    x_sq = int(x @ x)
    ints = []
    for lv in g["levels"]:
        if lv["kind"] == "body":
            nums, par_dens = [x_sq], [den * den]
        else:
            c = (lv["normal"] @ x).tolist()
            n_sq = lv["normal_sq"].tolist()
            par_dens = [den * den * q for q in n_sq]
            if lv["kind"] == "edge":
                nums = [ci * ci for ci in c]
            else:
                nums = [x_sq * q - ci * ci for ci, q in zip(c, n_sq)]
        ints.append((nums, par_dens))
    with mpmath.workprec(bits):
        eps = _phase_eps(bits)
        pi = +mpmath.pi
        pi_f, m2pi_i = float(pi), mpmath.mpc(0, -2) * pi
        mod = den * g["v_scale"]
        below = [(phase(r, mod), eps) for r in (g["verts"] @ x).tolist()]
        levels = [below]
        for lv, (faces, scale), (nums, par_dens) in zip(g["levels"], _level_children(p), ints):
            measures = [mpmath.sqrt(ratio(q.numerator, q.denominator)) for q in lv["measure_sq"]]
            out = []
            for f, children in enumerate(faces):
                if nums[f] == 0:
                    ph = phase(int(lv["centroid"][f] @ x), den * lv["c_scale"])
                    out.append((measures[f] * ph, 2 * eps * float(measures[f])))
                    continue
                acc, err = mpmath.mpc(0), 0.0
                for j, m in children:
                    coeff = idot(x.tolist(), m)
                    if coeff == 0:
                        continue
                    # <x / den, m / scale> over |m / scale|
                    w = ratio(coeff, scale * den) / mpmath.sqrt(ratio(idot(m, m), scale * scale))
                    z, e = below[j]
                    acc = acc + w * z
                    aw = abs(float(w))
                    err += aw * e + aw * (float(abs(z)) + 1) * 3 * eps
                s = ratio(nums[f], par_dens[f])
                val = acc / (m2pi_i * s)
                out.append((val, err / (2 * pi_f * float(s)) + (float(abs(val)) + 1) * 2 * eps))
            levels.append(out)
            below = out
        return levels


# two parallel generators: edges and facet children that share a direction
# but not a length, so their weights fall into different classes
_PARALLEL_GENERATORS = ((1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def _walk_cases():
    """Seeded zonotopes and catalog shapes, each with small, flat-branch and
    10^9-denominator frequencies."""
    from spectile import make

    rng = random.Random(23)
    names = ("interval", "triangle", "hexagon", "cube", "truncated-octahedron", "rhombic-icosahedron")
    shapes = [make(n) for n in names + ("rhombic-dodecahedron", "elongated-dodecahedron")]
    shapes += [random_zonotope(rng, k, d) for k, d in ((4, 2), (5, 3), (6, 3))]
    shapes.append(zonotope(_PARALLEL_GENERATORS))
    for p in shapes:
        d = p.dim
        xis = [random_frequency(rng, d), random_frequency(rng, d, span=50, max_den=97)]
        # along an axis and along a facet normal: edges and facets of the
        # cube, zonotope facets parallel to the frequency, take the flat branch
        xis.append((Rat(rng.randint(1, 9), rng.randint(1, 9)),) + (Rat(0),) * (d - 1))
        xis.append(tuple(Rat(c, 3) for c in p.facets[0].normal))
        xis.append(tuple(Rat(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(d)))
        yield p, xis


@pytest.mark.parametrize(
    "shape, counts",
    [
        ("cube", (3, 3, 3)),
        ("hexagon", (3, 3)),
        ("triangle", (3, 3)),
        ("truncated-octahedron", (6, 18, 7)),
        ("rhombic-dodecahedron", (4, 12, 6)),
        ("parallel", (4, 11, 6)),
    ],
)
def test_walk_weight_classes(shape, counts):
    from spectile import make

    p = zonotope(_PARALLEL_GENERATORS) if shape == "parallel" else make(shape)
    levels = _batch_geometry(p)["levels"]
    assert tuple(len(lv["lams"]) for lv in levels) == counts
    # every child is +-lam times its class row, with the class's |m|^2, and
    # each face lists its own children in order
    for lv, (faces, scale) in zip(levels, _level_children(p)):
        assert [[j for j, _, _ in face] for face in lv["terms"]] == [[j for j, _ in face] for face in faces]
        for face, children in zip(lv["terms"], faces):
            for (_, k, flip), (_, m) in zip(face, children):
                (num, dnm), row = lv["lams"][k], lv["rows"][k]
                assert [Rat(c, scale) for c in m] == [Rat((-num if flip else num) * c, dnm) for c in row]
                assert lv["m_sq"][k] == Rat(idot(m, m), scale * scale)


def _mpf_values(max_exp):
    """libmp values: zero, or a signed mantissa of up to 1100 bits times a
    power of two within max_exp."""
    return st.builds(from_man_exp, st.integers(-(2**1100), 2**1100), st.integers(-max_exp, max_exp))


@settings(max_examples=60, deadline=None)
@given(_mpf_values(3000), _mpf_values(3000), _mpf_values(3000).filter(lambda d: d != fzero), st.sampled_from((128, 1024)))
@example(fzero, fzero, from_man_exp(-3, 7), 128)
@example(from_man_exp(-1, -2000), from_man_exp(2**1099 + 1, 2000), from_man_exp(-(2**129) - 1, 0), 1024)
# where rounding d^2, b d and -a d at bits + 10 down, not to nearest,
# decides a last bit of the quotient
@example(
    from_man_exp(-385146510133324782401896648653, 31),
    from_man_exp(-1086745460028270916204215323121, 15),
    from_man_exp(1090898229246782695580982706883, 17),
    128,
)
@example(
    from_man_exp(1103542326219654135272654659983, 25),
    from_man_exp(-311070817717476855905068669397, -38),
    from_man_exp(528683260623541898106053758785, 22),
    128,
)
@example(
    from_man_exp(-1198906774789709922826386307411, 39),
    from_man_exp(-306740908208401733628789465853, -37),
    from_man_exp(872826821621529105614707129043, -49),
    128,
)
def test_div_imag_is_mpc_div(a, b, d, bits):
    assert _div_imag((a, b), _imag_divisor(d, bits), bits) == mpc_div((a, b), (fzero, d), bits, "n")


def _flat_faces(p, x):
    """Faces of the edge and facet levels that take the flat branch at x:
    those where the frequency projects to zero on the face's directions."""
    from spectile.fourier import _batch_geometry

    x = np.array([int(c) for c in x], dtype=object)
    count = 0
    for lv in _batch_geometry(p)["levels"][:-1]:
        c = lv["normal"] @ x
        par = c * c if lv["kind"] == "edge" else (x @ x) * lv["normal_sq"] - c * c
        count += int((par == 0).sum())
    return count


def test_walk_matches_the_mpmath_object_reference():
    from spectile.walk import _walk_hp

    cases = list(_walk_cases())
    assert sum(_flat_faces(p, x) for p, xis in cases for x in _integer_rows(xis)[0]) > 0
    for bits in (128, 256, 512, 1024):
        for p, xis in cases:
            X, D = _integer_rows(xis)
            for x, den in zip(X, D):
                got = _walk_hp(p, x, den, bits)
                ref = _walk_reference(p, x, den, bits)
                assert [[(z._mpc_, e) for z, e in level] for level in got] == [
                    [(z._mpc_, e) for z, e in level] for level in ref
                ]
