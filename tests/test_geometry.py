import random
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectile import AffineMap, Rat, from_halfspaces, from_vertices, zonotope
from spectile.errors import (
    DimensionMismatch,
    Empty,
    NotFullDimensional,
    PreconditionFailed,
    SingularMap,
    Unbounded,
    ZeroDimensionalFace,
)
from spectile.geometry import Facet, Polytope, facet_widths
from spectile.linalg import (
    clear_denominators,
    cross3,
    det,
    is_zero_vec,
    primitive,
    rank,
    solve,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
)

from conftest import gram_det, random_generators


def shoelace(points):
    """Independent polygon-area oracle over an ordered vertex cycle."""
    acc = Rat(0)
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) / 2


def zonotope_volume_oracle(gens):
    """Sum over generator triples |det|; the classical zonotope volume."""
    from itertools import combinations

    d = len(gens[0])
    total = Rat(0)
    for sub in combinations(gens, d):
        total += abs(det(tuple(sub)))
    return total


def test_cube_combinatorics(cube):
    assert cube.f_vector() == (8, 12, 6)
    assert all(len(f.indices) == 4 for f in cube.facets)


def test_redundant_points_removed(cube):
    pts = list(cube.vertices) + [(0, 0, 0), (Rat(1, 2), 0, 0), (Rat(1, 2), Rat(1, 2), 0)]
    assert from_vertices(pts) == cube


def test_truncated_octahedron_combinatorics(truncated_octahedron):
    to = truncated_octahedron
    v, e, f = to.f_vector()
    assert (v, e, f) == (24, 36, 14)
    assert v - e + f == 2
    sizes = sorted(len(fc.indices) for fc in to.facets)
    assert sizes == [4] * 6 + [6] * 8


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(NotFullDimensional):
        from_vertices([(0, 0), (1, 1), (2, 2)])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        from_vertices([(0, 0), (1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        from_vertices([(0, 0, 0, 0), (1, 0, 0, 0)])


def test_halfspaces_cube(cube):
    hs = []
    for i in range(3):
        for s in (1, -1):
            n = [0, 0, 0]
            n[i] = s
            hs.append((tuple(n), Rat(1, 2)))
    assert from_halfspaces(hs) == cube


def test_halfspaces_rotated_square():
    hs = [((1, 1), 1), ((1, -1), 1), ((-1, 1), 1), ((-1, -1), 1)]
    sq = from_halfspaces(hs)
    assert set(sq.vertices) == {(Rat(1), Rat(0)), (Rat(0), Rat(1)), (Rat(-1), Rat(0)), (Rat(0), Rat(-1))}


def test_halfspaces_truncated_octahedron(truncated_octahedron):
    hs = []
    for i in range(3):
        for s in (1, -1):
            n = [0, 0, 0]
            n[i] = s
            hs.append((tuple(n), 2))
    for signs in product((1, -1), repeat=3):
        hs.append((signs, 3))
    assert from_halfspaces(hs) == truncated_octahedron


def test_halfspaces_errors():
    with pytest.raises(Unbounded):
        from_halfspaces([((1, 0), 1), ((0, 1), 1), ((-1, 0), 1)])
    with pytest.raises(Unbounded):
        from_halfspaces([((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1)])
    with pytest.raises(Empty):
        from_halfspaces([((1, 0), Rat(-1)), ((-1, 0), Rat(-1)), ((0, 1), 1), ((0, -1), 1)])
    with pytest.raises(NotFullDimensional):
        from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])


def _recession_ray(normals, d):
    """The message of Unbounded for these normals, or None when the
    recession cone {u : <n, u> <= 0 for all n} is {0}.

    A reference by candidate rays: with full-rank normals a nonzero cone
    is pointed and has an extreme ray on d - 1 of the boundary planes, so
    it suffices to try the axis directions in 1D, the perpendiculars of
    the normals in 2D and the cross products of normal pairs in 3D.
    """
    if rank(normals) < d:
        return "normals do not span the space"
    if d == 1:
        rays = [(Rat(1),), (Rat(-1),)]
    elif d == 2:
        rays = [(-n[1], n[0]) for n in normals]
    else:
        rays = [cross3(a, b) for a, b in combinations(normals, 2)]
    for u in rays + [vneg(u) for u in rays]:
        if not is_zero_vec(u) and all(vdot(n, u) <= 0 for n in normals):
            return "recession cone contains a ray"
    return None


def _halfspace_reference(hs, d):
    """from_halfspaces by the candidate-ray test and brute-force vertex
    enumeration."""
    hs = [(tuple(Rat(c) for c in n), Rat(off)) for n, off in hs]
    message = _recession_ray([n for n, _ in hs], d)
    if message:
        raise Unbounded(message)
    vertices = []
    for sub in combinations(hs, d):
        x = solve(tuple(n for n, _ in sub), tuple(off for _, off in sub))
        if x is not None and all(vdot(n, x) <= off for n, off in hs):
            vertices.append(x)
    if not vertices:
        raise Empty("halfspace intersection is empty")
    return from_vertices(vertices)


def _outcome(build, *args):
    try:
        p = build(*args)
    except Exception as exc:  # noqa: BLE001 -- the type is compared
        return type(exc), str(exc)
    return p.vertices, p.facets


def test_halfspaces_match_recession_ray_reference():
    # bounded, unbounded (normals in a half-space), flat (a plane taken
    # twice with both signs) and empty systems in dimensions 1-3
    rng = random.Random(20261018)
    seen = set()
    for trial in range(240):
        d = 1 + trial % 3
        hs = []
        for _ in range(rng.randint(1, 2 * d + 2)):
            n = tuple(rng.randint(-3, 3) for _ in range(d))
            if not any(n):
                n = (1,) + n[1:]
            hs.append((n, Rat(rng.randint(-4, 8), rng.randint(1, 3))))
        kind = trial // 3 % 4
        if kind == 1:
            hs = [((abs(n[0]) or 1,) + n[1:], off) for n, off in hs]
        elif kind == 2:
            hs.append((vneg(hs[0][0]), -hs[0][1]))
        elif kind == 3:
            hs.append((vneg(hs[0][0]), -hs[0][1] - 1))
        expected = _outcome(_halfspace_reference, hs, d)
        assert _outcome(from_halfspaces, hs) == expected, hs
        seen.add(expected[0] if isinstance(expected[0], type) else Polytope)
    assert seen == {Polytope, Unbounded, Empty, NotFullDimensional}


def test_roundtrip_halfspaces_vertices(hexagon, rhombic_dodecahedron):
    for p in (hexagon, rhombic_dodecahedron):
        hs = [(f.normal, f.offset) for f in p.facets]
        assert from_halfspaces(hs) == p


def test_volume_examples(cube, hexagon, truncated_octahedron):
    assert cube.volume == 1
    assert hexagon.volume == 3
    assert shoelace([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]) == 3
    assert truncated_octahedron.volume == 32


def test_volume_zonotope_oracle():
    rng = random.Random(7)
    for _ in range(12):
        gens = random_generators(rng, rng.randint(3, 5))
        assert zonotope(gens).volume == zonotope_volume_oracle(gens)


def test_face_measures(cube):
    k = cube.dim - 1
    for fi in range(len(cube.facets)):
        assert cube.face_measure_squared((k, fi)) == 1
    edge = from_vertices([(0, 0, 0), (1, 2, 2), (1, 0, 0), (0, 0, 1)])
    eidx = edge.faces(1).index(tuple(sorted((edge.vertices.index((Rat(0), Rat(0), Rat(0))), edge.vertices.index((Rat(1), Rat(2), Rat(2)))))))
    assert edge.face_measure_squared((1, eidx)) == 9
    # formed once per polytope: a second call returns the cached value
    first = edge.face_measure_squared((2, 0))
    assert edge.face_measure_squared((2, 0)) is first
    assert edge._cache[("face_measure_squared", (2, 0))] is first
    with pytest.raises(ZeroDimensionalFace):
        cube.face_measure_squared((0, 0))
    assert ("face_measure_squared", (0, 0)) not in cube._cache


def test_rhombic_dodecahedron_facets_equal(rhombic_dodecahedron):
    rd = rhombic_dodecahedron
    areas = {rd.face_measure_squared((2, fi)) for fi in range(len(rd.facets))}
    assert len(areas) == 1
    # independent Gram-determinant oracle per facet triangle
    gram_profiles = set()
    for fi in range(len(rd.facets)):
        pts = rd.facet_points(fi)
        tri = tuple(
            sorted(
                gram_det([vsub(pts[k], pts[0]), vsub(pts[k + 1], pts[0])])
                for k in range(1, len(pts) - 1)
            )
        )
        gram_profiles.add(tri)
    assert len(gram_profiles) == 1


def test_apply_affine(cube, hexagon):
    box = cube.apply_affine(AffineMap.linear([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert box.volume == 2
    sheared = hexagon.apply_affine(AffineMap.linear([[1, 1], [0, 1]]))
    assert sheared.volume == 3
    assert sheared.f_vector() == hexagon.f_vector()
    assert cube.apply_affine(AffineMap.linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == cube
    with pytest.raises(SingularMap):
        AffineMap.linear([[1, 0], [1, 0]])


def test_affine_volume_covariance():
    rng = random.Random(3)
    for _ in range(10):
        while True:
            m = tuple(tuple(Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)) for _ in range(3))
            if det(m) != 0:
                break
        amap = AffineMap.linear(m)
        p = zonotope(random_generators(rng, 4))
        q = p.apply_affine(amap)
        assert q.volume == abs(det(m)) * p.volume


def test_subfacet_in_two_facets(cube, hexagon, truncated_octahedron, elongated_dodecahedron):
    for p in (cube, truncated_octahedron, elongated_dodecahedron):
        for e in p.subfacets():
            assert len(p.facets_of_subfacet(e)) == 2
    for v in hexagon.subfacets():
        assert len(hexagon.facets_of_subfacet(v)) == 2


def test_euler_relation_random_zonotopes():
    rng = random.Random(11)
    for _ in range(15):
        p = zonotope(random_generators(rng, rng.randint(3, 6)))
        v, e, f = p.f_vector()
        assert v - e + f == 2
        for fc in p.facets:
            assert len(fc.indices) >= 3


def test_interval(interval):
    assert interval.dim == 1
    assert interval.volume == 1
    assert interval.f_vector() == (2,)


def test_memo_keeps_values_not_failures(square):
    from spectile import make
    from spectile.geometry import memo

    calls = []

    @memo
    def stage(p, k):
        calls.append(k)
        if k < 0:
            raise PreconditionFailed("negative")
        return [k]

    assert stage(square, 1) is stage(square, 1)
    assert stage(square, 2) == [2]
    for _ in range(2):
        with pytest.raises(PreconditionFailed):
            stage(square, -1)
    assert calls == [1, 2, -1, -1]
    assert stage(make("square"), 1) is not stage(square, 1)  # one memo per polytope
    assert calls == [1, 2, -1, -1, 1]


def test_facet_cycles_are_planar_convex(truncated_octahedron):
    to = truncated_octahedron
    for fi, f in enumerate(to.facets):
        pts = to.facet_points(fi)
        for q in pts:
            from spectile.linalg import vdot

            assert vdot(f.normal, q) == f.offset


def test_zonotope_guard():
    with pytest.raises(DimensionMismatch):
        zonotope([])
    with pytest.raises(DimensionMismatch):
        zonotope([(0, 0)])
    with pytest.raises(DimensionMismatch):
        zonotope([(1, 0)] * 20)


def _corner_hull(gens):
    """The gift-wrap hull of all 2^k corners sum(+-g/2)."""
    corners = [tuple(Rat(0) for _ in gens[0])]
    for g in gens:
        g = tuple(Rat(c) for c in g)
        corners = [vadd(c, vscale(g, s)) for c in corners for s in (Rat(1, 2), Rat(-1, 2))]
    return from_vertices(corners)


small_rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def zonotope_generators(draw):
    """2D or 3D generators with denominators up to 6, at most seven of
    them: repeated and parallel copies, an optional coplanar zone (a share
    of the generators moved into the plane z = 0) and optional
    all-coplanar input; zero generators are dropped."""
    dim = draw(st.sampled_from((2, 3)))
    vec = st.tuples(*[small_rationals] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=5))
    factors = st.sampled_from((Rat(1), Rat(-2), Rat(-1), Rat(1, 2), Rat(3, 2), Rat(-5, 6)))
    for g in draw(st.lists(st.sampled_from(gens), max_size=2)):
        gens.append(vscale(g, draw(factors)))
    if dim == 3:
        flat = draw(st.sampled_from(("none", "zone", "all")))
        if flat != "none":
            cut = len(gens) if flat == "all" else draw(st.integers(2, len(gens) + 1))
            gens = [(g[0], g[1], Rat(0)) if i < cut else g for i, g in enumerate(gens)]
            gens = [g for g in gens if any(g)] or [(Rat(1), Rat(0), Rat(0))]
    return gens


@settings(max_examples=60, deadline=None)
@given(zonotope_generators())
@example([(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
@example([(1, 1, 0), (2, -1, 0), (-1, 3, 0)])
# seven generators over denominators up to 6, one of them repeated
@example([(Rat(1, 6), Rat(-5, 4), Rat(2, 3)), (Rat(1, 5), 0, Rat(1, 2)), (0, Rat(1, 3), 1), (Rat(1, 6), Rat(-5, 4), Rat(2, 3)),
          (Rat(-1, 3), Rat(5, 2), Rat(-4, 3)), (Rat(1, 5), 1, 0), (Rat(1, 2), Rat(1, 2), Rat(1, 2))])
@example([(Rat(1, 2), Rat(1, 3)), (Rat(-1, 4), Rat(-1, 6)), (Rat(5, 6), 0), (Rat(5, 6), 0)])
# the catalog's generator lists: interval, square, cube, hexagon, hexagonal
# prism and truncated octahedron
@example([(1,)])
@example([(1, 0), (0, 1)])
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
@example([(1, -1), (1, 0), (0, 1)])
@example([(1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)])
@example([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)])
def test_zonotope_matches_corner_hull(gens):
    """zonotope() reads the face lattice off the generators, on integer
    rows over one scale; it must equal the hull of the 2^k Rat corners,
    vertex, facet and 2D cycle, with the rows in least form."""
    try:
        expected = _corner_hull(gens)
    except NotFullDimensional:
        with pytest.raises(NotFullDimensional):
            zonotope(gens)
        return
    z = zonotope(gens)
    assert z.vertices == expected.vertices
    assert z.facets == expected.facets
    assert z._cycle2d == expected._cycle2d
    scale, rows = clear_denominators(z.vertices)
    assert z.integer_vertices == (scale, tuple(map(tuple, rows)))


def test_contains_and_support(cube):
    assert cube.contains((0, 0, 0), strict=True)
    assert cube.contains((Rat(1, 2), 0, 0)) and not cube.contains((Rat(1, 2), 0, 0), strict=True)
    assert not cube.contains((1, 0, 0))
    assert cube.support((1, 1, 1)) == Rat(3, 2)


def test_mc_volume_agreement(truncated_octahedron, hexagon):
    from spectile import SampleConfig, mc_volume

    for p in (hexagon, truncated_octahedron):
        mv = mc_volume(p, SampleConfig(count=10**6, seed=20170529))
        assert abs(mv.estimate - float(p.volume)) <= 3 * mv.stderr


def _brute_force_hull(points):
    """{(normal, offset): vertex set} of the facets of a 3D hull, from every
    plane through three points that has all points on one side; the
    vertices are the points on three facets of independent normals."""
    pts = sorted({tuple(Rat(c) for c in q) for q in points})
    planes = {}
    for a, b, c in combinations(pts, 3):
        n = cross3(vsub(b, a), vsub(c, a))
        if is_zero_vec(n):
            continue
        for m in (n, vneg(n)):
            if all(vdot(m, q) <= vdot(m, a) for q in pts):
                m = primitive(m)
                planes[m] = vdot(m, a)
    on = {q: [n for n, off in planes.items() if vdot(n, q) == off] for q in pts}
    vertices = {q for q, ns in on.items() if rank(ns) == 3}
    return {(n, off): {q for q in vertices if n in on[q]} for n, off in planes.items()}


small_points = st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=10)


@settings(max_examples=60, deadline=None)
@given(small_points)
# each seed outcome: the plane over the first edge of the hull projected
# along x supports a facet or an edge, and the smallest x is taken by a
# facet, an edge or a single vertex
@example([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])  # facet; facet
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])  # edge; vertex
@example([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1)])  # facet; vertex
@example([(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1), (1, 0, 0)])  # facet; edge
def test_hull_matches_brute_force_facets(points):
    try:
        p = from_vertices(points)
    except NotFullDimensional:
        assert rank([vsub(q, points[0]) for q in points]) < 3
        return
    found = {(f.normal, f.offset): {p.vertices[i] for i in f.indices} for f in p.facets}
    assert found == _brute_force_hull(points)


def _malformed(dim, vertices, facets, integer=None):
    """Polytope(dim, vertices, facets) from integer data; facets are
    (index cycle, normal, offset), integer the builder's (scale, rows)."""
    vertices = tuple(tuple(Rat(c) for c in v) for v in vertices)
    return Polytope(dim, vertices, tuple(Facet(ix, n, Rat(off)) for ix, n, off in facets), integer=integer)


def test_validation_rejects_malformed_lattices():
    # every supporting-plane equality holds; only the face lattice is wrong
    edges = [((0, 1), (0, -1), 0), ((0, 2), (-1, 0), 0), ((1, 2), (1, 1), 1)]
    triangle = [(0, 0), (1, 0), (0, 1)]
    assert _malformed(2, triangle, edges).f_vector() == (3, 3)
    with pytest.raises(AssertionError, match="Euler"):  # a vertex in no facet
        _malformed(2, triangle + [(Rat(1, 4), Rat(1, 4))], edges)
    # builder rows are kept in least form, and must be the vertices
    doubled = (2, tuple((2 * x, 2 * y) for x, y in triangle))
    assert _malformed(2, triangle, edges, integer=doubled).integer_vertices == (1, tuple(triangle))
    with pytest.raises(AssertionError, match="integer rows differ"):
        _malformed(2, triangle, edges, integer=(1, ((0, 0), (1, 0), (0, 2))))
    tetra = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [
        ((0, 2, 1), (0, 0, -1), 0),
        ((0, 1, 3), (0, -1, 0), 0),
        ((0, 3, 2), (-1, 0, 0), 0),
        ((1, 2, 3), (1, 1, 1), 1),
    ]
    assert _malformed(3, tetra, faces).f_vector() == (4, 6, 4)
    with pytest.raises(AssertionError, match="lies in 3 facets"):  # a facet listed twice
        _malformed(3, tetra, faces + faces[:1])
    with pytest.raises(AssertionError, match="Euler"):  # an interior vertex
        _malformed(3, tetra + [(Rat(1, 8), Rat(1, 8), Rat(1, 8))], faces)


# --- metric quantities against their Fraction-tuple form ---------------------


def _metric_reference(p, directions):
    """volume, face measures, diameter, vertex centroid, support values and
    facet widths computed on the Fraction vertex tuples directly: the form
    these quantities had before they moved to the integer vertex rows."""
    from spectile.linalg import centroid, cross2, norm_sq

    V = p.vertices
    if p.dim == 1:
        volume = V[-1][0] - V[0][0]
    elif p.dim == 2:
        cyc = p._cycle2d
        volume = abs(sum((cross2(V[a], V[b]) for a, b in zip(cyc, cyc[1:] + cyc[:1])), Rat(0))) / 2
    else:
        volume = Rat(0)
        for fi, f in enumerate(p.facets):
            if 0 not in f.indices:
                pts = p.facet_points(fi)
                for k in range(1, len(pts) - 1):
                    volume += abs(det((vsub(pts[0], V[0]), vsub(pts[k], V[0]), vsub(pts[k + 1], V[0]))))
        volume /= 6
    measures = {}
    for k in range(1, p.dim):
        for idx, members in enumerate(p.faces(k)):
            if k == 1:
                a, b = (V[i] for i in members)
                measures[k, idx] = norm_sq(vsub(b, a))
            else:
                pts = p.facet_points(idx)
                acc = (Rat(0),) * 3
                for j in range(1, len(pts) - 1):
                    acc = vadd(acc, cross3(vsub(pts[j], pts[0]), vsub(pts[j + 1], pts[0])))
                measures[k, idx] = norm_sq(acc) / 4
    diameter = max(norm_sq(vsub(a, b)) for a, b in combinations(V, 2))
    support = [max(vdot(u, v) for v in V) for u in directions]
    widths = [max(vdot(f.normal, v) for v in V) + max(vdot(vneg(f.normal), v) for v in V) for f in p.facets]
    return volume, measures, diameter, centroid(V), support, widths


metric_rationals = st.builds(Rat, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def metric_polytopes(draw):
    """A 1-3D hull of drawn points, a box cut by drawn halfspaces, or a
    zonotope, all with rational coordinates; and support directions."""
    dim = draw(st.sampled_from((1, 2, 3)))
    vec = st.tuples(*[metric_rationals] * dim)
    kind = draw(st.sampled_from(("hull", "halfspaces", "zonotope")))
    try:
        if kind == "hull":
            p = from_vertices(draw(st.lists(vec, min_size=dim + 1, max_size=9)))
        elif kind == "halfspaces":
            hs = []
            for i in range(dim):
                e = tuple(Rat(int(j == i)) for j in range(dim))
                hs += [(e, draw(metric_rationals.filter(lambda r: r > 0))), (vneg(e), draw(metric_rationals.filter(lambda r: r > 0)))]
            hs += draw(st.lists(st.tuples(vec.filter(any), metric_rationals), max_size=3))
            p = from_halfspaces(hs)
        else:
            p = zonotope(draw(st.lists(vec.filter(any), min_size=1, max_size=5)))
    except (NotFullDimensional, Empty):
        assume(False)
    directions = [f.normal for f in p.facets[:2]] + draw(st.lists(vec, min_size=1, max_size=2))
    return p, directions


@settings(max_examples=80, deadline=None)
@given(metric_polytopes())
@example((from_vertices([(Rat(1, 3),), (Rat(-5, 2),)]), [(Rat(7, 5),)]))
@example((zonotope([(Rat(1, 2), Rat(1, 3), 0), (0, Rat(2, 5), Rat(1, 7)), (Rat(3, 4), 0, Rat(-1, 6))]), [(1, 1, 1)]))
def test_metric_quantities_match_fraction_reference(case):
    from fractions import Fraction

    p, directions = case
    volume, measures, diameter, center, support, widths = _metric_reference(p, directions)
    got_measures = {face: p.face_measure_squared(face) for face in measures}
    got = [p.volume, p.diameter_sq, *got_measures.values(), *p.vertex_centroid]
    got += [p.support(u) for u in directions] + list(facet_widths(p))
    assert all(type(x) is Fraction for x in got)
    assert p.volume == volume and p.diameter_sq == diameter and got_measures == measures
    assert p.vertex_centroid == center
    assert [p.support(u) for u in directions] == support
    assert list(facet_widths(p)) == widths
