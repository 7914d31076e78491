import random
from itertools import product

import pytest

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
from spectile.linalg import det, gram_det, vsub

from conftest import random_generators


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
    with pytest.raises(ZeroDimensionalFace):
        cube.face_measure_squared((0, 0))


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
