import random

import pytest

from spectile import AffineMap, Rat, from_vertices, zonotope
from spectile.errors import NotSymmetric
from spectile.linalg import centroid, det, rank, vadd, vsub
from spectile.symmetry import (
    center_of_symmetry,
    facet_symmetry_check,
    minkowski_check,
    symmetry_report,
    tau_vectors,
)

from conftest import random_generators

# Convex hexagon with three pairs of parallel edges of unequal lengths:
# the pair along (1,2) has squared lengths 5 and 20.
UNBALANCED_HEXAGON = ((0, 0), (2, 0), (3, 2), (3, 5), (2, 5), (0, 1))


def test_center_examples(cube, triangle, hexagon):
    assert center_of_symmetry(cube) == (0, 0, 0)
    assert center_of_symmetry(triangle) is None
    assert center_of_symmetry(hexagon) == (0, 0)


def test_center_brute_force_oracle(hexagon):
    # brute check 2c - V = V over the centroid candidate
    c = centroid(hexagon.vertices)
    doubled = vadd(c, c)
    assert {vsub(doubled, v) for v in hexagon.vertices} == set(hexagon.vertices)


def test_minkowski_symmetric_solids(cube, hexagon, rhombic_dodecahedron, truncated_octahedron):
    for p in (cube, hexagon, rhombic_dodecahedron, truncated_octahedron):
        assert minkowski_check(p).passed


def test_minkowski_triangle(triangle):
    res = minkowski_check(triangle)
    assert not res.passed
    assert res.witness_kind == "no-parallel-facet"


def test_minkowski_unbalanced_hexagon():
    p = from_vertices(UNBALANCED_HEXAGON)
    assert len(p.facets) == 6
    assert center_of_symmetry(p) is None
    res = minkowski_check(p)
    assert not res.passed
    assert res.witness_kind == "unequal-measure"
    # the witness pair has unequal measures
    k = p.dim - 1
    fi = res.witness_facet
    fj = p.opposite_facet(fi)
    assert p.face_measure_squared((k, fi)) != p.face_measure_squared((k, fj))
    # and the pair along direction (1,2) has squared lengths 5 vs 20
    from spectile.linalg import primitive

    by_dir = {}
    for i, f in enumerate(p.facets):
        a, b = (p.vertices[j] for j in f.indices)
        by_dir.setdefault(primitive(vsub(b, a), canonical_sign=True), []).append(
            p.face_measure_squared((k, i))
        )
    assert sorted(by_dir[(1, 2)]) == [Rat(5), Rat(20)]


def test_facet_symmetry(truncated_octahedron, rhombic_dodecahedron, triangle):
    ok, wit = facet_symmetry_check(truncated_octahedron)
    assert ok and wit == ()
    ok, _ = facet_symmetry_check(rhombic_dodecahedron)
    assert ok
    # planar case is vacuous
    ok, _ = facet_symmetry_check(triangle)
    assert ok


def test_facet_symmetry_triangular_prism():
    tri_prism = from_vertices(
        [(x, y, z) for (x, y) in ((0, 0), (1, 0), (0, 1)) for z in (Rat(-1, 2), Rat(1, 2))]
    )
    ok, witnesses = facet_symmetry_check(tri_prism)
    assert not ok
    # the witnesses are the two triangular facets
    assert len(witnesses) == 2
    for fi in witnesses:
        assert len(tri_prism.facets[fi].indices) == 3


def test_tau_cube(cube):
    taus = {t.tau for t in tau_vectors(cube)}
    assert taus == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_tau_hexagon(hexagon):
    taus = {t.tau for t in tau_vectors(hexagon)}
    assert (1, 1) in taus
    assert len(taus) == 3
    # each pair translates exactly: F = F' + tau
    for t in tau_vectors(hexagon):
        small = set(hexagon.facet_points(t.opposite))
        big = set(hexagon.facet_points(t.facet))
        assert {vadd(v, t.tau) for v in small} == big


def test_tau_box(cube):
    box = cube.apply_affine(AffineMap.linear([[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert {t.tau for t in tau_vectors(box)} == {(2, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_tau_requires_symmetry(triangle):
    with pytest.raises(NotSymmetric):
        tau_vectors(triangle)


def test_tau_affine_covariance(hexagon):
    rng = random.Random(5)
    for _ in range(8):
        while True:
            m = tuple(tuple(Rat(rng.randint(-3, 3)) for _ in range(2)) for _ in range(2))
            if det(m) != 0:
                break
        amap = AffineMap.linear(m)
        image = hexagon.apply_affine(amap)
        expected = {tuple(amap.apply(t.tau)) for t in tau_vectors(hexagon)}
        expected |= {tuple(vsub((Rat(0), Rat(0)), v)) for v in expected}
        got = {t.tau for t in tau_vectors(image)}
        assert all(t in expected for t in got)


def test_zonotopes_always_symmetric():
    rng = random.Random(2024)
    for _ in range(20):
        p = zonotope(random_generators(rng, rng.randint(3, 6)))
        assert center_of_symmetry(p) is not None
        assert minkowski_check(p).passed
        ok, _ = facet_symmetry_check(p)
        assert ok
        tau_vectors(p)  # must not raise


def _symmetrized(rng, dim):
    pts = [tuple(Rat(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(dim)) for _ in range(dim + 3)]
    pts += [tuple(-c for c in p) for p in pts]
    try:
        return from_vertices(pts)
    except Exception:
        return None


def _perturbed(rng, p):
    # push one vertex outward from the centroid; extremality is preserved
    c = centroid(p.vertices)
    v = p.vertices[rng.randrange(len(p.vertices))]
    v2 = vadd(v, tuple((a - b) / 2 for a, b in zip(v, c)))
    pts = [q for q in p.vertices if q != v] + [v2]
    return from_vertices(pts)


def test_minkowski_equivalence_random():
    # both directions of the facet-pairing criterion on 200 mixed shapes
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        dim = rng.choice((2, 3))
        kind = rng.randrange(3)
        if kind == 0:
            p = zonotope(random_generators(rng, rng.randint(dim, dim + 2), dim))
        else:
            p = _symmetrized(rng, dim)
            if p is None:
                continue
            if kind == 2:
                p = _perturbed(rng, p)
        assert minkowski_check(p).passed == (center_of_symmetry(p) is not None)
        checked += 1


def test_symmetry_report_fields(hexagon, triangle):
    rep = symmetry_report(hexagon)
    assert rep.is_centrally_symmetric and rep.minkowski_pass
    assert len(rep.facet_pairs) == 3
    rep = symmetry_report(triangle)
    assert not rep.is_centrally_symmetric and not rep.minkowski_pass
    assert rep.facet_pairs == ()


# --- symmetry and belt keys against their Fraction-tuple form ----------------


def _symmetry_reference(p):
    """center, facet-symmetry witnesses, tau pairs, prism witness and edge
    class keys computed on the Fraction vertex tuples directly: the form
    these stages had before they moved to the integer vertex rows.  tau
    pairs are None where tau_vectors must raise."""
    from spectile.linalg import norm_sq, primitive

    def symmetric(pts):
        c = centroid(pts)
        doubled = vadd(c, c)
        return all(vsub(doubled, v) in set(pts) for v in pts)

    def translate(fi, fj):
        # facet fi = facet fj + (centroid fi - centroid fj), as a set
        tau = vsub(centroid(p.facet_points(fi)), centroid(p.facet_points(fj)))
        return {vadd(v, tau) for v in p.facet_points(fj)} == set(p.facet_points(fi)), tau

    center = centroid(p.vertices) if symmetric(p.vertices) else None
    witnesses = tuple(fi for fi in range(len(p.facets)) if not symmetric(p.facet_points(fi))) if p.dim == 3 else ()
    pairs, prism, seen = [], None, set()
    for fi in range(len(p.facets)):
        fj = p.opposite_facet(fi)
        if fi in seen or fj is None:
            continue
        seen.update((fi, fj))
        ci, cj = centroid(p.facet_points(fi)), centroid(p.facet_points(fj))
        small, big = (fj, fi) if cj < ci else (fi, fj)
        ok, tau = translate(big, small)
        pairs.append((big, small, tau) if ok else None)
        n_i, n_j = len(p.facets[fi].indices), len(p.facets[fj].indices)
        if p.dim == 3 and prism is None and n_i == n_j and translate(fi, fj)[0] and n_i + n_j == len(p.vertices):
            prism = (min(fi, fj), max(fi, fj))
    if center is None or witnesses or len(seen) != len(p.facets) or None in pairs:
        pairs = None
    else:
        pairs = sorted(pairs, key=lambda t: t[2])
    keys = []
    if p.dim == 3:
        for a, b in p.subfacets():
            d = vsub(p.vertices[b], p.vertices[a])
            keys.append((primitive(d, canonical_sign=True), norm_sq(d)))
    return center, witnesses, pairs, prism, keys


def _reference_shapes():
    rng = random.Random(1406)
    shapes = []
    for dim in (2, 3) * 15:
        gens = [tuple(Rat(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dim)) for _ in range(rng.randint(dim, dim + 4))]
        gens = [g for g in gens if any(g)]
        if rank(gens) == dim:
            shapes.append(zonotope(gens))
        p = _symmetrized(rng, dim)
        if p is not None:
            shapes += [p, _perturbed(rng, p)]
    return shapes


def test_symmetry_and_belt_keys_match_fraction_reference(cube, hexagonal_prism, truncated_octahedron, rhombic_icosahedron, triangle):
    from spectile.tiling import _edge_class_key, is_prism

    shapes = [cube, hexagonal_prism, truncated_octahedron, rhombic_icosahedron, triangle] + _reference_shapes()
    kinds = {"symmetric": 0, "asymmetric facets": 0, "asymmetric": 0, "prism": 0}
    for p in shapes:
        center, witnesses, pairs, prism, keys = _symmetry_reference(p)
        assert center_of_symmetry(p) == center
        assert facet_symmetry_check(p) == (not witnesses, witnesses)
        if pairs is None:
            with pytest.raises(NotSymmetric):
                tau_vectors(p)
        else:
            assert [(t.facet, t.opposite, t.tau) for t in tau_vectors(p)] == pairs
        scale, V = p.integer_vertices
        if p.dim == 3:
            assert is_prism(p) == prism
            got = [_edge_class_key(V, e) for e in p.subfacets()]
            assert [(d, Rat(n, scale * scale)) for d, n in got] == keys
            assert sorted(got) == [(d, n * scale * scale) for d, n in sorted(keys)]
        kinds["prism"] += prism is not None
        kinds["asymmetric" if center is None else "asymmetric facets" if witnesses else "symmetric"] += 1
    assert all(kinds.values()), kinds
