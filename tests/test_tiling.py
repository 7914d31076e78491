import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectile import AffineMap, Rat, from_vertices, geometry, make, tiling, zonotope
from spectile.errors import NotATiler, NotFullDimensional, PreconditionFailed
from spectile.linalg import INT64_MAX, centroid, clear_denominators, det, norm_sq, transpose, vadd, vsub
from spectile.tiling import (
    FEDOROV_TABLE,
    FedorovClass,
    Lattice,
    belts,
    covering_verify,
    fedorov_classify,
    is_prism,
    lattice_T,
    packing_verify,
    tau_lattice_closure,
    venkov_mcmullen,
)

from conftest import fraction_inverse, random_generators


def test_belts_cube(cube):
    bs = belts(cube)
    assert len(bs) == 3
    assert all(len(b) == 4 for b in bs)
    assert {b.direction for b in bs} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_belts_truncated_octahedron(truncated_octahedron):
    bs = belts(truncated_octahedron)
    assert sorted(len(b) for b in bs) == [6] * 6
    # hexagon-hexagon-square cycles: two squares and four hexagons per belt
    for b in bs:
        sizes = sorted(len(truncated_octahedron.facets[fi].indices) for fi in b.facets)
        assert sizes == [4, 4, 6, 6, 6, 6]


def test_belts_rhombic_icosahedron(rhombic_icosahedron):
    bs = belts(rhombic_icosahedron)
    assert sorted(len(b) for b in bs) == [8] * 5  # 2 (n - 1) facets per zone, n = 5
    assert all(len(b) % 2 == 0 and len(b) >= 4 for b in bs)


def test_facet_belt_membership(cube, rhombic_dodecahedron, truncated_octahedron):
    # parallelogram-faced solids: every facet carries exactly d - 1 = 2
    # belts; a hexagonal facet carries one belt per edge direction, 3
    def belt_counts(p):
        counts = {fi: 0 for fi in range(len(p.facets))}
        for b in belts(p):
            for fi in b.facets:
                counts[fi] += 1
        return counts

    for p in (cube, rhombic_dodecahedron):
        assert set(belt_counts(p).values()) == {2}
    to_counts = belt_counts(truncated_octahedron)
    for fi, f in enumerate(truncated_octahedron.facets):
        assert to_counts[fi] == (2 if len(f.indices) == 4 else 3)


def test_belt_cycles_are_cyclic_orderings(cube, truncated_octahedron):
    for p in (cube, truncated_octahedron):
        for b in belts(p):
            # consecutive facets in a belt share an edge of the belt class
            m = len(b.facets)
            for i in range(m):
                f1, f2 = b.facets[i], b.facets[(i + 1) % m]
                shared = set(p.facets[f1].indices) & set(p.facets[f2].indices)
                assert len(shared) == 2


def test_belts_precondition(triangle):
    prism_over_triangle = from_vertices(
        [(x, y, z) for (x, y) in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)]
    )
    with pytest.raises(PreconditionFailed):
        belts(prism_over_triangle)


def test_venkov_mcmullen_verdicts(triangle, hexagon, rhombic_icosahedron, square):
    assert not venkov_mcmullen(triangle).tiles
    assert not venkov_mcmullen(triangle).vm_centrally_symmetric
    assert venkov_mcmullen(hexagon).tiles
    assert venkov_mcmullen(square).tiles
    rep = venkov_mcmullen(rhombic_icosahedron)
    assert not rep.tiles
    assert rep.vm_centrally_symmetric and rep.vm_facets_symmetric
    assert rep.failing_belt_length == 8


def test_lattice_examples(cube, hexagon, truncated_octahedron):
    lt = lattice_T(cube)
    assert lt.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert lt.covolume == 1
    lt = lattice_T(hexagon)
    assert lt.basis == ((1, 1), (0, 3))
    assert lt.covolume == 3
    lt = lattice_T(truncated_octahedron)
    assert lt.covolume == 32 == truncated_octahedron.volume


def test_lattice_gate(rhombic_icosahedron):
    with pytest.raises(PreconditionFailed):
        lattice_T(rhombic_icosahedron)
    # the diagnostic closure is still a lattice for rational data
    closure = tau_lattice_closure(rhombic_icosahedron)
    assert closure.covolume > 0


def test_lattice_canonical_and_sign_invariance(hexagon):
    from spectile.symmetry import tau_vectors

    taus = [t.tau for t in tau_vectors(hexagon)]
    flipped = [tuple(-c for c in t) if i % 2 else t for i, t in enumerate(taus)]
    assert Lattice.from_generators(taus) == Lattice.from_generators(flipped)


def test_points_in_ball():
    z2 = Lattice.from_generators([(1, 0), (0, 1)])
    assert len(z2.points_in_ball(Rat(9, 4))) == 9
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(z3.points_in_ball(Rat(1))) == 7


def _ball_brute_force(lattice, radius_sq, strict=False):
    """The lattice points in the ball over a box of coefficients
    |k_i| <= R |b*_i| + 1, b*_i the dual rows, sorted.

    The basis is cleared once to integer rows Bi / den, so x = k Bi / den
    lies in the ball of radius^2 = p / q exactly when q |k Bi|^2 <= p den^2,
    compared in Python ints."""
    dual = transpose(fraction_inverse(lattice.basis))
    box = [int(math.sqrt(float(radius_sq) * float(norm_sq(row)))) + 1 for row in dual]
    den = math.lcm(*(Rat(c).denominator for row in lattice.basis for c in row))
    bi = [[int(c * den) for c in row] for row in lattice.basis]
    r2 = Rat(radius_sq)
    bound = r2.numerator * den * den
    out = []
    for k in itertools.product(*[range(-b, b + 1) for b in box]):
        x = [sum(c * row[j] for c, row in zip(k, bi)) for j in range(lattice.dim)]
        n = r2.denominator * sum(c * c for c in x)
        if (n < bound) if strict else (n <= bound):
            out.append(tuple(Rat(c, den) for c in x))
    return tuple(sorted(out))


@pytest.mark.parametrize("name", ["hexagon", "cube", "hexagonal-prism", "truncated-octahedron"])
def test_points_in_ball_match_fraction_brute_force_on_catalog_duals(name):
    dual = lattice_T(make(name)).dual()
    for radius_sq in (Rat(1), Rat(9, 4), Rat(4)):
        for strict in (False, True):
            got = dual.points_in_ball(radius_sq, strict)
            assert got == _ball_brute_force(dual, radius_sq, strict)
            assert all(isinstance(c, Rat) for x in got for c in x)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.builds(Rat, st.integers(-6, 6), st.integers(1, 5))] * d), min_size=d, max_size=d
        )
    ),
    st.builds(Rat, st.integers(0, 8), st.integers(1, 3)),
    st.booleans(),
)
def test_points_in_ball_match_fraction_brute_force_random_bases(gens, radius_sq, strict):
    assume(det(gens) != 0)
    lattice = Lattice.from_generators(gens)
    expected = _ball_brute_force(lattice, radius_sq, strict)
    assert lattice.points_in_ball(radius_sq, strict) == expected
    # the integer rows over the least common denominator, in the same order
    den, x = lattice.ball_rows(radius_sq, strict)
    assert x.dtype == np.int64 and x.shape == (len(expected), len(gens))
    assert den == math.lcm(*(c.denominator for q in expected for c in q))
    assert [tuple(Rat(c, den) for c in row) for row in x.tolist()] == list(expected)


def test_ball_rows_in_slabs_of_one_layer(monkeypatch):
    dual = lattice_T(make("truncated-octahedron")).dual()
    den, x = dual.ball_rows(Rat(9, 4))
    monkeypatch.setattr(tiling, "_BALL_SLAB", 1)
    slab_den, slab_x = dual.ball_rows(Rat(9, 4))
    assert slab_den == den and slab_x.dtype == x.dtype and np.array_equal(slab_x, x)


def test_points_in_ball_on_the_sphere_strict_and_not():
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(z3.points_in_ball(1)) == 7
    assert z3.points_in_ball(1, strict=True) == ((0, 0, 0),)
    # a rational radius exactly on lattice points of norm 1/4 + 1/9
    skew = Lattice.from_generators([(Rat(1, 2), 0), (0, Rat(1, 3))])
    for strict in (False, True):
        assert skew.points_in_ball(Rat(13, 36), strict) == _ball_brute_force(skew, Rat(13, 36), strict)


def test_points_in_ball_python_int_path():
    # denominators near 2^31 put the Gram bound (sum b_i)^2 d max|Bi|^2 far
    # past int64: the enumeration runs on Python ints and agrees
    p, q = 2**31 - 1, 2**31
    lattice = Lattice.from_generators([(1 + Rat(1, p), 0, 0), (0, 1 + Rat(1, q), 0), (0, 0, 1)])
    den, bi = clear_denominators(lattice.basis)
    assert den == p * q and 3 * max(abs(c) for row in bi for c in row) ** 2 > INT64_MAX
    assert lattice.points_in_ball(Rat(5)) == _ball_brute_force(lattice, Rat(5))
    assert lattice.points_in_ball(Rat(5), strict=True) == _ball_brute_force(lattice, Rat(5), strict=True)


def test_packing(cube, hexagon, truncated_octahedron):
    assert packing_verify(cube, lattice_T(cube))
    half = Lattice.from_generators([(Rat(1, 2), 0, 0), (0, Rat(1, 2), 0), (0, 0, Rat(1, 2))])
    assert not packing_verify(cube, half)
    assert packing_verify(hexagon, lattice_T(hexagon))
    assert packing_verify(truncated_octahedron, lattice_T(truncated_octahedron))


def test_packing_needs_central_symmetry(triangle):
    z2 = Lattice.from_generators([(1, 0), (0, 1)])
    with pytest.raises(PreconditionFailed, match="centrally symmetric"):
        packing_verify(triangle, z2)


def test_covering(cube, hexagon, hexagonal_prism):
    assert covering_verify(hexagon, lattice_T(hexagon))
    assert covering_verify(hexagonal_prism, lattice_T(hexagonal_prism))
    two = Lattice.from_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert not covering_verify(cube, two)
    assert covering_verify(cube, lattice_T(cube))


def test_fedorov_all_five(
    cube, hexagonal_prism, rhombic_dodecahedron, elongated_dodecahedron, truncated_octahedron
):
    assert fedorov_classify(cube) is FedorovClass.PARALLELEPIPED
    assert fedorov_classify(hexagonal_prism) is FedorovClass.HEXAGONAL_PRISM
    assert fedorov_classify(rhombic_dodecahedron) is FedorovClass.RHOMBIC_DODECAHEDRON
    assert fedorov_classify(elongated_dodecahedron) is FedorovClass.ELONGATED_DODECAHEDRON
    assert fedorov_classify(truncated_octahedron) is FedorovClass.TRUNCATED_OCTAHEDRON


def test_fedorov_rejects_non_tiler(rhombic_icosahedron):
    with pytest.raises(NotATiler):
        fedorov_classify(rhombic_icosahedron)


def _facet_adjacency_graph(p):
    g = nx.Graph()
    g.add_nodes_from((fi, {"deg": len(f.indices)}) for fi, f in enumerate(p.facets))
    for e in p.subfacets():
        a, b = p.facets_of_subfacet(e)
        g.add_edge(a, b)
    return g


def test_fedorov_table_matches_face_lattice_isomorphism(
    cube, hexagonal_prism, rhombic_dodecahedron, elongated_dodecahedron, truncated_octahedron
):
    # the discrimination table's signatures are exactly the isomorphism
    # classes of the five catalog solids
    solids = {
        FedorovClass.PARALLELEPIPED: cube,
        FedorovClass.HEXAGONAL_PRISM: hexagonal_prism,
        FedorovClass.RHOMBIC_DODECAHEDRON: rhombic_dodecahedron,
        FedorovClass.ELONGATED_DODECAHEDRON: elongated_dodecahedron,
        FedorovClass.TRUNCATED_OCTAHEDRON: truncated_octahedron,
    }
    signatures = {}
    for cls, p in solids.items():
        rep = venkov_mcmullen(p)
        signatures[cls] = (len(p.facets), rep.belt_lengths)
    assert {sig: cls for sig, cls in ((signatures[c], c) for c in solids)} == FEDOROV_TABLE
    # distinct classes have non-isomorphic facet adjacency structure
    classes = list(solids)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            g1 = _facet_adjacency_graph(solids[classes[i]])
            g2 = _facet_adjacency_graph(solids[classes[j]])
            assert not nx.is_isomorphic(
                g1, g2, node_match=lambda a, b: a["deg"] == b["deg"]
            )


def test_fedorov_affine_invariance(rhombic_dodecahedron, truncated_octahedron):
    rng = random.Random(17)
    for p in (rhombic_dodecahedron, truncated_octahedron):
        want = fedorov_classify(p)
        for _ in range(4):
            while True:
                m = tuple(
                    tuple(Rat(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(3))
                    for _ in range(3)
                )
                if det(m) != 0:
                    break
            assert fedorov_classify(p.apply_affine(AffineMap.linear(m))) is want


def test_is_prism(cube, hexagonal_prism, truncated_octahedron, rhombic_dodecahedron, rhombic_icosahedron):
    w = is_prism(hexagonal_prism)
    assert w is not None
    fi, fj = w
    assert len(hexagonal_prism.facets[fi].indices) == 6
    assert is_prism(cube) is not None
    assert is_prism(truncated_octahedron) is None
    assert is_prism(rhombic_dodecahedron) is None
    assert is_prism(rhombic_icosahedron) is None


def _hull_volume_witness(p):
    """The former prism rule: the first translate pair of opposite facets
    whose convex hull has the volume of P."""
    seen = set()
    for fi in range(len(p.facets)):
        if fi in seen:
            continue
        fj = p.opposite_facet(fi)
        if fj is None:
            continue
        seen.update((fi, fj))
        pts_i, pts_j = p.facet_points(fi), p.facet_points(fj)
        if len(pts_i) != len(pts_j):
            continue
        tau = vsub(centroid(pts_i), centroid(pts_j))
        if {vadd(v, tau) for v in pts_j} != set(pts_i):
            continue
        if from_vertices(list(pts_i) + list(pts_j)).volume == p.volume:
            return (min(fi, fj), max(fi, fj))
    return None


def _prism_without_hulls(p, mp):
    """is_prism computed afresh (not from the memo) with every hull
    construction counted; returns (witness, hulls built)."""
    calls = []
    real = geometry.from_vertices

    def counted(points):
        calls.append(1)
        return real(points)

    mp.setattr(geometry, "from_vertices", counted)
    mp.setattr(tiling, "from_vertices", counted, raising=False)
    witness = is_prism.__wrapped__(p)
    mp.undo()
    return witness, len(calls)


CATALOG_SOLIDS = (
    "cube",
    "hexagonal-prism",
    "rhombic-dodecahedron",
    "elongated-dodecahedron",
    "truncated-octahedron",
    "rhombic-icosahedron",
)


@pytest.mark.parametrize("name", CATALOG_SOLIDS)
def test_is_prism_vertex_rule_matches_hull_rule(name, monkeypatch):
    p = make(name)
    assert _prism_without_hulls(p, monkeypatch) == (_hull_volume_witness(p), 0)


small_ints = st.integers(-3, 3)


@st.composite
def prism_candidates(draw):
    """Generators of zonotopes, some with all but one in the plane z = 0
    (so they are prisms), or the points of oblique prisms over random
    polygons; the constructor to apply comes first."""
    if draw(st.booleans()):
        gens = draw(st.lists(st.tuples(small_ints, small_ints, small_ints).filter(any), min_size=3, max_size=6))
        if draw(st.booleans()):
            gens = [(a, b, 0) for a, b, _ in gens[:-1] if a or b] + gens[-1:]
        return zonotope, gens
    base = draw(st.lists(st.tuples(small_ints, small_ints), min_size=3, max_size=7))
    h = draw(st.integers(1, 3))
    a, b = draw(small_ints), draw(small_ints)
    return from_vertices, [(0, x, y) for x, y in base] + [(h, x + a, y + b) for x, y in base]


@settings(max_examples=40, deadline=None)
@given(prism_candidates())
def test_is_prism_vertex_rule_on_drawn_solids(candidate):
    build, data = candidate
    try:
        p = build(data)
    except NotFullDimensional:
        return
    with pytest.MonkeyPatch.context() as mp:
        assert _prism_without_hulls(p, mp) == (_hull_volume_witness(p), 0)


def test_prism_base_rule(hexagon, triangle):
    # a prism tiles exactly when its base does
    from spectile.catalog import prism

    assert venkov_mcmullen(prism(hexagon, 1)).tiles
    assert venkov_mcmullen(hexagon).tiles
    assert not venkov_mcmullen(prism(triangle, 1)).tiles
    assert not venkov_mcmullen(triangle).tiles
    unbal = from_vertices(((0, 0), (2, 0), (3, 2), (3, 5), (2, 5), (0, 1)))
    assert not venkov_mcmullen(prism(unbal, 1)).tiles
    assert not venkov_mcmullen(unbal).tiles


def test_vm_against_bruteforce_zonotopes():
    # tiles=true iff (lattice exists and packs and covolume = volume)
    rng = random.Random(123)
    sampled_non_tilers = 0
    for _ in range(50):
        n = rng.randint(3, 5)
        p = zonotope(random_generators(rng, n))
        rep = venkov_mcmullen(p)
        closure = tau_lattice_closure(p)
        brute_tiles = closure.covolume == p.volume and packing_verify(p, closure)
        assert rep.tiles == brute_tiles
        if not rep.tiles and sampled_non_tilers < 5:
            # covering still holds by the tau-group theorem; multiplicities
            # must be at least 1 everywhere sampled, and above 1 somewhere
            from spectile import SampleConfig, multiplicity_sample
            from spectile.symmetry import tau_vectors

            hist = multiplicity_sample(
                p, [t.tau for t in tau_vectors(p)], SampleConfig(count=2000, seed=5)
            )
            assert hist.min >= 1
            assert hist.max >= 2
            sampled_non_tilers += 1


def test_dual_lattice_roundtrip(hexagon):
    lt = lattice_T(hexagon)
    assert lt.dual().dual() == lt
    assert lt.dual().covolume == 1 / lt.covolume


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_dual_round_trip_on_seeded_zonotope_tilers(seed):
    # a zonotope of d or d + 1 generators in general position tiles; its
    # lattice algebra from the cleared basis and adjugate matches Fraction
    # elimination
    rng = random.Random(seed)
    d = rng.choice((2, 3))
    lt = tau_lattice_closure(zonotope(random_generators(rng, rng.randint(d, d + 1), d)))
    dual = lt.dual()
    assert dual == Lattice.from_generators(transpose(fraction_inverse(lt.basis)))
    assert dual.dual() == lt
    assert lt.covolume == abs(det(lt.basis)) and dual.covolume == abs(det(dual.basis))
    assert lt.covolume * dual.covolume == 1
