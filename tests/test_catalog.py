import json
from itertools import permutations, product

import pytest

from spectile import Rat, from_vertices, polytope_from_json
from spectile.catalog import CATALOG_NAMES, make, parallelepiped, prism, resolve_input
from spectile.errors import ParseError
from spectile.spectrum import decide_spectral
from spectile.tiling import lattice_T, venkov_mcmullen

TILERS = (
    "square",
    "cube",
    "hexagon",
    "hexagonal-prism",
    "rhombic-dodecahedron",
    "elongated-dodecahedron",
    "truncated-octahedron",
)
NON_TILERS = {"triangle": "not-centrally-symmetric", "rhombic-icosahedron": "belt-length-8"}


def test_all_names_build():
    for name in CATALOG_NAMES:
        p = make(name)
        assert p.volume > 0


def test_catalog_tilers_tile():
    for name in TILERS:
        p = make(name)
        rep = venkov_mcmullen(p)
        assert rep.tiles, name
        lt = lattice_T(p)
        assert lt.covolume == p.volume, name


HEXAGON_VERTICES = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
# the vertex lists the zonotope shapes were once built from
VERTEX_LISTS = {
    "interval": [(Rat(-1, 2),), (Rat(1, 2),)],
    "square": [(Rat(sx, 2), Rat(sy, 2)) for sx in (-1, 1) for sy in (-1, 1)],
    "cube": [tuple(Rat(s, 2) for s in signs) for signs in product((-1, 1), repeat=3)],
    "hexagon": HEXAGON_VERTICES,
    "hexagonal-prism": [(s * Rat(1, 2),) + v for v in HEXAGON_VERTICES for s in (1, -1)],
    "truncated-octahedron": sorted({q for s in (-1, 1) for t in (-2, 2) for q in permutations((0, s, t))}),
}


@pytest.mark.parametrize("name", sorted(VERTEX_LISTS))
def test_zonotope_shapes_equal_their_vertex_hulls(name):
    # vertex for vertex, facet for facet and, in the plane, cycle for cycle
    got, hull = make(name), from_vertices(VERTEX_LISTS[name])
    assert got.dim == hull.dim and got.vertices == hull.vertices
    assert got.facets == hull.facets and got._cycle2d == hull._cycle2d
    assert got.volume == hull.volume


def test_catalog_non_tilers_fail_with_documented_witness():
    for name, reason in NON_TILERS.items():
        verdict = decide_spectral(make(name))
        assert not verdict.is_spectral
        assert verdict.reason == reason


def test_unknown_name():
    with pytest.raises(ParseError):
        make("dodecahedron")


def test_parallelepiped_and_prism(hexagon):
    box = parallelepiped([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert box.volume == 2
    hp = prism(hexagon, Rat(1, 2))
    assert hp.volume == Rat(3, 2)
    # the prism axis is the first coordinate and the base facet sits at x1 = h/2
    assert any(f.normal == (1, 0, 0) and f.offset == Rat(1, 4) for f in hp.facets)


def test_json_vertices_roundtrip(cube):
    data = cube.as_json_dict()
    assert polytope_from_json(data) == cube


def test_json_halfspaces():
    data = {
        "halfspaces": [
            {"normal": [1, 0], "offset": "1/2"},
            {"normal": [-1, 0], "offset": "1/2"},
            {"normal": [0, 1], "offset": "1/2"},
            {"normal": [0, -1], "offset": "1/2"},
        ]
    }
    assert polytope_from_json(data) == make("square")


def test_json_zonotope(hexagon):
    data = {"zonotope": {"generators": [[1, -1], [1, 0], [0, 1]]}}
    assert polytope_from_json(data) == hexagon


def test_json_rejects_floats():
    with pytest.raises(ParseError):
        polytope_from_json({"vertices": [[0.5, 0.5], [0, 1], [1, 0]]})


def test_json_rejects_ambiguous():
    with pytest.raises(ParseError):
        polytope_from_json({"vertices": [], "halfspaces": []})
    with pytest.raises(ParseError):
        polytope_from_json({})


def test_json_dim_validation(cube):
    data = cube.as_json_dict()
    data["dim"] = 2
    with pytest.raises(ParseError):
        polytope_from_json(data)


def test_resolve_input(tmp_path, cube):
    p, echo = resolve_input("catalog:cube")
    assert p == cube and echo == {"catalog": "cube"}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(cube.as_json_dict()))
    p, echo = resolve_input(str(path))
    assert p == cube
    with pytest.raises(ParseError):
        resolve_input("catalog:nope")
    with pytest.raises(ParseError):
        resolve_input(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        resolve_input(str(bad))
