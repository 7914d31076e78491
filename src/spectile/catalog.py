"""Named shapes with fixed exact coordinates, and polytope JSON parsing.

The literature rarely pins coordinates; the ones here are this package's
conventions and every value downstream (lattice bases, belt multisets,
regression fixtures) refers to them.

==========================  ============================================================
interval                    [-1/2, 1/2], the zonotope of (1)
square                      vertices (+-1/2, +-1/2), the zonotope of the unit vectors
cube                        vertices (+-1/2, +-1/2, +-1/2), the zonotope of the unit vectors
triangle                    (0,0), (1,0), (0,1) -- the stock non-tiler
hexagon                     (1,0), (0,1), (-1,1), (-1,0), (0,-1), (1,-1); area 3;
                            the zonotope of (1,-1), (1,0), (0,1)
hexagonal-prism             [-1/2,1/2] x hexagon, prism axis first so the hexagonal
                            facet sits in {x_1 = 1/2} (standard position along the axis);
                            the zonotope of (1,0,0), (0,1,-1), (0,1,0), (0,0,1)
rhombic-dodecahedron        zonotope of the four cube diagonals (1,+-1,+-1)
elongated-dodecahedron      the same four diagonals plus (0,0,2)
truncated-octahedron        the 24 permutations of (0, +-1, +-2); volume 32;
                            the zonotope of (1,+-1,0), (1,0,+-1), (0,1,+-1)
rhombic-icosahedron         zonotope of five generators in general position,
                            (1,0,0), (0,1,0), (0,0,1), (1,1,1), (1,2,3) -- rational
                            stand-ins for the classical golden-ratio generators
==========================  ============================================================
"""

from __future__ import annotations

import json

from .errors import ParseError
from .geometry import AffineMap, Polytope, from_halfspaces, from_vertices, zonotope
from .linalg import rational

__all__ = [
    "CATALOG_NAMES",
    "make",
    "prism",
    "parallelepiped",
    "polytope_from_json",
    "resolve_input",
]


def _interval() -> Polytope:
    return zonotope([(1,)])


def _square() -> Polytope:
    return zonotope([(1, 0), (0, 1)])


def _cube() -> Polytope:
    return zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _triangle() -> Polytope:
    return from_vertices([(0, 0), (1, 0), (0, 1)])


def _hexagon() -> Polytope:
    return zonotope([(1, -1), (1, 0), (0, 1)])


def prism(base: Polytope, height) -> Polytope:
    """[-h/2, h/2] x base, with the prism axis as the first coordinate."""
    h = rational(height)
    half = h / 2
    pts = []
    for v in base.vertices:
        pts.append((half,) + v)
        pts.append((-half,) + v)
    return from_vertices(pts)


def parallelepiped(matrix) -> Polytope:
    """Image of the centered unit cube under an invertible linear map."""
    return _cube().apply_affine(AffineMap.linear(matrix))


def _hexagonal_prism() -> Polytope:
    return zonotope([(1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)])


def _rhombic_dodecahedron() -> Polytope:
    return zonotope([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])


def _elongated_dodecahedron() -> Polytope:
    return zonotope([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1), (0, 0, 2)])


def _truncated_octahedron() -> Polytope:
    return zonotope([(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)])


RHOMBIC_ICOSAHEDRON_GENERATORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3))


def _rhombic_icosahedron() -> Polytope:
    return zonotope(RHOMBIC_ICOSAHEDRON_GENERATORS)


_BUILDERS = {
    "interval": _interval,
    "square": _square,
    "cube": _cube,
    "triangle": _triangle,
    "hexagon": _hexagon,
    "hexagonal-prism": _hexagonal_prism,
    "rhombic-dodecahedron": _rhombic_dodecahedron,
    "elongated-dodecahedron": _elongated_dodecahedron,
    "truncated-octahedron": _truncated_octahedron,
    "rhombic-icosahedron": _rhombic_icosahedron,
}

CATALOG_NAMES = tuple(sorted(_BUILDERS))


def make(name: str) -> Polytope:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ParseError(f"unknown catalog shape {name!r}; known: {', '.join(CATALOG_NAMES)}")


# --- JSON input --------------------------------------------------------------


def _parse_rational(value, where: str):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: exact fields take integers or 'p/q' strings, not floats")
    try:
        return rational(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {value!r} ({exc})")


def _parse_vector(seq, where: str):
    if not isinstance(seq, (list, tuple)):
        raise ParseError(f"{where}: expected a list of coordinates")
    return tuple(_parse_rational(c, where) for c in seq)


def polytope_from_json(data: dict) -> Polytope:
    """Accepts {"vertices": ...}, {"halfspaces": ...} or {"zonotope": ...}.

    Rationals are integers or "p/q" strings; a "dim" key, when present, is
    validated against the data.
    """
    if not isinstance(data, dict):
        raise ParseError("polytope JSON must be an object")
    keys = [k for k in ("vertices", "halfspaces", "zonotope") if k in data]
    if len(keys) != 1:
        raise ParseError("exactly one of 'vertices', 'halfspaces', 'zonotope' is required")
    kind = keys[0]
    if kind == "vertices":
        pts = [_parse_vector(v, f"vertices[{i}]") for i, v in enumerate(data["vertices"])]
        poly = from_vertices(pts)
    elif kind == "halfspaces":
        hs = []
        for i, h in enumerate(data["halfspaces"]):
            if not isinstance(h, dict) or "normal" not in h or "offset" not in h:
                raise ParseError(f"halfspaces[{i}]: need 'normal' and 'offset'")
            hs.append(
                (
                    _parse_vector(h["normal"], f"halfspaces[{i}].normal"),
                    _parse_rational(h["offset"], f"halfspaces[{i}].offset"),
                )
            )
        poly = from_halfspaces(hs)
    else:
        z = data["zonotope"]
        if not isinstance(z, dict) or "generators" not in z:
            raise ParseError("zonotope input needs a 'generators' list")
        gens = [_parse_vector(g, f"zonotope.generators[{i}]") for i, g in enumerate(z["generators"])]
        poly = zonotope(gens)
    if "dim" in data and int(data["dim"]) != poly.dim:
        raise ParseError(f"declared dim {data['dim']} but data is {poly.dim}-dimensional")
    return poly


def resolve_input(source: str) -> tuple:
    """CLI input: 'catalog:NAME' or a path to a polytope JSON file.

    Returns (polytope, echo) where echo is what the report records.
    """
    if source.startswith("catalog:"):
        name = source.split(":", 1)[1]
        return make(name), {"catalog": name}
    try:
        with open(source) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return polytope_from_json(data), data
