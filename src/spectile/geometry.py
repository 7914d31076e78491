"""Exact convex polytopes in dimensions 1-3.

Vertices are tuples of exact rationals, but every builder works on
integer rows over one positive scale and forms the Rat vertices and facet
offsets once, at the end; the rows stay with the polytope as
Polytope.integer_vertices (least form), and metric quantities (volume,
face measures, diameter, vertex centroid, support) are Python-int arithmetic on
them, divided by a power of the scale once.  Hulls of vertex input clear
the points to such rows first and are computed with exact arithmetic only
(gift wrapping in 3D, seeded from the 2D hull of a projection; monotone
chain in 2D); coplanar points are merged into maximal faces, so the face
lattice is the combinatorial object itself, not a triangulation.
Zonotopes are built from their generators instead, cleared once: the face
lattice is read off the generator directions, never off the 2^k corners.
Halfspace input is bounded exactly when the origin is interior to the
hull of its normals (Gordan).  Every constructed polytope is validated in
every dimension: integer rows equal to the vertices, supporting-plane
equalities, two facets per subfacet, and the Euler relation.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import reduce, wraps
from itertools import combinations

from .errors import (
    DimensionMismatch,
    Empty,
    NotFullDimensional,
    SingularMap,
    Unbounded,
    ZeroDimensionalFace,
)
from .linalg import (
    Rat,
    ZERO,
    affine_rank,
    angular_sort,
    centroid,
    clear_denominators,
    cross2,
    cross3,
    det,
    idot,
    inverse,
    is_zero_vec,
    mat_vec,
    primitive,
    rank,
    rational,
    solve,
    vadd,
    vdot,
    vneg,
    vsub,
)

Point = tuple
MAX_ZONOTOPE_GENERATORS = 14


@dataclass(frozen=True)
class Facet:
    """A (d-1)-face: vertex indices in cyclic order, outward normal, offset.

    The normal is a primitive integer vector (content removed, geometric
    sign kept); <normal, x> <= offset holds for every vertex, with equality
    exactly on the facet.
    """

    indices: tuple
    normal: tuple
    offset: "Rat"


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + shift with an invertible rational matrix."""

    matrix: tuple
    shift: tuple

    def __post_init__(self):
        m = tuple(tuple(rational(x) for x in row) for row in self.matrix)
        s = tuple(rational(x) for x in self.shift)
        if len({len(row) for row in m} | {len(m), len(s)}) != 1:
            raise DimensionMismatch("affine map blocks disagree on dimension")
        if det(m) == 0:
            raise SingularMap("affine map has determinant zero")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)

    @property
    def dim(self) -> int:
        return len(self.shift)

    def determinant(self):
        return det(self.matrix)

    def apply(self, point: Point) -> Point:
        return vadd(mat_vec(self.matrix, point), self.shift)

    def inverse(self) -> "AffineMap":
        minv = inverse(self.matrix)
        return AffineMap(minv, vneg(mat_vec(minv, self.shift)))

    @staticmethod
    def linear(matrix) -> "AffineMap":
        n = len(matrix)
        return AffineMap(matrix, tuple(ZERO for _ in range(n)))


def memo(fn):
    """Compute fn(p, *args) once per polytope.

    The value is kept in p._cache under (fn name, *args), so every caller
    that reaches a stage shares one result; a call that raises stores
    nothing.
    """
    name = fn.__name__

    @wraps(fn)
    def once(p, *args):
        key = (name, *args)
        if key not in p._cache:
            p._cache[key] = fn(p, *args)
        return p._cache[key]

    return once


class Polytope:
    """Immutable convex polytope with its face lattice.

    Construct through from_vertices / from_halfspaces / zonotope, not
    directly.
    """

    __slots__ = ("dim", "vertices", "facets", "_cycle2d", "_subfacets", "_cache")

    def __init__(self, dim, vertices, facets, cycle2d=None, integer=None):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self._cycle2d = cycle2d
        self._cache = {}
        if integer is not None:
            # the builder's integer rows over their scale seed the memo of
            # integer_vertices, in least form (_validate checks them)
            scale, rows = integer
            g = math.gcd(scale, *(c for r in rows for c in r))
            self._cache[("integer_vertices",)] = (scale // g, tuple(tuple(c // g for c in r) for r in rows))
        # {subfacet: owning facets}, sorted: the runs of dim - 1 indices
        # along each facet cycle, so vertices in 2D, edges in 3D and the
        # empty face in 1D
        owners: dict = {}
        for fi, f in enumerate(facets):
            ring = f.indices * 2
            for k in range(len(f.indices)):
                owners.setdefault(tuple(sorted(ring[k : k + dim - 1])), []).append(fi)
        self._subfacets = {sub: tuple(owners[sub]) for sub in sorted(owners)}
        self._validate()

    # -- face lattice ------------------------------------------------------

    @memo
    def faces(self, k: int) -> tuple:
        """Faces of dimension k as sorted vertex-index tuples.

        For k = dim-1 the order matches self.facets.
        """
        if k < 0 or k >= self.dim:
            raise ValueError(f"face dimension {k} outside 0..{self.dim - 1}")
        if k == self.dim - 1:
            return tuple(tuple(sorted(f.indices)) for f in self.facets)
        if k == 0:
            return tuple((i,) for i in range(len(self.vertices)))
        return tuple(self._subfacets)  # k == 1, dim == 3

    def subfacets(self) -> tuple:
        """(d-2)-faces; edges in 3D, vertices in 2D."""
        if self.dim < 2:
            raise ValueError("no subfacets below dimension 2")
        return self.faces(self.dim - 2)

    def facets_of_subfacet(self, sub) -> tuple:
        """Indices, in increasing order, of the (exactly two) facets
        containing a subfacet given by its vertex indices."""
        return self._subfacets[tuple(sorted(sub))]

    def facet_points(self, fi: int) -> tuple:
        return tuple(self.vertices[i] for i in self.facets[fi].indices)

    @property
    @memo
    def integer_vertices(self) -> tuple:
        """(scale, rows): the vertices as integer rows over their least
        common denominator, vertices[i][j] == rows[i][j] / scale.  Every
        metric quantity below, and the symmetry and belt tests, are integer
        arithmetic on these rows, divided by a power of the scale once at
        the end.  The builders hand their rows to the constructor, so this
        clears the vertices only for a polytope built directly."""
        scale, rows = clear_denominators(self.vertices)
        return scale, tuple(map(tuple, rows))

    @memo
    def opposite_facet(self, fi: int):
        """Index of the facet with the exactly opposite normal, or None."""
        target = vneg(self.facets[fi].normal)
        return next((fj for fj, f in enumerate(self.facets) if f.normal == target), None)

    # -- metric quantities ---------------------------------------------------

    @property
    @memo
    def volume(self):
        """Exact d-volume: the shoelace sum in 2D, a fan of tetrahedra from
        vertex 0 in 3D."""
        s, V = self.integer_vertices
        if self.dim == 1:
            return Rat(V[-1][0] - V[0][0], s)
        if self.dim == 2:
            cyc = self._cycle2d
            acc = sum(cross2(V[a], V[b]) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            return Rat(abs(acc), 2 * s * s)
        v0 = V[0]
        acc = 0
        for f in self.facets:
            if 0 in f.indices:
                continue
            c0, *rest = (vsub(V[i], v0) for i in f.indices)
            for a, b in zip(rest, rest[1:]):
                acc += abs(idot(c0, cross3(a, b)))
        return Rat(acc, 6 * s**3)

    def face_measure_squared(self, face):
        """Exact squared k-volume of a face given as (k, index).

        Facet areas come from the vector sum of cross products of one
        triangulation; the pieces share a plane, so the signed
        contributions add linearly and squaring afterwards stays exact.
        """
        k, idx = face
        if k == 0:
            raise ZeroDimensionalFace("vertices have no positive-dimensional measure")
        s, V = self.integer_vertices
        members = self.faces(k)[idx]
        if k == 1:
            a, b = (V[i] for i in members)
            u = vsub(b, a)
            return Rat(idot(u, u), s * s)
        p0, *rest = (V[i] for i in self.facets[idx].indices)
        acc = (0, 0, 0)
        for a, b in zip(rest, rest[1:]):
            acc = vadd(acc, cross3(vsub(a, p0), vsub(b, p0)))
        return Rat(idot(acc, acc), 4 * s**4)

    @property
    @memo
    def vertex_centroid(self) -> Point:
        s, V = self.integer_vertices
        return tuple(Rat(sum(col), len(V) * s) for col in zip(*V))

    @property
    @memo
    def diameter_sq(self):
        s, V = self.integer_vertices
        return Rat(max(idot(d, d) for d in (vsub(a, b) for a, b in combinations(V, 2))), s * s)

    def support(self, direction):
        s, V = self.integer_vertices
        den, (d,) = clear_denominators([direction])
        return Rat(max(idot(d, v) for v in V), den * s)

    def contains(self, point, strict: bool = False) -> bool:
        for f in self.facets:
            s = vdot(f.normal, point)
            if s > f.offset or (strict and s == f.offset):
                return False
        return True

    def apply_affine(self, amap: AffineMap) -> "Polytope":
        if amap.dim != self.dim:
            raise DimensionMismatch("map dimension differs from polytope dimension")
        return from_vertices([amap.apply(v) for v in self.vertices])

    def translate(self, shift) -> "Polytope":
        return from_vertices([vadd(v, shift) for v in self.vertices])

    # -- bookkeeping ---------------------------------------------------------

    def f_vector(self) -> tuple:
        return tuple(len(self.faces(k)) for k in range(self.dim))

    def as_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[str(c) for c in v] for v in self.vertices],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        counts = "/".join(str(c) for c in self.f_vector())
        return f"<Polytope dim={self.dim} f-vector {counts}>"

    def _validate(self):
        # exact integer form: an offset o over the vertex scale s compares
        # as <n, row> * den(o s) against num(o s)
        s, rows = self.integer_vertices
        for v, row in zip(self.vertices, rows, strict=True):
            if any(c.numerator * s != x * c.denominator for c, x in zip(v, row, strict=True)):
                raise AssertionError("integer rows differ from the vertices")
        for f in self.facets:
            off = f.offset * s
            num, den = off.numerator, off.denominator
            on = 0
            for i, v in enumerate(rows):
                h = idot(f.normal, v) * den
                if h > num:
                    raise AssertionError("vertex outside a facet halfspace")
                if h == num:
                    on += 1
                    if i not in f.indices:
                        raise AssertionError("support set exceeds facet vertex set")
            if on != len(f.indices):
                raise AssertionError("facet vertex set exceeds support set")
        for sub, fs in self._subfacets.items():
            if len(fs) != 2:
                raise AssertionError(f"subfacet {sub} lies in {len(fs)} facets")
        if sum((-1) ** k * n for k, n in enumerate(self.f_vector())) != 1 - (-1) ** self.dim:
            raise AssertionError("Euler relation violated")


@memo
def facet_widths(p: Polytope) -> tuple:
    """Per facet with normal n, support(n) + support(-n): the exact width
    of p along n, times |n|."""
    s, V = p.integer_vertices
    widths = []
    for f in p.facets:
        heights = [idot(f.normal, v) for v in V]
        widths.append(Rat(max(heights) - min(heights), s))
    return tuple(widths)


# --- constructors ----------------------------------------------------------


def _clean_points(points):
    pts = [tuple(rational(c) for c in p) for p in points]
    if not pts:
        raise DimensionMismatch("no points given")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionMismatch("points of differing dimension")
    if d not in (1, 2, 3):
        raise DimensionMismatch(f"dimension {d} outside supported range 1..3")
    seen = set()
    uniq = []
    for p in pts:
        if p not in seen:
            seen.add(p)
            uniq.append(p)
    return d, uniq


def from_vertices(points) -> Polytope:
    """Convex hull with redundant points removed and the face lattice built.

    The points are cleared to integer rows over one scale first; a positive
    scale changes no sign and no order, so the hull runs on the rows."""
    d, pts = _clean_points(points)
    if len(pts) < d + 1 or affine_rank(pts) < d:
        raise NotFullDimensional(f"affine hull has dimension below {d}")
    scale, rows = clear_denominators(pts)
    return (_build_1d, _build_2d, _build_3d)[d - 1](list(map(tuple, rows)), scale)


def _over(rows, scale) -> tuple:
    """Integer rows as Rat points over a positive scale."""
    return tuple(tuple(Rat(x, scale) for x in r) for r in rows)


def _build_1d(rows, scale) -> Polytope:
    lo = min(r[0] for r in rows)
    hi = max(r[0] for r in rows)
    facets = (
        Facet(indices=(0,), normal=(-1,), offset=Rat(-lo, scale)),
        Facet(indices=(1,), normal=(1,), offset=Rat(hi, scale)),
    )
    ends = ((lo,), (hi,))
    return Polytope(1, _over(ends, scale), facets, integer=(scale, ends))


def _monotone_chain(pts):
    """Counterclockwise hull cycle of >= 3 non-collinear 2D points."""
    spts = sorted(pts)

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(spts)
    upper = build(reversed(spts))
    return lower[:-1] + upper[:-1]


def _build_2d(rows, scale) -> Polytope:
    cycle_pts = _monotone_chain(rows)
    order = tuple(sorted(cycle_pts))
    index = {v: i for i, v in enumerate(order)}
    cyc = tuple(index[p] for p in cycle_pts)
    facets = []
    n = len(cyc)
    for k in range(n):
        a, b = order[cyc[k]], order[cyc[(k + 1) % n]]
        dvec = vsub(b, a)
        normal = primitive((dvec[1], -dvec[0]))
        facets.append(Facet(indices=(cyc[k], cyc[(k + 1) % n]), normal=normal, offset=Rat(idot(normal, a), scale)))
    facets.sort(key=lambda f: tuple(sorted(f.indices)))
    return Polytope(2, _over(order, scale), tuple(facets), cycle2d=cyc, integer=(scale, order))


def _planar_cycle(support_pts, normal):
    """Cyclic boundary (extreme points only) of coplanar integer 3D points.

    Projects out the largest normal coordinate, runs the exact 2D hull,
    and orients the cycle counterclockwise as seen from the normal side.
    """
    axis = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != axis]
    flat = {}
    for p in support_pts:
        flat.setdefault((p[keep[0]], p[keep[1]]), p)
    cycle2 = _monotone_chain(list(flat))
    cycle = [flat[q] for q in cycle2]
    p0 = cycle[0]
    area_vec = (0, 0, 0)
    for j in range(1, len(cycle) - 1):
        area_vec = vadd(area_vec, cross3(vsub(cycle[j], p0), vsub(cycle[j + 1], p0)))
    if idot(area_vec, normal) < 0:
        cycle.reverse()
    return cycle


def _build_3d(pts, scale) -> Polytope:
    interior = centroid(pts)

    def support_data(n):
        off = max(idot(n, p) for p in pts)
        return off, [p for p in pts if idot(n, p) == off]

    def wrap(a, b, n_prev, off_prev):
        """The normal of a supporting plane through edge (a, b) other than
        the plane n_prev."""
        candidates = [p for p in pts if idot(n_prev, p) < off_prev]
        u = vsub(b, a)
        for sign in (1, -1):
            w = candidates[0]
            for c in candidates[1:]:
                s = idot(u, cross3(vsub(w, a), vsub(c, a)))
                if (s > 0) if sign > 0 else (s < 0):
                    w = c
            n = cross3(u, vsub(w, a))
            if vdot(n, interior) > idot(n, a):
                n = vneg(n)
            elif vdot(n, interior) == idot(n, a):
                continue
            off = idot(n, a)
            if all(idot(n, p) <= off for p in pts):
                return n
        raise AssertionError("gift-wrap pivot failed to find a supporting plane")

    facet_by_normal = {}
    edge_owners: dict = {}
    queue: deque = deque()

    def register(n):
        n = primitive(n)
        if n in facet_by_normal:
            return
        off, sup = support_data(n)
        cycle = _planar_cycle(sup, n)
        facet_by_normal[n] = (off, tuple(cycle))
        m = len(cycle)
        for k in range(m):
            e = frozenset((cycle[k], cycle[(k + 1) % m]))
            edge_owners.setdefault(e, []).append(n)
            if len(edge_owners[e]) == 1:
                queue.append((cycle[k], cycle[(k + 1) % m], n))

    # Seed: the vertical plane over the first edge of the hull of the
    # points projected along x supports the hull; its support set is a
    # facet, or an edge to wrap around.  The projection is not flat, since
    # the points are not.
    q0, q1 = _monotone_chain({p[1:] for p in pts})[:2]
    n0 = (0, q1[1] - q0[1], q0[0] - q1[0])
    off0, sup0 = support_data(n0)
    if affine_rank(sup0) == 2:
        register(n0)
    else:
        seg = sorted(sup0)
        register(wrap(seg[0], seg[-1], n0, off0))

    while queue:
        a, b, owner = queue.popleft()
        e = frozenset((a, b))
        if len(edge_owners[e]) >= 2:
            continue
        off_prev = facet_by_normal[owner][0]
        register(wrap(a, b, owner, off_prev))
        if owner not in edge_owners[e] or len(edge_owners[e]) != 2:
            raise AssertionError("edge adjacency bookkeeping failed")

    return _assemble_3d(facet_by_normal, scale)


def _assemble_3d(facet_by_normal, scale) -> Polytope:
    """The polytope of {outward primitive normal: (offset, vertex cycle)},
    integer offsets and rows over one positive scale.

    Vertices are indexed in sorted order (the order of the rows, since the
    scale is positive), each cycle starts at its lowest index and facets
    are sorted by their vertex sets, so the result does not depend on how
    the facets were found.
    """
    vertex_set = set()
    for off, cycle in facet_by_normal.values():
        vertex_set.update(cycle)
    order = tuple(sorted(vertex_set))
    index = {v: i for i, v in enumerate(order)}

    facets = []
    for n, (off, cycle) in facet_by_normal.items():
        idx_cycle = tuple(index[p] for p in cycle)
        start = idx_cycle.index(min(idx_cycle))
        idx_cycle = idx_cycle[start:] + idx_cycle[:start]
        facets.append(Facet(indices=idx_cycle, normal=n, offset=Rat(off, scale)))
    facets.sort(key=lambda f: tuple(sorted(f.indices)))
    return Polytope(3, _over(order, scale), tuple(facets), integer=(scale, order))


def from_halfspaces(halfspaces) -> Polytope:
    """Exact vertex enumeration of an intersection of halfspaces.

    Each halfspace is (normal, offset) meaning <normal, x> <= offset.
    Raises Unbounded when the recession cone is nontrivial, Empty when the
    intersection has no point, NotFullDimensional when it is flat.
    """
    hs = []
    for n, off in halfspaces:
        nv = tuple(rational(c) for c in n)
        if is_zero_vec(nv):
            raise DimensionMismatch("zero normal in halfspace")
        hs.append((nv, rational(off)))
    if not hs:
        raise DimensionMismatch("no halfspaces given")
    d = len(hs[0][0])
    if any(len(n) != d for n, _ in hs):
        raise DimensionMismatch("halfspace normals of differing dimension")
    if d not in (1, 2, 3):
        raise DimensionMismatch(f"dimension {d} outside supported range 1..3")

    _check_bounded(hs, d)

    candidates = set()
    for subset in combinations(range(len(hs)), d):
        m = tuple(hs[i][0] for i in subset)
        b = tuple(hs[i][1] for i in subset)
        x = solve(m, b)
        if x is None:
            continue
        if all(vdot(n, x) <= off for n, off in hs):
            candidates.add(x)
    if not candidates:
        raise Empty("halfspace intersection is empty")
    return from_vertices(sorted(candidates))


def _check_bounded(hs, d):
    """Recession cone {u : <n_i, u> <= 0 for all i} must be {0}.

    By Gordan's theorem it is {0} exactly when the origin is interior to
    the convex hull of the normals n_i; rank deficiency already gives a
    free line.
    """
    normals = [n for n, _ in hs]
    if rank(normals) < d:
        raise Unbounded("normals do not span the space")
    try:
        bounded = from_vertices(normals).contains((ZERO,) * d, strict=True)
    except NotFullDimensional:
        bounded = False
    if not bounded:
        raise Unbounded("recession cone contains a ray")


def _zone_polygon(gens, flat) -> list:
    """The boundary, in cyclic order, of the zonotope sum of [-g, g] over
    coplanar integer generators spanning their plane: twice the centred
    zonotope, so every point is an integer row.

    flat maps a generator to its coordinates in that plane.  Each generator
    is turned into the half-plane [0, pi) there and the turned generators
    are sorted by angle, s_1..s_k.  The boundary is then v_0, v_0 + 2 s_1,
    ..., v_0 + 2 (s_1 + ... + s_(k-1)) followed by their negatives, with
    v_0 = -(s_1 + ... + s_k): O(k log k) integer work, never the 2^k
    corners.  Parallel generators leave points inside an edge, which the
    exact hull of the caller drops.
    """
    turned = []
    for g in gens:
        x, y = flat(g)
        turned.append(g if y > 0 or (y == 0 and x > 0) else vneg(g))
    v = vneg(reduce(vadd, turned))
    half = []
    for s in angular_sort(turned, {g: flat(g) for g in turned}):
        half.append(v)
        v = vadd(v, vadd(s, s))
    return half + [vneg(q) for q in half]


def zonotope(generators) -> Polytope:
    """Minkowski sum of segments [-g/2, g/2], centered at the origin.

    The face lattice is read off the generators (McMullen, "On zonotopes",
    Trans. AMS 1971), not off the 2^k corners.  In 3D the facet normals
    are the directions +-n, n = primitive(g_i x g_j), of the non-parallel
    generator pairs.  The facet with outward normal n is the polygon of its
    zone {g : <n, g> = 0}, translated by the sum of sign<n, g> g/2 over the
    other generators, and its offset is the sum of |<n, g>|/2; the facet
    of -n is its negative.  In 2D the polygon rule gives the body itself.

    The generators are cleared once to integer rows G over den
    (linalg.clear_denominators).  Every vertex is a sum of +-g/2, so over
    the scale 2 den it is the integer row sum of +-G: heights, offsets,
    shifts, the zone polygons and the planar hulls are Python-int work,
    and each vertex coordinate and offset becomes a Rat once, when the
    polytope is assembled.  The work is O(k^3) integer operations.  On
    the twelve shapes of the explore-zonotopes benchmark the constructor
    (subfacet map and checks) takes about 40% of a build and the Rat
    output about 5%.
    """
    gens = [tuple(rational(c) for c in g) for g in generators]
    if not gens:
        raise DimensionMismatch("no generators given")
    d = len(gens[0])
    if any(len(g) != d for g in gens):
        raise DimensionMismatch("generators of differing dimension")
    if any(is_zero_vec(g) for g in gens):
        raise DimensionMismatch("zero generator")
    if len(gens) > MAX_ZONOTOPE_GENERATORS:
        raise DimensionMismatch(f"more than {MAX_ZONOTOPE_GENERATORS} zonotope generators")
    if d not in (1, 2, 3):
        raise DimensionMismatch(f"dimension {d} outside supported range 1..3")
    if rank(gens) < d:
        raise NotFullDimensional(f"affine hull has dimension below {d}")
    den, G = clear_denominators(gens)
    G = list(map(tuple, G))
    scale = 2 * den
    if d == 1:
        h = sum(abs(g[0]) for g in G)
        return _build_1d([(-h,), (h,)], scale)
    if d == 2:
        return _build_2d(_zone_polygon(G, lambda g: g), scale)

    facet_by_normal = {}
    for i, j in combinations(range(len(G)), 2):
        c = cross3(G[i], G[j])
        if is_zero_vec(c):
            continue
        n = primitive(c, canonical_sign=True)
        if n in facet_by_normal:
            continue
        heights = [idot(n, g) for g in G]
        offset = sum(abs(h) for h in heights)
        shift = reduce(vadd, (g if h > 0 else vneg(g) for g, h in zip(G, heights) if h != 0))
        axis = max(range(3), key=lambda a: abs(n[a]))
        keep = [a for a in range(3) if a != axis]
        zone = [g for g, h in zip(G, heights) if h == 0]
        pts = [vadd(shift, q) for q in _zone_polygon(zone, lambda g: (g[keep[0]], g[keep[1]]))]
        cycle = _planar_cycle(pts, n)
        facet_by_normal[n] = (offset, tuple(cycle))
        facet_by_normal[vneg(n)] = (offset, tuple(vneg(q) for q in reversed(cycle)))
    return _assemble_3d(facet_by_normal, scale)
