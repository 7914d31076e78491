"""Exact convex polytopes in dimensions 1-3.

Vertices are tuples of exact rationals.  Hulls are computed with exact
arithmetic only (incremental gift wrapping in 3D, monotone chain in 2D)
and coplanar points are merged into maximal faces, so the face lattice is
the combinatorial object itself, not a triangulation.  Every constructed
polytope is validated: supporting-plane equalities, two facets per
subfacet, and the Euler relation in 3D.

All values are immutable after construction; operations are pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import wraps

from ._backend import Rat, ZERO, rational, rat_str
from .errors import (
    DimensionMismatch,
    Empty,
    NotFullDimensional,
    SingularMap,
    Unbounded,
    ZeroDimensionalFace,
)
from .linalg import (
    affine_rank,
    centroid,
    cross2,
    cross3,
    det,
    inverse,
    is_zero_vec,
    mat_vec,
    norm_sq,
    primitive,
    solve,
    vadd,
    vdot,
    vneg,
    vscale,
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

    __slots__ = (
        "dim",
        "vertices",
        "facets",
        "_cycle2d",
        "_edges",
        "_edge_facets",
        "_cache",
    )

    def __init__(self, dim, vertices, facets, cycle2d=None):
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self._cycle2d = cycle2d
        self._cache = {}
        if dim == 3:
            edge_facets: dict = {}
            for fi, f in enumerate(self.facets):
                cyc = f.indices
                for k in range(len(cyc)):
                    e = tuple(sorted((cyc[k], cyc[(k + 1) % len(cyc)])))
                    edge_facets.setdefault(e, []).append(fi)
            self._edges = tuple(sorted(edge_facets))
            self._edge_facets = {e: tuple(fs) for e, fs in edge_facets.items()}
        elif dim == 2:
            self._edges = tuple(tuple(sorted(f.indices)) for f in self.facets)
            self._edge_facets = {}
        else:
            self._edges = ()
            self._edge_facets = {}
        self._validate()

    # -- face lattice ------------------------------------------------------

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
        return self._edges  # k == 1, dim == 3

    def subfacets(self) -> tuple:
        """(d-2)-faces; edges in 3D, vertices in 2D."""
        if self.dim < 2:
            raise ValueError("no subfacets below dimension 2")
        return self.faces(self.dim - 2)

    def facets_of_subfacet(self, sub) -> tuple:
        """Indices of the (exactly two) facets containing a subfacet."""
        if self.dim == 3:
            return self._edge_facets[tuple(sorted(sub))]
        v = sub[0]
        return tuple(fi for fi, f in enumerate(self.facets) if v in f.indices)

    def facet_points(self, fi: int) -> tuple:
        return tuple(self.vertices[i] for i in self.facets[fi].indices)

    @memo
    def facet_centroid(self, fi: int) -> Point:
        return centroid(self.facet_points(fi))

    @memo
    def opposite_facet(self, fi: int):
        """Index of the facet with the exactly opposite normal, or None."""
        target = vneg(self.facets[fi].normal)
        return next((fj for fj, f in enumerate(self.facets) if f.normal == target), None)

    # -- metric quantities ---------------------------------------------------

    @property
    @memo
    def volume(self):
        """Exact d-volume via fan triangulation from a vertex."""
        if self.dim == 1:
            return self.vertices[-1][0] - self.vertices[0][0]
        if self.dim == 2:
            cyc = self._cycle2d
            acc = ZERO
            for k in range(len(cyc)):
                a = self.vertices[cyc[k]]
                b = self.vertices[cyc[(k + 1) % len(cyc)]]
                acc += cross2(a, b)
            return abs(acc) / 2
        v0 = self.vertices[0]
        acc = ZERO
        for fi, f in enumerate(self.facets):
            if 0 in f.indices:
                continue
            pts = self.facet_points(fi)
            c0 = pts[0]
            for k in range(1, len(pts) - 1):
                acc += abs(det((vsub(c0, v0), vsub(pts[k], v0), vsub(pts[k + 1], v0))))
        return acc / 6

    def face_measure_squared(self, face):
        """Exact squared k-volume of a face given as (k, index).

        Facet areas come from the vector sum of cross products of one
        triangulation; the pieces share a plane, so the signed
        contributions add linearly and squaring afterwards stays exact.
        """
        k, idx = face
        if k == 0:
            raise ZeroDimensionalFace("vertices have no positive-dimensional measure")
        members = self.faces(k)[idx]
        if k == 1:
            a, b = (self.vertices[i] for i in members)
            return norm_sq(vsub(b, a))
        pts = self.facet_points(idx)
        p0 = pts[0]
        acc = (ZERO, ZERO, ZERO)
        for j in range(1, len(pts) - 1):
            acc = vadd(acc, cross3(vsub(pts[j], p0), vsub(pts[j + 1], p0)))
        return norm_sq(acc) / 4

    @property
    @memo
    def vertex_centroid(self) -> Point:
        return centroid(self.vertices)

    @property
    @memo
    def diameter_sq(self):
        vs = self.vertices
        return max(norm_sq(vsub(vs[i], vs[j])) for i in range(len(vs)) for j in range(i + 1, len(vs)))

    def support(self, direction):
        return max(vdot(direction, v) for v in self.vertices)

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
            "vertices": [[rat_str(c) for c in v] for v in self.vertices],
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
        for f in self.facets:
            on = 0
            for i, v in enumerate(self.vertices):
                s = vdot(f.normal, v)
                if s > f.offset:
                    raise AssertionError("vertex outside a facet halfspace")
                if s == f.offset:
                    on += 1
                    if i not in f.indices:
                        raise AssertionError("support set exceeds facet vertex set")
            if on != len(f.indices):
                raise AssertionError("facet vertex set exceeds support set")
        if self.dim == 3:
            for e, fs in self._edge_facets.items():
                if len(fs) != 2:
                    raise AssertionError(f"edge {e} lies in {len(fs)} facets")
            v, e, f = len(self.vertices), len(self._edges), len(self.facets)
            if v - e + f != 2:
                raise AssertionError("Euler relation violated")
        if self.dim == 2:
            for i in range(len(self.vertices)):
                deg = sum(1 for f in self.facets if i in f.indices)
                if deg != 2:
                    raise AssertionError("polygon vertex not in exactly two edges")


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
    """Convex hull with redundant points removed and the face lattice built."""
    d, pts = _clean_points(points)
    if len(pts) < d + 1 or affine_rank(pts) < d:
        raise NotFullDimensional(f"affine hull has dimension below {d}")
    if d == 1:
        return _build_1d(pts)
    if d == 2:
        return _build_2d(pts)
    return _build_3d(pts)


def _build_1d(pts) -> Polytope:
    lo = min(p[0] for p in pts)
    hi = max(p[0] for p in pts)
    vertices = ((lo,), (hi,))
    facets = (
        Facet(indices=(0,), normal=(-1,), offset=-lo),
        Facet(indices=(1,), normal=(1,), offset=hi),
    )
    return Polytope(1, vertices, facets)


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


def _build_2d(pts) -> Polytope:
    cycle_pts = _monotone_chain(pts)
    vertices = tuple(sorted(cycle_pts))
    index = {v: i for i, v in enumerate(vertices)}
    cyc = tuple(index[p] for p in cycle_pts)
    facets = []
    n = len(cyc)
    for k in range(n):
        a, b = vertices[cyc[k]], vertices[cyc[(k + 1) % n]]
        dvec = vsub(b, a)
        normal = primitive((dvec[1], -dvec[0]))
        facets.append(Facet(indices=(cyc[k], cyc[(k + 1) % n]), normal=normal, offset=vdot(normal, a)))
    facets.sort(key=lambda f: tuple(sorted(f.indices)))
    return Polytope(2, vertices, tuple(facets), cycle2d=cyc)


def _planar_cycle(support_pts, normal):
    """Cyclic boundary (extreme points only) of coplanar 3D points.

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
    area_vec = (ZERO, ZERO, ZERO)
    for j in range(1, len(cycle) - 1):
        area_vec = vadd(area_vec, cross3(vsub(cycle[j], p0), vsub(cycle[j + 1], p0)))
    if vdot(area_vec, normal) < 0:
        cycle.reverse()
    return cycle


def _build_3d(pts) -> Polytope:
    interior = centroid(pts)

    def support_data(n):
        off = max(vdot(n, p) for p in pts)
        return off, [p for p in pts if vdot(n, p) == off]

    def wrap(a, b, n_prev, off_prev):
        """The supporting plane through edge (a, b) other than n_prev."""
        candidates = [p for p in pts if vdot(n_prev, p) < off_prev]
        u = vsub(b, a)
        for sign in (1, -1):
            w = candidates[0]
            for c in candidates[1:]:
                s = det((u, vsub(w, a), vsub(c, a)))
                if (s > 0) if sign > 0 else (s < 0):
                    w = c
            n = cross3(u, vsub(w, a))
            if vdot(n, interior) > vdot(n, a):
                n = vneg(n)
            elif vdot(n, interior) == vdot(n, a):
                continue
            off = vdot(n, a)
            if all(vdot(n, p) <= off for p in pts):
                return primitive(n), off
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

    # Seed: a supporting plane at the lexicographic minimum.  If its support
    # set is only an edge or a point, tilt until a facet or a hull edge shows.
    p0 = min(pts)
    n0 = (Rat(-1), ZERO, ZERO)
    off0, sup0 = support_data(n0)
    ar = affine_rank(sup0)
    if ar == 2:
        register(n0)
    else:
        if ar == 0:
            best = None
            best_a2 = best_w2 = None
            for q in pts:
                if q == p0:
                    continue
                a2 = (q[0] - p0[0]) ** 2
                w = (q[1] - p0[1], q[2] - p0[2])
                w2 = norm_sq(w)
                if w2 == 0:
                    continue
                if best is None or a2 * best_w2 < best_a2 * w2:
                    best, best_a2, best_w2 = q, a2, w2
            wvec = (best[1] - p0[1], best[2] - p0[2])
            a1 = best[0] - p0[0]
            n0 = (-best_w2, a1 * wvec[0], a1 * wvec[1])
            off0, sup0 = support_data(n0)
            ar = affine_rank(sup0)
        if ar == 2:
            register(n0)
        else:
            seg = sorted(sup0)
            a, b = seg[0], seg[-1]
            n, _ = wrap(a, b, n0, off0)
            register(n)

    while queue:
        a, b, owner = queue.popleft()
        e = frozenset((a, b))
        if len(edge_owners[e]) >= 2:
            continue
        off_prev = facet_by_normal[owner][0]
        n, _ = wrap(a, b, owner, off_prev)
        register(n)
        if owner not in edge_owners[e] or len(edge_owners[e]) != 2:
            raise AssertionError("edge adjacency bookkeeping failed")

    vertex_set = set()
    for off, cycle in facet_by_normal.values():
        vertex_set.update(cycle)
    vertices = tuple(sorted(vertex_set))
    index = {v: i for i, v in enumerate(vertices)}

    facets = []
    for n, (off, cycle) in facet_by_normal.items():
        idx_cycle = tuple(index[p] for p in cycle)
        start = idx_cycle.index(min(idx_cycle))
        idx_cycle = idx_cycle[start:] + idx_cycle[:start]
        facets.append(Facet(indices=idx_cycle, normal=n, offset=off))
    facets.sort(key=lambda f: tuple(sorted(f.indices)))
    return Polytope(3, vertices, tuple(facets))


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

    from itertools import combinations

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

    With full-rank normals the cone is pointed, so a nonzero cone contains
    an extreme ray lying on d-1 of the boundary planes; those candidate
    rays are enumerable exactly.  Rank deficiency gives a free line.
    """
    from itertools import combinations

    from .linalg import rank

    normals = [n for n, _ in hs]
    if rank(normals) < d:
        raise Unbounded("normals do not span the space")

    def feasible(u):
        return not is_zero_vec(u) and all(vdot(n, u) <= 0 for n in normals)

    rays = []
    if d == 1:
        rays = [(Rat(1),), (Rat(-1),)]
    elif d == 2:
        for n in normals:
            p = (-n[1], n[0])
            rays.extend([p, vneg(p)])
    else:
        for i, j in combinations(range(len(normals)), 2):
            c = cross3(normals[i], normals[j])
            if not is_zero_vec(c):
                rays.extend([c, vneg(c)])
    for u in rays:
        if feasible(u):
            raise Unbounded("recession cone contains a ray")


def zonotope(generators) -> Polytope:
    """Minkowski sum of segments [-g/2, g/2], centered at the origin."""
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
    half = Rat(1, 2)
    corners = [tuple(ZERO for _ in range(d))]
    for g in gens:
        shifted = []
        for c in corners:
            shifted.append(vadd(c, vscale(g, half)))
            shifted.append(vsub(c, vscale(g, half)))
        corners = shifted
    return from_vertices(corners)
