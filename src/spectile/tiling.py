"""Translational tiling machinery: belts, the four-condition tiling
criterion, the facet-translation lattice, and exact packing/covering
verification.

A convex body tiles by translations iff it is a centrally symmetric
polytope with centrally symmetric facets whose belts all have 4 or 6
facets; the integer combinations of the facet-pair translations tau then
form a lattice along which the polytope tiles face-to-face.  With
rational vertex data that group is always a subgroup of (1/D)Z^d, hence
discrete; the rank check below is the only way lattice construction can
fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import NotALattice, NotATiler, PreconditionFailed
from .geometry import Polytope, facet_widths, memo
from .linalg import (
    INT64_MAX,
    Rat,
    adjugate_rows,
    angular_sort,
    clear_denominators,
    cross3,
    hnf_rational,
    idot,
    primitive,
    rat_hnf,
    solve,
    sqrt_upper,
    transpose,
    vadd,
    vdot,
    vscale,
    vsub,
)
from .symmetry import center_of_symmetry, facet_symmetry_check, facet_translate, tau_vectors

__all__ = [
    "Belt",
    "Lattice",
    "TilingReport",
    "FedorovClass",
    "belts",
    "venkov_mcmullen",
    "lattice_T",
    "tau_lattice_closure",
    "packing_verify",
    "covering_verify",
    "fedorov_classify",
    "is_prism",
    "FEDOROV_TABLE",
]


# --- lattices ---------------------------------------------------------------

# the most integer coefficient vectors one enumeration may form, shared by
# Lattice.ball_rows and oracle.multiplicity_sample
MAX_BOX_CANDIDATES = 2 * 10**7

# Lattice.ball_rows tests the coefficient box in slabs of whole layers along
# its first axis, each of at most this many candidates (or one layer)
_BALL_SLAB = 1 << 16


def _box_size(bounds, what: str) -> int:
    """The number of integer vectors k with |k_i| <= bounds[i];
    PreconditionFailed when there are more than MAX_BOX_CANDIDATES."""
    total = math.prod(2 * b + 1 for b in bounds)
    if total > MAX_BOX_CANDIDATES:
        raise PreconditionFailed(f"{what} too large ({total} candidates)")
    return total


def coefficient_box(bounds, what: str):
    """All integer vectors k with |k_i| <= bounds[i], as the rows of one
    array in lexicographic order; PreconditionFailed, before anything is
    allocated, when there would be more than MAX_BOX_CANDIDATES of them."""
    total = _box_size(bounds, what)
    layers = np.indices([2 * b + 1 for b in bounds]).reshape(len(bounds), total).T
    return layers - np.array(bounds, dtype=layers.dtype)


def per_entry(x, fn) -> list:
    """fn(v) for every entry v of the integer array x, as nested lists of
    the shape of x.  fn is called once per distinct entry, with a Python
    int, and its result is shared by every place that holds the entry."""
    values, where = np.unique(x, return_inverse=True)
    out = np.empty(len(values), dtype=object)
    out[:] = [fn(int(v)) for v in values]
    return out[where.reshape(x.shape)].tolist()


def rat_rows(den: int, x) -> tuple:
    """The rows of the integer array x over den as tuples of Rat."""
    return tuple(map(tuple, per_entry(x, lambda v: Rat(v, den))))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice, basis rows in canonical Hermite normal form.

    The canonical form (echelon, positive pivots, reduced entries, scaled
    by the common denominator) is unique per lattice, so equality of Lattice
    objects is equality of the lattices as point sets.  The exact algebra
    reads the basis cleared once to integer rows, _cleared, not the Rats.
    """

    basis: tuple

    @staticmethod
    def from_generators(generators) -> "Lattice":
        gens = [tuple(v) for v in generators]
        if not gens:
            raise NotALattice("no generators")
        d = len(gens[0])
        basis = hnf_rational(gens)
        if len(basis) < d:
            raise NotALattice(f"generators span rank {len(basis)} < {d}")
        return Lattice(basis=basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _cleared(self) -> tuple:
        """(den, Bi, det, C): the basis Bi / den, det and C = adjugate_rows(Bi)."""
        den, bi = clear_denominators(self.basis)
        return (den, bi, *adjugate_rows(bi))

    @property
    def covolume(self):
        return Rat(abs(self._cleared[2]), self._cleared[0] ** self.dim)

    def dual(self) -> "Lattice":
        """All vectors with integer inner products against the lattice."""
        den, _, d, c = self._cleared  # +-v generate one group: the sign of d is moot
        return Lattice(basis=rat_hnf(abs(d), [[den * x for x in row] for row in c]))

    def coords(self, point):
        """Exact coordinates of a rational point in this basis."""
        return solve(transpose(self.basis), point)

    def contains(self, point) -> bool:
        k = self.coords(point)
        return k is not None and all(c.denominator == 1 for c in k)

    def ball_rows(self, radius_sq, strict: bool = False) -> tuple:
        """(den, X): all lattice points x with |x|^2 <= radius_sq (< when
        strict), as the rows of X / den in lexicographic order, with den
        the least common denominator of their coordinates.

        The test is exact on the integer Gram form (Fincke-Pohst, without
        the pruning).  With the basis cleared to integer rows Bi / den
        (_cleared), a point is x = k Bi / den for an integer coefficient
        vector k, and |x|^2 <= R^2 reads k G k^T <= R^2 den^2 with
        G = Bi Bi^T.  The left side is an integer, so each k of the
        coefficient box (bounded by the dual row norms |den C_j / det|;
        PreconditionFailed past MAX_BOX_CANDIDATES) is kept when
        k G k^T <= floor(R^2 den^2), or < ceil(R^2 den^2) when strict; no
        float prefilter is involved.  The box is tested in slabs of whole
        layers along its first axis, _BALL_SLAB candidates at most, so the
        temporaries stay small whatever the radius.  Each slab keeps its k in
        the smallest integer dtype that holds the box bounds; X is allocated
        once and filled slab by slab, so the peak stays near X itself.  The
        rows need no sort: Bi is a Hermite normal form, upper triangular
        with positive pivots, so X = k Bi orders lexicographically as k
        does, and the slabs give k in lexicographic order.  Dividing X (in
        place) and den by the gcd of den and every entry leaves the least
        common denominator.  X is int64 when
        (sum b_i)^2 d max|Bi|^2, which bounds every k G k^T, every entry of
        X and every partial sum formed, fits, and holds Python ints
        otherwise: slower on an adversarial basis, never wrong.
        """
        d = self.dim
        den, bi, det_bi, adj = self._cleared
        r_sq = Rat(radius_sq)
        r_upper = sqrt_upper(r_sq)
        bounds = []
        for row in adj:
            b = sqrt_upper(Rat(den * den * idot(row, row), det_bi * det_bi)) * r_upper
            bounds.append(b.numerator // b.denominator + 1)
        _box_size(bounds, "lattice ball enumeration")
        big = max(abs(c) for row in bi for c in row)
        dtype = np.int64 if sum(bounds) ** 2 * d * big * big <= INT64_MAX else object
        basis = np.array(bi, dtype=dtype)
        gram = basis @ basis.T
        limit = r_sq * den * den
        limit = math.ceil(limit) - 1 if strict else math.floor(limit)
        small = np.min_scalar_type(-max(bounds))
        rest = coefficient_box(bounds[1:], "lattice ball enumeration").astype(small)
        step = max(1, _BALL_SLAB // len(rest))
        kept = []
        for first in range(-bounds[0], bounds[0] + 1, step):
            heads = np.arange(first, min(first + step, bounds[0] + 1), dtype=small)
            k = np.column_stack([np.repeat(heads, len(rest)), np.tile(rest, (len(heads), 1))])
            kept.append(k[((k @ gram) * k).sum(axis=1) <= limit])
        x, end = np.empty((sum(map(len, kept)), d), dtype=dtype), 0
        for k in kept:
            x[end : end + len(k)] = k @ basis
            end += len(k)
        g = math.gcd(den, int(np.gcd.reduce(x, axis=None)))
        return (den, x) if g == 1 else (den // g, np.floor_divide(x, g, out=x))

    def points_in_ball(self, radius_sq, strict: bool = False) -> tuple:
        """The points of ball_rows as tuples of Rat, in lexicographic order;
        each distinct coordinate becomes one Rat, shared by every point
        that holds it."""
        return rat_rows(*self.ball_rows(radius_sq, strict))


# --- belts ------------------------------------------------------------------


@dataclass(frozen=True)
class Belt:
    """Facets containing a translate of one subfacet, in cyclic order.

    direction is the canonical primitive direction of the subfacet (None
    for the planar pseudo-belt); length_sq its squared length; facets the
    cyclic list of facet indices circling that direction.
    """

    direction: tuple | None
    length_sq: "Rat | None"
    representative: tuple
    facets: tuple

    def __len__(self):
        return len(self.facets)


def _edge_class_key(V, edge):
    """(primitive direction, squared length) of an edge, on the integer
    vertex rows; the length is over the squared vertex scale."""
    d = vsub(V[edge[1]], V[edge[0]])
    return primitive(d, canonical_sign=True), idot(d, d)


def belts(p: Polytope) -> tuple:
    """Partition of subfacets into translation classes, one belt per class.

    A translate of a segment is a segment with the same direction and the
    same length, so the class key is (primitive direction, squared length).
    In the plane the belt notion degenerates; a single pseudo-belt with all
    edges is returned and condition (iv) becomes "4 or 6 edges".
    """
    if p.dim == 2:
        order = tuple(range(len(p.facets)))
        return (
            Belt(direction=None, length_sq=None, representative=p.faces(1)[0], facets=order),
        )
    if p.dim != 3:
        raise PreconditionFailed("belts are defined for dimensions 2 and 3")
    if center_of_symmetry(p) is None:
        raise PreconditionFailed("belts need a centrally symmetric polytope")
    ok, _ = facet_symmetry_check(p)
    if not ok:
        raise PreconditionFailed("belts need centrally symmetric facets")

    # the keys are integer: directions are primitive, squared lengths are
    # over scale^2, which orders them as the Rat lengths
    scale, V = p.integer_vertices
    classes: dict = {}
    for edge in p.subfacets():
        classes.setdefault(_edge_class_key(V, edge), []).append(edge)

    out = []
    for (direction, len_sq), edges in sorted(classes.items()):
        facet_ids = sorted({fi for e in edges for fi in p.facets_of_subfacet(e)})
        # order facets around the common direction by the angle of their
        # normals in the plane orthogonal to it
        axis = min(range(3), key=lambda i: abs(direction[i]))
        e_axis = tuple(1 if i == axis else 0 for i in range(3))
        pvec = cross3(direction, e_axis)
        qvec = cross3(direction, pvec)
        coords = {
            fi: (idot(p.facets[fi].normal, pvec), idot(p.facets[fi].normal, qvec))
            for fi in facet_ids
        }
        ordered = tuple(angular_sort(facet_ids, coords))
        out.append(
            Belt(
                direction=direction,
                length_sq=Rat(len_sq, scale * scale),
                representative=edges[0],
                facets=ordered,
            )
        )
    return tuple(out)


# --- the tiling criterion -----------------------------------------------------


class FedorovClass(str, Enum):
    PARALLELEPIPED = "Parallelepiped"
    HEXAGONAL_PRISM = "HexagonalPrism"
    RHOMBIC_DODECAHEDRON = "RhombicDodecahedron"
    ELONGATED_DODECAHEDRON = "ElongatedDodecahedron"
    TRUNCATED_OCTAHEDRON = "TruncatedOctahedron"


# Pinned discrimination table (facet count, sorted belt lengths), validated
# in the test suite against face-lattice isomorphism on the catalog solids.
FEDOROV_TABLE = {
    (6, (4, 4, 4)): FedorovClass.PARALLELEPIPED,
    (8, (4, 4, 4, 6)): FedorovClass.HEXAGONAL_PRISM,
    (12, (6, 6, 6, 6)): FedorovClass.RHOMBIC_DODECAHEDRON,
    (12, (4, 6, 6, 6, 6)): FedorovClass.ELONGATED_DODECAHEDRON,
    (14, (6, 6, 6, 6, 6, 6)): FedorovClass.TRUNCATED_OCTAHEDRON,
}


@dataclass(frozen=True)
class TilingReport:
    vm_polytope: bool
    vm_centrally_symmetric: bool
    vm_facets_symmetric: bool
    vm_belts_ok: bool
    tiles: bool
    belt_lengths: tuple | None = None
    failing_belt_length: int | None = None


@memo
def venkov_mcmullen(p: Polytope) -> TilingReport:
    """Evaluate the four tiling conditions; tiles iff all hold.

    (i) is true by construction.  When (ii) or (iii) fails, belts are not
    defined and (iv) is recorded as False; tiles is False either way.
    """
    if p.dim not in (2, 3):
        raise PreconditionFailed("tiling criterion applies in dimensions 2 and 3")
    symmetric = center_of_symmetry(p) is not None
    facets_ok, _ = facet_symmetry_check(p)
    belt_lengths = None
    failing = None
    if symmetric and facets_ok:
        lengths = tuple(len(b) for b in belts(p))
        belt_lengths = tuple(sorted(lengths))
        bad = [n for n in lengths if n not in (4, 6)]
        belts_ok = not bad
        failing = bad[0] if bad else None
    else:
        belts_ok = False
    return TilingReport(
        vm_polytope=True,
        vm_centrally_symmetric=symmetric,
        vm_facets_symmetric=facets_ok,
        vm_belts_ok=belts_ok,
        tiles=symmetric and facets_ok and belts_ok,
        belt_lengths=belt_lengths,
        failing_belt_length=failing,
    )


@memo
def tau_lattice_closure(p: Polytope) -> Lattice:
    """Lattice generated by all facet translation vectors.

    Needs central symmetry with symmetric facets but not the belt
    condition; used both by lattice_T and as the diagnostic closure for
    non-tilers.  Raises NotALattice below full rank.
    """
    basis = hnf_rational([t.tau for t in tau_vectors(p)])
    if len(basis) < p.dim:
        raise NotALattice("facet translations do not span the space")
    return Lattice(basis=basis)


def lattice_T(p: Polytope) -> Lattice:
    """The tiling lattice: integer combinations of the tau vectors.

    Only constructed when the tiling criterion holds; the group is a
    lattice precisely then.
    """
    if not venkov_mcmullen(p).tiles:
        raise PreconditionFailed("polytope does not tile; the tau group need not be a lattice")
    return tau_lattice_closure(p)


# --- packing / covering -------------------------------------------------------


def _interiors_overlap(p: Polytope, center, tau) -> bool:
    """Exact test for vol(P n (P + tau)) > 0, for P centrally symmetric
    about center."""
    # Width reject: if the shift along some facet normal reaches the width
    # of P in that direction, the interiors cannot meet.
    for f, width in zip(p.facets, facet_widths(p)):
        if abs(vdot(f.normal, tau)) >= width:
            return False
    # P n (P + tau) is symmetric about center + tau/2, so when it is solid
    # it holds that midpoint in its interior.
    return p.contains(vadd(center, vscale(tau, Rat(1, 2))), strict=True)


@memo
def packing_verify(p: Polytope, lattice: Lattice) -> bool:
    """Translates along the lattice are pairwise disjoint up to measure zero.

    P must be centrally symmetric (PreconditionFailed otherwise), as every
    translational tiler is.  Only vectors shorter than the diameter can
    produce overlap, so the check enumerates the finitely many lattice
    points in that ball.
    """
    if lattice.dim != p.dim:
        raise PreconditionFailed("lattice dimension differs from polytope dimension")
    center = center_of_symmetry(p)
    if center is None:
        raise PreconditionFailed("packing is verified for centrally symmetric polytopes only")
    for tau in lattice.points_in_ball(p.diameter_sq, strict=True):
        if all(c == 0 for c in tau):
            continue
        if _interiors_overlap(p, center, tau):
            return False
    return True


def covering_verify(p: Polytope, lattice: Lattice, samples: int = 20000, seed: int = 7) -> bool:
    """Every point lies in some translate.

    Exact route: equal covolume and verified packing imply a tiling, hence
    a covering; larger covolume excludes covering outright.  The remaining
    case (covolume below the volume) falls back to the sampling oracle.
    """
    covol = lattice.covolume
    vol = p.volume
    if covol == vol:
        return packing_verify(p, lattice)
    if covol > vol:
        return False
    from .oracle import SampleConfig, multiplicity_sample

    hist = multiplicity_sample(p, lattice.basis, SampleConfig(count=samples, seed=seed))
    return hist.min >= 1


def fedorov_classify(p: Polytope) -> FedorovClass:
    """One of the five combinatorial types of 3D translational tiles."""
    if p.dim != 3:
        raise PreconditionFailed("classification is three-dimensional")
    rep = venkov_mcmullen(p)
    if not rep.tiles:
        raise NotATiler("polytope fails the tiling criterion")
    key = (len(p.facets), rep.belt_lengths)
    if key not in FEDOROV_TABLE:
        raise AssertionError(f"tiling polytope with signature {key} outside the five types")
    return FEDOROV_TABLE[key]


@memo
def is_prism(p: Polytope):
    """Witness facet pair {F, F'} with P = conv(F u F'), or None.

    Such a pair exists exactly when P is the Minkowski sum of a facet and a
    segment.  The test counts vertices and builds no hull: conv(F u F')
    always sits inside P, and it is all of P exactly when every vertex of P
    lies on F or on F'.  Two opposite facets lie in distinct parallel
    planes, so their vertex sets are disjoint and that condition reads
    |F| + |F'| = number of vertices of P.
    """
    if p.dim != 3:
        raise PreconditionFailed("prism detection is three-dimensional")
    seen = set()
    for fi in range(len(p.facets)):
        if fi in seen:
            continue
        fj = p.opposite_facet(fi)
        if fj is None:
            continue
        seen.update((fi, fj))
        count = len(p.facets[fi].indices) + len(p.facets[fj].indices)
        if count == len(p.vertices) and facet_translate(p, fj, fi) is not None:
            return (min(fi, fj), max(fi, fj))
    return None
