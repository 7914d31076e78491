"""Central symmetry of a polytope and of its facets.

The criterion used everywhere downstream: a convex polytope is centrally
symmetric iff every facet has a parallel facet of equal measure, and the
facet-pair translation vectors tau then generate the candidate tiling
group.  Parallelism is exact (primitive integer normals that are exact
negatives) and facet measures are compared as exact squared volumes, so no
tolerance appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotSymmetric
from .geometry import Polytope, memo
from .linalg import centroid, vadd, vsub

__all__ = [
    "center_of_symmetry",
    "minkowski_check",
    "facet_symmetry_check",
    "tau_vectors",
    "symmetry_report",
    "MinkowskiResult",
    "TauPair",
    "SymmetryReport",
]


@memo
def center_of_symmetry(p: Polytope):
    """The center x with P - x = -(P - x), or None.

    For a centrally symmetric polytope the center is the vertex centroid,
    so a single candidate suffices.
    """
    c = p.vertex_centroid
    doubled = vadd(c, c)
    vertex_set = set(p.vertices)
    for v in p.vertices:
        if vsub(doubled, v) not in vertex_set:
            return None
    return c


@dataclass(frozen=True)
class MinkowskiResult:
    passed: bool
    witness_facet: int | None = None
    witness_kind: str | None = None  # "no-parallel-facet" | "unequal-measure"


def minkowski_check(p: Polytope) -> MinkowskiResult:
    """Each facet must have a parallel facet of equal (d-1)-measure."""
    if p.dim < 2:
        return MinkowskiResult(True)
    k = p.dim - 1
    for fi in range(len(p.facets)):
        fj = p.opposite_facet(fi)
        if fj is None:
            return MinkowskiResult(False, fi, "no-parallel-facet")
        if p.face_measure_squared((k, fi)) != p.face_measure_squared((k, fj)):
            return MinkowskiResult(False, fi, "unequal-measure")
    return MinkowskiResult(True)


def _point_set_symmetric(points) -> bool:
    pts = list(points)
    c = centroid(pts)
    doubled = vadd(c, c)
    pset = set(pts)
    return all(vsub(doubled, v) in pset for v in pts)


@memo
def facet_symmetry_check(p: Polytope):
    """(all_symmetric, witness facet indices).

    In the plane, facets are segments and the answer is vacuously true.
    Facet symmetry is tested on the ambient coordinates of the facet's
    vertices; central symmetry within the plane is the same condition.
    """
    if p.dim < 3:
        return True, ()
    witnesses = tuple(
        fi for fi in range(len(p.facets)) if not _point_set_symmetric(p.facet_points(fi))
    )
    return (len(witnesses) == 0), witnesses


@dataclass(frozen=True)
class TauPair:
    facet: int
    opposite: int
    tau: tuple


@memo
def tau_vectors(p: Polytope) -> tuple:
    """One exact translation vector per opposite facet pair, F = F' + tau.

    Sign convention: tau points from the facet whose centroid is
    lexicographically smaller toward the other one.  Raises NotSymmetric
    when some pair is not an exact translate.
    """
    if center_of_symmetry(p) is None:
        raise NotSymmetric("polytope has no center of symmetry")
    if p.dim >= 3:
        ok, _ = facet_symmetry_check(p)
        if not ok:
            raise NotSymmetric("some facet is not centrally symmetric")
    pairs = []
    seen = set()
    for fi in range(len(p.facets)):
        if fi in seen:
            continue
        fj = p.opposite_facet(fi)
        if fj is None or fj in seen:
            raise NotSymmetric("unpaired facet")
        seen.update((fi, fj))
        ci, cj = p.facet_centroid(fi), p.facet_centroid(fj)
        if cj < ci:
            small, big = fj, fi
        else:
            small, big = fi, fj
        tau = vsub(p.facet_centroid(big), p.facet_centroid(small))
        translated = {vadd(v, tau) for v in p.facet_points(small)}
        if translated != set(p.facet_points(big)):
            raise NotSymmetric(f"facets {small} and {big} are not exact translates")
        pairs.append(TauPair(facet=big, opposite=small, tau=tau))
    pairs.sort(key=lambda t: t.tau)
    return tuple(pairs)


@dataclass(frozen=True)
class SymmetryReport:
    center: tuple | None
    is_centrally_symmetric: bool
    facets_centrally_symmetric: bool
    facet_symmetry_witnesses: tuple
    minkowski_pass: bool
    minkowski_witness: int | None
    facet_pairs: tuple = field(default=())


def symmetry_report(p: Polytope) -> SymmetryReport:
    center = center_of_symmetry(p)
    mink = minkowski_check(p)
    facets_ok, fwit = facet_symmetry_check(p)
    pairs: tuple = ()
    if center is not None and facets_ok:
        pairs = tau_vectors(p)
    return SymmetryReport(
        center=center,
        is_centrally_symmetric=center is not None,
        facets_centrally_symmetric=facets_ok,
        facet_symmetry_witnesses=fwit,
        minkowski_pass=mink.passed,
        minkowski_witness=mink.witness_facet,
        facet_pairs=pairs,
    )
