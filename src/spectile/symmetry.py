"""Central symmetry of a polytope and of its facets.

The criterion used everywhere downstream: a convex polytope is centrally
symmetric iff every facet has a parallel facet of equal measure, and the
facet-pair translation vectors tau then generate the candidate tiling
group.  Parallelism is exact (primitive integer normals that are exact
negatives) and facet measures are compared as exact squared volumes, so no
tolerance appears anywhere in this module.

The point-set tests run in Python ints on the polytope's one integer
vertex array (Polytope.integer_vertices, rows over a common scale): a set
of n rows with sum S is centrally symmetric exactly when 2S - n v lies in
n V for every row v, and one facet is a translate of another exactly when
their sorted rows differ by one constant row.  The returned center and
tau vectors become Rat once, at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSymmetric
from .geometry import Polytope, memo
from .linalg import INT64_MAX, Rat, adjugate_rows, vneg, vsub

__all__ = [
    "center_of_symmetry",
    "linear_symmetries",
    "minkowski_check",
    "facet_symmetry_check",
    "tau_vectors",
    "symmetry_report",
    "MinkowskiResult",
    "TauPair",
    "SymmetryReport",
]


def _symmetric(rows) -> bool:
    """Whether integer rows are a centrally symmetric point set.

    With n rows of sum S the reflection of v through the centroid S/n is
    2S/n - v, so the set is symmetric exactly when n divides 2S and every
    2S/n - v is a row: the test 2S - n v in n V, divided by n.
    """
    n = len(rows)
    twice = [2 * sum(col) for col in zip(*rows)]
    if any(c % n for c in twice):
        return False
    t = tuple(c // n for c in twice)
    pset = set(rows)
    return all(vsub(t, v) in pset for v in rows)


def facet_translate(p: Polytope, fi: int, fj: int):
    """The integer row t with facet fj = facet fi + t / scale, over the
    scale of p.integer_vertices, or None when facet fj is no translate of
    facet fi.  A translation keeps the lexicographic order of points, so
    the sorted rows of the two facets differ by one constant row."""
    _, V = p.integer_vertices
    a = sorted(V[k] for k in p.facets[fi].indices)
    b = sorted(V[k] for k in p.facets[fj].indices)
    if len(a) != len(b):
        return None
    t = vsub(b[0], a[0])
    return t if all(vsub(y, x) == t for x, y in zip(a, b)) else None


@memo
def center_of_symmetry(p: Polytope):
    """The center x with P - x = -(P - x), or None.

    For a centrally symmetric polytope the center is the vertex centroid,
    so a single candidate suffices.
    """
    return p.vertex_centroid if _symmetric(p.integer_vertices[1]) else None


@memo
def linear_symmetries(p: Polytope):
    """The integer matrices M that permute the vertices of P - c, with c
    the vertex centroid, acting on rows x -> x M: a read-only int64 array
    of shape (order, d, d) that holds the identity.  These are the
    polytope's affine symmetries, which all fix c, whose linear part is
    integer in the vertex coordinates.

    The vertices of P - c are the rows W of n V - sum(V), V the integer
    vertex array, divided by their gcd.  A symmetry keeps the edge graph:
    it maps vertex 0 to a vertex u of the same degree and 0's neighbours to
    u's.  Vertex 0 and d - 1 of its neighbours with independent rows form
    a basis B, so each candidate image T (such a u and an ordered tuple of
    d - 1 of its neighbours) gives M = B^-1 T = adj(B) T / det(B), all
    candidates in one product.  A candidate is kept when the division is
    exact and W M is W as a set: every entry within max|W|, and the sorted
    radix codes of the rows equal.  Every product fits int64 when
    d d! max|W|^(d + 1) does; past that the result is the identity alone.
    Keeping fewer symmetries, as here the non-integer ones, is sound for
    every use: each M kept is a true symmetry.
    """
    d = p.dim
    _, V = p.integer_vertices
    n, total = len(V), [sum(col) for col in zip(*V)]
    rows = [[n * c - t for c, t in zip(v, total)] for v in V]
    g = math.gcd(*(c for r in rows for c in r))
    w = max(abs(c) for r in rows for c in r) // g
    if d * math.factorial(d) * w ** (d + 1) > INT64_MAX:
        identity = np.eye(d, dtype=np.int64)[None]
        identity.flags.writeable = False
        return identity
    W = np.array([[c // g for c in r] for r in rows], dtype=np.int64)
    nbrs = [[] for _ in range(n)]
    for i, j in p.faces(1) if d > 1 else ():
        nbrs[i].append(j)
        nbrs[j].append(i)
    for basis in itertools.combinations(nbrs[0], d - 1):
        det, adj = adjugate_rows(W[[0, *basis]].tolist())
        if det:
            break
    degree = len(nbrs[0])
    images = [(u, *t) for u in range(n) if len(nbrs[u]) == degree for t in itertools.permutations(nbrs[u], d - 1)]
    prod = np.array(adj, dtype=np.int64).T @ W[np.array(images)]
    m = prod[(prod % det == 0).all(axis=(1, 2))] // det
    moved = W @ m
    inside = (np.abs(moved) <= w).all(axis=(1, 2))
    m, moved = m[inside], moved[inside]
    places = np.array([(2 * w + 1) ** k for k in range(d - 1, -1, -1)], dtype=np.int64)
    same = (np.sort((moved + w) @ places, axis=1) == np.sort((W + w) @ places)).all(axis=1)
    group = m[same]
    group.flags.writeable = False
    return group


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


@memo
def facet_symmetry_check(p: Polytope):
    """(all_symmetric, witness facet indices).

    In the plane, facets are segments and the answer is vacuously true.
    Facet symmetry is tested on the ambient coordinates of the facet's
    vertices; central symmetry within the plane is the same condition.
    """
    if p.dim < 3:
        return True, ()
    _, V = p.integer_vertices
    witnesses = tuple(
        fi for fi, f in enumerate(p.facets) if not _symmetric([V[k] for k in f.indices])
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
    scale, _ = p.integer_vertices
    pairs = []
    seen = set()
    for fi in range(len(p.facets)):
        if fi in seen:
            continue
        fj = p.opposite_facet(fi)
        if fj is None or fj in seen:
            raise NotSymmetric("unpaired facet")
        seen.update((fi, fj))
        t = facet_translate(p, fi, fj)
        if t is None:
            raise NotSymmetric(f"facets {fi} and {fj} are not exact translates")
        # facet fj is facet fi + t, so its centroid is the larger exactly
        # when t is lexicographically positive
        small, big, t = (fi, fj, t) if t > (0,) * p.dim else (fj, fi, vneg(t))
        tau = tuple(Rat(c, scale) for c in t)
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
