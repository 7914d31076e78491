import random

import pytest

from spectile import Rat, make, zonotope
from spectile.linalg import det, vdot


@pytest.fixture(scope="session")
def interval():
    return make("interval")


@pytest.fixture(scope="session")
def square():
    return make("square")


@pytest.fixture(scope="session")
def cube():
    return make("cube")


@pytest.fixture(scope="session")
def triangle():
    return make("triangle")


@pytest.fixture(scope="session")
def hexagon():
    return make("hexagon")


@pytest.fixture(scope="session")
def hexagonal_prism():
    return make("hexagonal-prism")


@pytest.fixture(scope="session")
def rhombic_dodecahedron():
    return make("rhombic-dodecahedron")


@pytest.fixture(scope="session")
def elongated_dodecahedron():
    return make("elongated-dodecahedron")


@pytest.fixture(scope="session")
def truncated_octahedron():
    return make("truncated-octahedron")


@pytest.fixture(scope="session")
def rhombic_icosahedron():
    return make("rhombic-icosahedron")


def random_generators(rng: random.Random, count: int, dim: int = 3, span: int = 3):
    """Zonotope generators: nonzero, pairwise non-parallel, full rank."""
    from spectile.linalg import primitive, rank

    while True:
        gens = []
        for _ in range(count):
            v = tuple(Rat(rng.randint(-span, span), rng.choice((1, 1, 2))) for _ in range(dim))
            gens.append(v)
        if any(all(c == 0 for c in g) for g in gens):
            continue
        dirs = {primitive(g, canonical_sign=True) for g in gens}
        if len(dirs) < count:
            continue
        if rank(gens) < dim:
            continue
        return gens


def random_zonotope(rng: random.Random, count: int, dim: int = 3):
    return zonotope(random_generators(rng, count, dim))


def random_frequency(rng: random.Random, dim: int, span: int = 8, max_den: int = 7):
    while True:
        xi = tuple(Rat(rng.randint(-span, span), rng.randint(1, max_den)) for _ in range(dim))
        if any(c != 0 for c in xi):
            return xi


def gram_det(vectors):
    """Determinant of the Gram matrix; squared k-volume of the spanned cell."""
    vs = list(vectors)
    return det(tuple(tuple(vdot(a, b) for b in vs) for a in vs))


def fraction_rank(rows):
    """Rank by Fraction Gauss-Jordan elimination, the reference oracle for
    linalg.rank; entries coerced with rational(), so floats are refused."""
    from spectile.linalg import rational

    work = [[rational(x) for x in r] for r in rows]
    if not work:
        return 0
    r = 0
    for col in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col] / work[r][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def fraction_inverse(m):
    """Inverse by one Fraction solve per unit vector (linalg.solve), the
    reference oracle for linalg.inverse; ValueError("singular matrix")."""
    from spectile.linalg import solve, transpose

    n = len(m)
    cols = [solve(m, tuple(Rat(int(i == j)) for i in range(n))) for j in range(n)]
    if any(c is None for c in cols):
        raise ValueError("singular matrix")
    return transpose(tuple(cols))


def _fraction_inverse_gj(m):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination, or
    None when it is singular."""
    from fractions import Fraction

    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def linear_symmetry_oracle(vertices):
    """Every rational matrix M with {(v - c) M} = {v - c} over the vertices
    v, c their centroid, as a set of tuples of Fraction rows: the reference
    for symmetry.linear_symmetries, in Fractions and none of spectile's
    code.

    A linear map is fixed by the images of d independent vertices, so the
    brute force runs over every ordered d-tuple of vertices as the image of
    one such basis.  It only skips tuples whose Gram matrix under Q^-1,
    Q = sum (v - c)^T (v - c), differs from the basis's: a symmetry M keeps
    Q (M^T Q M = Q), hence those inner products.  Each remaining tuple
    gives M = B^-1 T, kept when it maps the vertex set onto itself.
    """
    from fractions import Fraction

    pts = [[Fraction(x) for x in v] for v in vertices]
    n, d = len(pts), len(pts[0])
    c = [sum(col) / n for col in zip(*pts)]
    w = [tuple(x - y for x, y in zip(v, c)) for v in pts]
    q_inv = _fraction_inverse_gj([[sum(v[i] * v[j] for v in w) for j in range(d)] for i in range(d)])
    wq = [[sum(v[k] * q_inv[k][j] for k in range(d)) for j in range(d)] for v in w]
    gram = [[sum(a * b for a, b in zip(x, v)) for v in w] for x in wq]
    basis = []
    for i in range(n):  # greedily, the first d vertices with independent rows
        if len(basis) < d and _fraction_inverse_gj([[gram[a][b] for b in basis + [i]] for a in basis + [i]]):
            basis.append(i)
    b_inv = _fraction_inverse_gj([w[i] for i in basis])
    vset, found = set(w), set()

    def extend(images):
        k = len(images)
        if k == d:
            m = [[sum(b_inv[i][j] * w[images[j]][col] for j in range(d)) for col in range(d)] for i in range(d)]
            if {tuple(sum(v[i] * m[i][col] for i in range(d)) for col in range(d)) for v in w} == vset:
                found.add(tuple(map(tuple, m)))
            return
        for u in range(n):
            tried = images + [u]
            if all(gram[u][tried[j]] == gram[basis[k]][basis[j]] for j in range(k + 1)):
                extend(tried)

    extend([])
    return found


def _interiors_overlap(p, center, tau) -> bool:
    """Exact test for vol(P n (P + tau)) > 0, for P centrally symmetric
    about center, in Fraction arithmetic."""
    from spectile.geometry import facet_widths
    from spectile.linalg import vadd, vscale

    # Width reject: if the shift along some facet normal reaches the width
    # of P in that direction, the interiors cannot meet.
    for f, width in zip(p.facets, facet_widths(p)):
        if abs(vdot(f.normal, tau)) >= width:
            return False
    # P n (P + tau) is symmetric about center + tau/2, so when it is solid
    # it holds that midpoint in its interior.
    return p.contains(vadd(center, vscale(tau, Rat(1, 2))), strict=True)


def packing_reference(p, lattice) -> bool:
    """The reference for tiling.packing_verify: every nonzero lattice point
    tau shorter than the diameter, as a tuple of Fractions, tested one at a
    time with _interiors_overlap."""
    from spectile.symmetry import center_of_symmetry

    center = center_of_symmetry(p)
    for tau in lattice.points_in_ball(p.diameter_sq, strict=True):
        if any(c != 0 for c in tau) and _interiors_overlap(p, center, tau):
            return False
    return True
