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
