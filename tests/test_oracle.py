import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectile import Rat, from_vertices, oracle, zonotope
from spectile.errors import RankDeficient
from spectile.fourier import ft_indicator
from spectile.linalg import hnf_rational, norm_sq, sqrt_upper
from spectile.oracle import MultiplicityHistogram, SampleConfig, mc_volume, multiplicity_sample, simplex_ft
from spectile.symmetry import tau_vectors
from spectile.tiling import Lattice, covering_verify

from conftest import random_generators


def test_mc_volume_cube(cube):
    mv = mc_volume(cube, SampleConfig(count=10**6, seed=1))
    assert abs(mv.estimate - 1.0) <= max(3 * mv.stderr, 1e-3)
    assert mv.seed == 1 and mv.count == 10**6


def test_mc_volume_hexagon(hexagon):
    # the sampled box is the hexagon's own, [-1, 1]^2
    mv = mc_volume(hexagon, SampleConfig(count=10**5, seed=2))
    assert abs(mv.estimate - 3.0) <= 3 * mv.stderr


def test_mc_volume_truncated_octahedron(truncated_octahedron):
    mv = mc_volume(truncated_octahedron, SampleConfig(count=2 * 10**5, seed=3))
    assert abs(mv.estimate - 32.0) <= 3 * mv.stderr
    assert mv.stderr < 0.32  # within 1%


def test_multiplicity_cube_unit_lattice(cube):
    hist = multiplicity_sample(cube, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], SampleConfig(count=20000, seed=4))
    assert hist.counts == {1: 20000}


def test_multiplicity_cube_half_lattice(cube):
    gens = [(Rat(1, 2), 0, 0), (0, Rat(1, 2), 0), (0, 0, Rat(1, 2))]
    hist = multiplicity_sample(cube, gens, SampleConfig(count=20000, seed=4))
    assert hist.min == 8
    assert hist.max >= 8


def test_multiplicity_rank_guard(cube):
    with pytest.raises(RankDeficient):
        multiplicity_sample(cube, [(1, 0, 0), (0, 1, 0)], SampleConfig(count=100, seed=0))


def test_multiplicity_rhombic_icosahedron(rhombic_icosahedron):
    from spectile.symmetry import tau_vectors

    taus = [t.tau for t in tau_vectors(rhombic_icosahedron)]
    hist = multiplicity_sample(rhombic_icosahedron, taus, SampleConfig(count=10**5, seed=20170529))
    assert hist.min >= 1  # covering
    assert hist.max >= 2  # but not a packing
    assert hist.seed == 20170529


def _dense_histogram(p, generators, cfg, max_box=None):
    """Reference for multiplicity_sample: the same samples and the same
    translates, every translate tested against every sample, one at a time.
    None when the translate box would exceed max_box candidates, if given."""
    basis = hnf_rational([tuple(Rat(c) for c in g) for g in generators])
    bmat = np.array([[float(c) for c in row] for row in basis])
    samples = np.random.default_rng(cfg.seed).random((cfg.count, p.dim)) @ bmat
    radius = float(sqrt_upper(p.diameter_sq)) + float(sum((sqrt_upper(norm_sq(row)) for row in basis), Rat(0)))
    bounds = [int(np.linalg.norm(row) * radius) + 1 for row in np.linalg.inv(bmat).T]
    if max_box is not None and math.prod(2 * m + 1 for m in bounds) > max_box:
        return None
    grids = np.meshgrid(*[np.arange(-m, m + 1) for m in bounds], indexing="ij")
    translates = np.stack([g.ravel() for g in grids], axis=-1) @ bmat
    translates = translates[np.linalg.norm(translates, axis=1) <= radius + 1e-9]
    corners = np.array(list(np.ndindex(*(2,) * p.dim)), dtype=float) @ bmat
    cell_center = corners.mean(axis=0)
    cell_rad = float(np.max(np.linalg.norm(corners - cell_center, axis=1)))
    p_center = np.array([float(c) for c in p.vertex_centroid])
    p_rad = max(float(np.linalg.norm(np.array([float(c) for c in v]) - p_center)) for v in p.vertices)
    near = np.linalg.norm(translates + p_center - cell_center, axis=1) <= cell_rad + p_rad + 1e-6
    translates = translates[near]
    a = np.array([[float(c) for c in f.normal] for f in p.facets])
    b = np.array([float(f.offset) for f in p.facets])
    projected = samples @ a.T
    counts = np.zeros(cfg.count, dtype=np.int64)
    for tau in translates:
        counts += np.all(projected <= b + tau @ a.T + 1e-12, axis=1)
    hist = {int(m): int(n) for m, n in enumerate(np.bincount(counts)) if n}
    return MultiplicityHistogram(counts=hist, translates_used=len(translates), count=cfg.count, seed=cfg.seed)


def test_multiplicity_matches_dense_loop_rhombic_icosahedron(rhombic_icosahedron):
    taus = [t.tau for t in tau_vectors(rhombic_icosahedron)]
    cfg = SampleConfig(count=3000, seed=20170529)
    assert multiplicity_sample(rhombic_icosahedron, taus, cfg) == _dense_histogram(rhombic_icosahedron, taus, cfg)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_multiplicity_matches_dense_loop_on_zonotopes(seed):
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    p = zonotope(random_generators(rng, rng.randint(dim, dim + 3), dim))
    taus = [t.tau for t in tau_vectors(p)]
    cfg = SampleConfig(count=500, seed=seed)
    expected = _dense_histogram(p, taus, cfg, max_box=10**5)
    assume(expected is not None)  # a skewed cell basis asks for a huge box
    assert multiplicity_sample(p, taus, cfg) == expected


def test_covering_below_volume_uses_the_dense_histogram(cube, monkeypatch):
    lattice = Lattice.from_generators([(Rat(1, 2), 0, 0), (0, 1, 0), (Rat(1, 3), Rat(1, 3), 1)])
    assert lattice.covolume < cube.volume  # the sampling branch of covering_verify
    seen = []
    real = oracle.multiplicity_sample

    def recorded(p, generators, cfg):
        seen.append(((p, generators, cfg), real(p, generators, cfg)))
        return seen[-1][1]

    monkeypatch.setattr(oracle, "multiplicity_sample", recorded)
    assert covering_verify(cube, lattice, samples=2000, seed=3)
    (args, hist), = seen
    assert hist == _dense_histogram(*args)
    assert hist.min == 2


def test_simplex_ft_interval(interval):
    for t in (Rat(1, 3), Rat(5, 7), Rat(2)):
        a = simplex_ft(interval, (t,))
        b = ft_indicator(interval, (t,))
        assert abs(a.as_complex() - b.as_complex()) < 1e-14


def test_simplex_ft_square():
    sq = from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    a = simplex_ft(sq, (Rat(1, 3), Rat(1, 5)))
    b = ft_indicator(sq, (Rat(1, 3), Rat(1, 5)))
    assert abs(a.as_complex() - b.as_complex()) < 1e-12


def test_simplex_ft_collision_branch(cube):
    # xi = (1,1,0) makes vertex exponents collide; the confluent branch runs
    a = simplex_ft(cube, (1, 1, 0))
    b = ft_indicator(cube, (1, 1, 0))
    assert abs(a.as_complex() - b.as_complex()) < 1e-12
    # degenerate along an axis: all phases equal on z-edges
    a = simplex_ft(cube, (0, 0, Rat(1, 2)))
    assert abs(a.re - 2 / math.pi) < 1e-12


def test_simplex_ft_at_zero(hexagon):
    assert simplex_ft(hexagon, (0, 0)).re == 3.0


def test_simplex_ft_reads_no_fast_path(monkeypatch):
    # the oracle checks the walk, so it computes from the vertices and
    # facets alone: not from the walk, its face geometry or the polytope's
    # integer vertex array
    from spectile import fourier, geometry

    shapes = [zonotope(g) for g in ([(1, 0), (0, 1), (1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, Rat(1, 2))])]
    expected = [(simplex_ft(p, (0,) * p.dim), simplex_ft(p, (Rat(1, 3),) * p.dim)) for p in shapes]

    def refuse(*args):
        raise AssertionError("the oracle reached a fast path")

    monkeypatch.setattr(fourier, "_batch_geometry", refuse)
    monkeypatch.setattr(fourier, "_walk_hp", refuse)
    monkeypatch.setattr(geometry.Polytope, "integer_vertices", property(refuse))
    monkeypatch.setattr(geometry.Polytope, "volume", property(refuse))
    for p, (at_zero, at_third) in zip(shapes, expected):
        p._cache.clear()  # the oracle's own memo is rebuilt under the patches
        assert simplex_ft(p, (0,) * p.dim) == at_zero
        assert simplex_ft(p, (Rat(1, 3),) * p.dim) == at_third


def test_minus_two_pi_i_is_formed_once_per_precision():
    # the divided differences take -2 pi i from one memo per working
    # precision; it must be the value they formed on every call before
    import mpmath

    from spectile.oracle import _minus_two_pi_i

    for bits in (53, 128, 256, 1024):
        with mpmath.workprec(bits):
            fresh = mpmath.mpc(0, -2) * (+mpmath.pi)
        assert _minus_two_pi_i(bits)._mpc_ == fresh._mpc_
        assert _minus_two_pi_i(bits) is _minus_two_pi_i(bits)
