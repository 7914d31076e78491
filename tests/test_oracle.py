import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spectile
from spectile import Rat, from_vertices, oracle, zonotope
from spectile.errors import RankDeficient
from spectile.fourier import ft_indicator
from spectile.linalg import hnf_rational, norm_sq, sqrt_upper
from spectile.oracle import MultiplicityHistogram, SampleConfig, _times, mc_volume, multiplicity_sample, simplex_ft
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_times_is_the_fixed_order_elementwise_product(data):
    d = data.draw(st.sampled_from((2, 3)))
    k = data.draw(st.integers(1, 5))
    row = st.lists(st.floats(-1e300, 1e300), min_size=d, max_size=d)
    x = np.array(data.draw(st.lists(row, min_size=1, max_size=6)), dtype=float)
    rat = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    m = np.array([[float(data.draw(rat)) for _ in range(k)] for _ in range(d)])
    out = _times(x, m)
    assert out.shape == (len(x), k) and out.flags.f_contiguous
    gamma = Fraction(d, 2**53 - d)  # d·u / (1 − d·u), u = 2⁻⁵³
    for r in range(len(x)):
        xs, exact_x = [float(c) for c in x[r]], [Fraction(c) for c in x[r]]
        for j in range(k):
            acc = xs[0] * float(m[0, j])
            for i in range(1, d):
                acc = acc + xs[i] * float(m[i, j])
            assert out[r, j].tobytes() == np.float64(acc).tobytes()
            terms = [exact_x[i] * Fraction(m[i, j]) for i in range(d)]
            bound = gamma * sum(abs(t) for t in terms) + Fraction(d, 2**1074)
            assert abs(Fraction(out[r, j]) - sum(terms)) <= bound


def test_mc_volume_blocks_draw_the_samples_of_one_draw(monkeypatch):
    # the blocked inside test must count the hits of testing every sample
    # of one draw at once, with the same products
    p = zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, Rat(1, 2))])
    cfg = SampleConfig(count=10**4 + 17, seed=5)
    lo = np.array([min(float(v[i]) for v in p.vertices) for i in range(3)])
    hi = np.array([max(float(v[i]) for v in p.vertices) for i in range(3)])
    pts = np.random.default_rng(cfg.seed).random((cfg.count, 3)) * (hi - lo) + lo
    a = np.array([[float(c) for c in f.normal] for f in p.facets])
    b = np.array([float(f.offset) for f in p.facets])
    hits = int(np.count_nonzero(np.all(_times(pts, a.T) <= b + 1e-12, axis=1)))
    monkeypatch.setattr(oracle, "_VOLUME_BLOCK", 999)
    mv = mc_volume(p, cfg)
    assert mv.hits == hits
    assert mv.estimate == float(np.prod(hi - lo)) * (hits / cfg.count)



def test_multiplicity_blocks_count_the_samples_of_one_draw(monkeypatch):
    # blocks of 333 samples, each with its own extremes for the exact
    # shortcuts, must count what one block of every sample counts
    p = zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, Rat(1, 2))])
    taus = [t.tau for t in tau_vectors(p)]
    cfg = SampleConfig(count=2000 + 17, seed=5)
    whole = multiplicity_sample(p, taus, cfg)
    assert whole == _dense_histogram(p, taus, cfg)
    monkeypatch.setattr(oracle, "_VOLUME_BLOCK", 333)
    assert multiplicity_sample(p, taus, cfg) == whole

_THREAD_TICKS = """
import json, os, sys, time
from pathlib import Path
from spectile.cli import main

def ticks():
    out = {}
    for task in Path("/proc/self/task").iterdir():
        try:
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:  # the thread has ended
            continue
        out[int(task.name)] = int(fields[11]) + int(fields[12])  # utime + stime
    return out

# numpy's BLAS workers spin for a while after the pool starts at import;
# measure from the moment no other thread gains ticks
before = ticks()
for _ in range(20):
    time.sleep(0.2)
    now = ticks()
    if all(t == before.get(tid) for tid, t in now.items() if tid != os.getpid()):
        break
    before = now
shape, samples, out = "catalog:rhombic-icosahedron", "200000", sys.argv[1]
for argv in (
    ["analyze", shape, "--samples", samples, "--output", out],
    ["oracle", shape, "--op", "volume", "--samples", samples, "--output", out],
    ["oracle", shape, "--op", "multiplicity", "--samples", samples, "--output", out],
):
    assert main(argv) == 0, argv
after = ticks()
gained = {tid: t - before.get(tid, 0) for tid, t in after.items() if tid != os.getpid()}
print(json.dumps({"threads": len(after), "gained": gained}))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task for per-thread CPU ticks")
def test_oracles_leave_every_other_thread_idle(tmp_path):
    # the covering and volume oracles form their products on the calling
    # thread; a BLAS product of this size wakes numpy's BLAS pool, whose
    # workers then spin.  The child's environment sets no thread count
    # (no OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS), as a
    # user's shell need not.
    src_root = Path(spectile.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_TICKS, str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    if result["threads"] == 1:
        pytest.skip("numpy started no thread besides the main one here")
    assert all(t == 0 for t in result["gained"].values()), result


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
    None when the translate box would exceed max_box candidates, if given.
    Its products are BLAS `@` on purpose: an arithmetic independent of
    oracle._times, which may differ from it in the last bit."""
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
    from spectile import fourier, geometry, walk

    shapes = [zonotope(g) for g in ([(1, 0), (0, 1), (1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, Rat(1, 2))])]
    expected = [(simplex_ft(p, (0,) * p.dim), simplex_ft(p, (Rat(1, 3),) * p.dim)) for p in shapes]

    def refuse(*args):
        raise AssertionError("the oracle reached a fast path")

    monkeypatch.setattr(fourier, "_batch_geometry", refuse)
    monkeypatch.setattr(walk, "_walk_hp", refuse)
    monkeypatch.setattr(geometry.Polytope, "integer_vertices", property(refuse))
    monkeypatch.setattr(geometry.Polytope, "volume", property(refuse))
    for p, (at_zero, at_third) in zip(shapes, expected):
        p._cache.clear()  # the oracle's own memo is rebuilt under the patches
        assert simplex_ft(p, (0,) * p.dim) == at_zero
        assert simplex_ft(p, (Rat(1, 3),) * p.dim) == at_third
    # the walk's patch sits on the binding a transform reaches
    with pytest.raises(AssertionError, match="fast path"):
        fourier.ft_indicator(shapes[0], (Rat(1, 3),) * 2)


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
