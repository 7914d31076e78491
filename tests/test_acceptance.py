"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import functools
import math
import random
import time

import pytest

from spectile import (
    AffineMap,
    Rat,
    SampleConfig,
    decide_spectral,
    dual_lattice,
    ft_indicator,
    ft_with_boundary,
    lattice_T,
    make,
    make_patch,
    multiplicity_sample,
    patch,
    simplex_ft,
    uniqueness_check,
    venkov_mcmullen,
    verify_density,
    verify_orthogonality,
    zonotope,
)
from spectile.catalog import prism
from spectile.errors import PrismExcluded
from spectile.fourier import asymptotic_cone_check, decay_bound_check
from spectile.geometry import from_vertices
from spectile.linalg import det, norm_sq
from spectile.spectrum import PrismSpectrumSpec, condition_C2_check, prism_spectrum
from spectile.symmetry import minkowski_check, tau_vectors
from spectile.tiling import FedorovClass, Lattice, fedorov_classify, packing_verify

from conftest import random_frequency, random_generators

SEED = 20170529


def _report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def criterion(fn):
    """Print a FAIL line when a criterion's assertions do not hold; the
    passing path prints its own PASS line with details."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BaseException:
            label = fn.__name__.replace("test_", "").replace("_", "-")
            print(f"ACCEPTANCE {label}: FAIL")
            raise

    return wrapper


@criterion
def test_criterion_01_cube_baseline():
    """Unit cube: spectral, spectrum is the integer lattice, orthogonality
    residual below 1e-12 on the radius-5 patch, density 1 within 5% at 10."""
    cube = make("cube")
    verdict = decide_spectral(cube)
    assert verdict.is_spectral
    z3 = Lattice.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert verdict.spectrum == z3
    sp = patch(verdict.spectrum, 5.0)
    orth = verify_orthogonality(cube, sp)
    assert orth.max_residual <= 1e-12
    dens = verify_density(cube, patch(verdict.spectrum, 10.0), rel_tol=0.05)
    assert dens.passed
    _report(
        "criterion-01 cube-baseline",
        f"residual {orth.max_residual:.2e} over {orth.num_differences} diffs, density {dens.density:.4f}",
    )


@criterion
def test_criterion_02_triangle_negative():
    """The triangle is not spectral; the witness is failed central symmetry."""
    tri = make("triangle")
    verdict = decide_spectral(tri)
    assert not verdict.is_spectral
    assert verdict.reason == "not-centrally-symmetric"
    mink = minkowski_check(tri)
    assert not mink.passed and mink.witness_facet is not None
    _report("criterion-02 triangle-negative", f"reason {verdict.reason}, witness facet {mink.witness_facet}")


@criterion
def test_criterion_03_hexagon():
    """Hexagon: tiles, covolume equals area 3 exactly, orthogonality at
    radius 10 within 1e-10 x area, uniqueness under an irrational
    translation, all inside five seconds."""
    t0 = time.perf_counter()
    hexagon = make("hexagon")
    rep = venkov_mcmullen(hexagon)
    assert rep.tiles
    lt = lattice_T(hexagon)
    assert lt.covolume == 3 == hexagon.volume
    dual = dual_lattice(lt)
    sp = patch(dual, 10.0)
    orth = verify_orthogonality(hexagon, sp)
    assert orth.passed
    assert orth.max_residual <= 1e-10 * float(hexagon.volume)
    shift = (math.sqrt(2) / 5, math.sqrt(3) / 7)
    shifted = make_patch(
        [tuple(float(c) + s for c, s in zip(q, shift)) for q in patch(dual, 4.0).points], 4.6
    )
    assert uniqueness_check(hexagon, shifted)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        "criterion-03 hexagon",
        f"covolume 3, residual {orth.max_residual:.2e}, irrational-translate uniqueness, {elapsed:.2f}s",
    )


@criterion
def test_criterion_04_fedorov_catalog():
    """All five solids classify correctly, belts are 4s and 6s, the lattice
    covolume equals the volume exactly, and packing verifies exactly."""
    expected = {
        "cube": FedorovClass.PARALLELEPIPED,
        "hexagonal-prism": FedorovClass.HEXAGONAL_PRISM,
        "rhombic-dodecahedron": FedorovClass.RHOMBIC_DODECAHEDRON,
        "elongated-dodecahedron": FedorovClass.ELONGATED_DODECAHEDRON,
        "truncated-octahedron": FedorovClass.TRUNCATED_OCTAHEDRON,
    }
    details = []
    for name, cls in expected.items():
        p = make(name)
        rep = venkov_mcmullen(p)
        assert rep.tiles, name
        assert all(n in (4, 6) for n in rep.belt_lengths), name
        assert fedorov_classify(p) is cls, name
        lt = lattice_T(p)
        assert lt.covolume == p.volume, name
        assert packing_verify(p, lt), name
        details.append(f"{cls.value}{list(rep.belt_lengths)}")
    _report("criterion-04 fedorov-catalog", "; ".join(details))


@criterion
def test_criterion_05_non_tiler_zonotope():
    """The five-generator zonotope fails the belt condition with a belt of
    eight facets, yet its translates cover every sampled point (and overlap
    somewhere)."""
    ri = make("rhombic-icosahedron")
    rep = venkov_mcmullen(ri)
    assert not rep.tiles
    assert rep.failing_belt_length == 8
    taus = [t.tau for t in tau_vectors(ri)]
    hist = multiplicity_sample(ri, taus, SampleConfig(count=10**5, seed=SEED))
    assert hist.seed == SEED
    assert hist.min >= 1
    assert hist.max >= 2
    _report(
        "criterion-05 non-tiler-zonotope",
        f"belt of 8; multiplicities in [{hist.min}, {hist.max}] over {hist.count} samples, seed {hist.seed}",
    )


@criterion
def test_criterion_06_fourier_engine_equivalence():
    """On twenty random zonotopes: the boundary recursion agrees with the
    simplex oracle at a hundred random rational frequencies each (1e-9
    relative / 1e-12 absolute), the boundary identity holds to 1e-10, and
    the surface-area decay bound holds at a thousand samples per shape.
    Each frequency is walked once, by ft_with_boundary; its value equals
    ft_indicator's."""
    rng = random.Random(SEED)
    worst_pair = 0.0
    worst_identity = 0.0
    for shape_idx in range(20):
        dim = 2 if shape_idx % 4 == 3 else 3
        p = zonotope(random_generators(rng, rng.randint(dim, dim + 2), dim))
        freqs = [random_frequency(rng, dim) for _ in range(100)]
        for k, xi in enumerate(freqs):
            # one walk per frequency: the boundary recursion's body value is
            # the transform, checked against ft_indicator once per shape
            val, sigmas = ft_with_boundary(p, xi)
            if k == 0:
                assert ft_indicator(p, xi) == val
            b = simplex_ft(p, xi)
            diff = abs(val.as_complex() - b.as_complex())
            assert diff <= max(1e-9 * val.magnitude, 1e-12)
            worst_pair = max(worst_pair, diff)
            left = [-2 * math.pi * float(c) * 1j * val.as_complex() for c in xi]
            right = [0j] * dim
            for f, s in zip(p.facets, sigmas):
                scale = math.sqrt(float(norm_sq(f.normal)))
                for j in range(dim):
                    right[j] += float(f.normal[j]) / scale * s.as_complex()
            resid = max(abs(l - r) for l, r in zip(left, right))
            assert resid <= 1e-10
            worst_identity = max(worst_identity, resid)
        decay = decay_bound_check(p, [random_frequency(rng, dim) for _ in range(1000)])
        assert decay.passed
    _report(
        "criterion-06 fourier-equivalence",
        f"worst oracle gap {worst_pair:.2e}, worst identity residual {worst_identity:.2e}, decay 20x1000 ok",
    )


# Regression fixtures for the cone residual, recorded from this code at
# 128-bit phase precision over the xi_1 ladder below; the asserted window
# is +-10%.
CONE_LADDER = [Rat(13, 3), Rat(25, 3), Rat(49, 3), Rat(97, 3), Rat(193, 3)]
CONE_FIXTURE_PRISM_SIDE = 0.313909
CONE_FIXTURE_TRUNC_OCT = 2.84969


@criterion
def test_criterion_07_cone_residuals():
    """Facet asymptotics: exactly zero for the cube (product structure),
    bounded and matching the recorded fixtures for the hexagonal prism and
    the truncated octahedron in standard position."""
    cube, square = make("cube"), make("square")
    rep = asymptotic_cone_check(cube, square, 0.1, CONE_LADDER)
    assert rep.max_r_abs <= 1e-25
    # hexagonal prism along the prism axis: also a product, residual zero
    hp, hexagon = make("hexagonal-prism"), make("hexagon")
    rep_axis = asymptotic_cone_check(hp, hexagon, 0.1, CONE_LADDER)
    assert rep_axis.max_r_abs <= 1e-25
    # the same prism normalized to a side facet: genuine bounded residual
    side = hp.apply_affine(
        AffineMap.linear([[0, Rat(1, 2), Rat(1, 2)], [0, Rat(1, 2), Rat(-1, 2)], [1, 0, 0]])
    )
    sigma_side = make("square")
    rep_side = asymptotic_cone_check(side, sigma_side, 0.1, CONE_LADDER)
    assert 0.9 * CONE_FIXTURE_PRISM_SIDE <= rep_side.max_r_scaled <= 1.1 * CONE_FIXTURE_PRISM_SIDE
    # truncated octahedron, square facet at x = 2 normalized to {x1 = 1/2}
    to = make("truncated-octahedron")
    ton = to.apply_affine(AffineMap.linear([[Rat(1, 4), 0, 0], [0, 1, 0], [0, 0, 1]]))
    sigma_to = from_vertices([(0, 1), (1, 0), (0, -1), (-1, 0)])
    rep_to = asymptotic_cone_check(ton, sigma_to, 0.1, CONE_LADDER)
    assert 0.9 * CONE_FIXTURE_TRUNC_OCT <= rep_to.max_r_scaled <= 1.1 * CONE_FIXTURE_TRUNC_OCT
    _report(
        "criterion-07 cone-residuals",
        f"cube 0 (<=1e-25), prism-side {rep_side.max_r_scaled:.4f} ~ {CONE_FIXTURE_PRISM_SIDE}, "
        f"trunc-oct {rep_to.max_r_scaled:.4f} ~ {CONE_FIXTURE_TRUNC_OCT}",
    )


@criterion
def test_criterion_08_c2_integrality():
    """Dual-lattice patches of all catalog tilers satisfy the facet-pairing
    integrality exactly; twenty perturbed patches fail it."""
    tilers = {
        "square": 4.0,
        "hexagon": 4.0,
        "cube": 2.0,
        "hexagonal-prism": 2.0,
        "rhombic-dodecahedron": 1.5,
        "elongated-dodecahedron": 1.5,
        "truncated-octahedron": 1.5,
    }
    for name, radius in tilers.items():
        p = make(name)
        taus = [t.tau for t in tau_vectors(p)]
        sp = patch(dual_lattice(lattice_T(p)), radius)
        rep = condition_C2_check(sp, taus)
        assert rep.passed and rep.max_distance_to_integer == 0.0, name
    # perturbations of at least 1e-3 along a tau direction must fail
    rng = random.Random(SEED)
    hexagon = make("hexagon")
    taus = [t.tau for t in tau_vectors(hexagon)]
    base = patch(dual_lattice(lattice_T(hexagon)), 3.0)
    failures = 0
    for k in range(20):
        tau = taus[rng.randrange(len(taus))]
        tnorm = math.sqrt(float(norm_sq(tau)))
        delta = rng.uniform(1e-3, 5e-3)
        pts = [tuple(float(c) for c in q) for q in base.points]
        idx = rng.randrange(len(pts))
        pts[idx] = tuple(c + delta * float(t) / tnorm for c, t in zip(pts[idx], tau))
        rep = condition_C2_check(make_patch(pts, base.window_radius + 0.1), taus)
        assert not rep.passed
        failures += 1
    assert failures == 20
    _report("criterion-08 c2-integrality", "7 tilers exact, 20/20 perturbations rejected")


@criterion
def test_criterion_09_prism_non_uniqueness():
    """Two prism spectra with different offset maps: both orthogonal for
    the hexagonal prism, not translates of each other, and the uniqueness
    check refuses to certify a prism."""
    hexagon = make("hexagon")
    hex_prism = make("hexagonal-prism")
    base = patch(dual_lattice(lattice_T(hexagon)), 2.0)
    theta0 = {q: 0 for q in base.points}
    theta1 = {q: sum(c * w for c, w in zip(q, (Rat(1, 5), Rat(1, 5)))) % 1 for q in base.points}
    sp0 = prism_spectrum(hexagon, PrismSpectrumSpec(base, theta0), 2.0)
    sp1 = prism_spectrum(hexagon, PrismSpectrumSpec(base, theta1), 2.0)
    vol = float(hex_prism.volume)
    for sp in (sp0, sp1):
        rep = verify_orthogonality(hex_prism, sp)
        assert rep.passed and rep.max_residual <= 1e-10 * vol
    anchor0 = sorted(tuple(x - m for x, m in zip(q, min(sp0.points))) for q in sp0.points)
    anchor1 = sorted(tuple(x - m for x, m in zip(q, min(sp1.points))) for q in sp1.points)
    assert anchor0 != anchor1  # not translation-equivalent
    with pytest.raises(PrismExcluded):
        uniqueness_check(hex_prism, sp0)
    _report(
        "criterion-09 prism-non-uniqueness",
        f"two spectra of {len(sp0)} and {len(sp1)} points, both orthogonal, not translates",
    )


@criterion
def test_criterion_10_affine_covariance():
    """Ten random invertible rational maps on the hexagon and the truncated
    octahedron: the image tiling lattice is the image of the lattice, the
    image spectrum is the inverse-transpose image of the spectrum, exactly."""
    rng = random.Random(SEED)
    for p in (make("hexagon"), make("truncated-octahedron")):
        d = p.dim
        lt = lattice_T(p)
        dual = dual_lattice(lt)
        for _ in range(10):
            while True:
                m = tuple(
                    tuple(Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d))
                    for _ in range(d)
                )
                if det(m) != 0:
                    break
            amap = AffineMap.linear(m)
            image = p.apply_affine(amap)
            lt_img = lattice_T(image)
            assert lt_img == Lattice.from_generators([amap.apply(b) for b in lt.basis])
            inv_t = AffineMap.linear(list(zip(*amap.inverse().matrix)))
            assert dual_lattice(lt_img) == Lattice.from_generators(
                [inv_t.apply(b) for b in dual.basis]
            )
    _report("criterion-10 affine-covariance", "10 maps x {hexagon, truncated octahedron}, exact")
