"""Self-tests of the benchmark's checkers: each reproduces known values and
rejects a planted wrong value.  They need neither spectile nor a run.

    python3 perfbench/test_checkers.py        # or: python -m pytest perfbench/test_checkers.py
"""

import random
from fractions import Fraction

import checks

IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
GENERIC5 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]


def test_ball_counts_reproduce_known_values():
    ball = checks.BallPoints(IDENTITY3, 5.0)
    assert len(ball) == 515  # the cube's dual, Z^3, at radius 5
    assert ball.shortest_nonzero() == 1.0
    assert len(checks.BallPoints([[1, 0], [0, 1]], 5.0)) == 81  # Gauss circle problem, r = 5
    # a rational basis: (1/2)Z^3 in the ball of radius 1 is Z^3 in radius 2
    assert len(checks.BallPoints([["1/2", 0, 0], [0, "1/2", 0], [0, 0, "1/2"]], 1.0)) == len(
        checks.BallPoints(IDENTITY3, 2.0)
    )


def test_ball_radius_is_read_exactly():
    # 1.2 as a float is just below 6/5, so |(6/5, 0)| = 6/5 lies outside
    assert (Fraction(6, 5), Fraction(0)) not in checks.BallPoints([["6/5", 0], [0, "6/5"]], 1.2).points()
    assert (Fraction(6, 5), Fraction(0)) in checks.BallPoints([["6/5", 0], [0, "6/5"]], 1.25).points()


def test_catalog_volumes_match_documented_values():
    assert checks.catalog_volume("hexagon") == 3
    assert checks.catalog_volume("truncated-octahedron") == 32
    assert checks.catalog_volume("cube") == 1
    assert checks.zonotope_volume([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_patch_with_one_point_dropped_is_rejected():
    ball = checks.BallPoints(IDENTITY3, 2.0)
    points = sorted(ball.points())
    assert checks.patch_problems(points, ball) == []
    assert checks.patch_problems(points[:7] + points[8:], ball)
    assert checks.patch_problems(points + points[:1], ball)  # a duplicate


def _zonotope_report(gens, volume):
    k, d = len(gens), len(gens[0])
    return {
        "polytope": {"volume": str(volume), "f_vector": checks.zonotope_f_vector(k, d)},
        "spectral": {"is_spectral": False, "reason": checks.zonotope_reason(k, d)},
    }


def test_zonotope_volume_off_by_one_is_rejected():
    vol = checks.zonotope_volume(GENERIC5)
    assert checks.zonotope_report_problems(GENERIC5, _zonotope_report(GENERIC5, vol)) == []
    assert checks.zonotope_report_problems(GENERIC5, _zonotope_report(GENERIC5, vol + 1))


def test_zonotope_face_counts_and_verdict():
    # the five-generator rhombic icosahedron: 22 vertices, 40 edges, 20 faces, belts of 8
    assert checks.zonotope_f_vector(5, 3) == [22, 40, 20]
    assert checks.zonotope_reason(5, 3) == "belt-length-8"
    assert checks.zonotope_f_vector(4, 2) == [8, 8]  # an octagon
    assert checks.in_general_position(GENERIC5)
    assert not checks.in_general_position(GENERIC5 + [(2, 4, 6)])
    rep = _zonotope_report(GENERIC5, checks.zonotope_volume(GENERIC5))
    rep["spectral"]["reason"] = "belt-length-6"
    assert checks.zonotope_report_problems(GENERIC5, rep)


def test_transform_perturbed_by_1e6_is_rejected():
    value = complex(0.31, -0.12)
    xi = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))
    boundary = checks.zonotope_boundary_measure(GENERIC5)
    assert checks.fourier_problems([(xi, value)], [xi], boundary, lambda _: value) == []
    assert checks.fourier_problems([(xi, value + 1e-6)], [xi], boundary, lambda _: value)
    assert checks.fourier_problems([(xi, value)], [xi], boundary, lambda _: value + 1e-6)


def test_decay_bound_rejects_a_value_above_it():
    xi = (Fraction(3), Fraction(0), Fraction(0))
    bound = checks.decay_bound(6.0, xi)  # the unit cube: boundary 6
    assert abs(bound - 6.0 / (2 * 3.141592653589793 * 3)) < 1e-9
    big = complex(bound * 1.001, 0)
    assert checks.fourier_problems([(xi, big)], [xi], 6.0, lambda _: big)


def test_unimodular_pairing():
    assert checks.unimodular_pairing(IDENTITY3, IDENTITY3) == []
    assert checks.unimodular_pairing([["1/2", 0, 0], [0, 1, 0], [0, 0, 1]], IDENTITY3)
    assert checks.unimodular_pairing([[2, 0, 0], [0, 1, 0], [0, 0, 1]], IDENTITY3)


def test_density_report_must_follow_the_rule():
    ball = checks.BallPoints(IDENTITY3, 5.0)  # 515 points, 523.6 expected
    density = 515 / (4.0 / 3.0 * 3.141592653589793 * 125)
    assert checks.density_problems((True, 515, density, 1.0), 515, 5.0, 3, 1) == []
    assert checks.density_problems((False, 515, density, 1.0), 515, 5.0, 3, 1)
    assert checks.density_problems((True, 514, density, 1.0), 515, 5.0, 3, 1)
    # radius 3: 123 points against 113.1 expected, outside 5%, so it cannot pass
    assert len(checks.BallPoints(IDENTITY3, 3.0)) == 123
    density = 123 / (4.0 / 3.0 * 3.141592653589793 * 27)
    assert checks.density_problems((True, 123, density, 1.0), 123, 3.0, 3, 1)
    assert checks.density_problems((False, 123, density, 1.0), 123, 3.0, 3, 1)
    # fewer than 100 expected points: the report must be refused
    assert checks.density_problems(None, len(ball), 2.0, 3, 1) == []
    assert checks.density_problems((True, 33, 0.98, 1.0), 33, 2.0, 3, 1)


def test_catalog_report_checker_rejects_a_dropped_patch_point():
    ball = checks.BallPoints(IDENTITY3, 5.0)
    rep = {
        "polytope": {"volume": "1"},
        "spectral": {"is_spectral": True, "reason": "tiles-by-translation", "spectrum_basis": IDENTITY3},
        "tiling": {"lattice": IDENTITY3, "covolume": "1", "fedorov": "Parallelepiped"},
        "verification": {
            "patch": {"count": len(ball), "separation": 1.0},
            "orthogonality": {"passed": True, "max_residual": 1e-15},
            "c2_integrality": {"passed": True, "max_distance_to_integer": 0.0},
            "density": {"passed": True, "count": 515, "density": 515 / (4.0 / 3.0 * 3.141592653589793 * 125), "target": 1.0},
            "uniqueness": {"status": "prism-excluded"},
        },
    }
    assert checks.catalog_report_problems("cube", 5.0, rep, lambda _: 0.0, random.Random(1)) == []
    rep["verification"]["patch"]["count"] = 514
    assert checks.catalog_report_problems("cube", 5.0, rep, lambda _: 0.0, random.Random(1))


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checker self-tests passed")
