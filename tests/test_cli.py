import csv
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spectile
from spectile import Rat, make, spectrum
from spectile.cli import main
from spectile.spectrum import decide_spectral, patch

from conftest import random_frequency, random_generators


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_cube(capsys, tmp_path):
    out_file = tmp_path / "cube.json"
    code, _, _ = run_cli(capsys, "analyze", "catalog:cube", "--output", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["tiling"]["tiles"] is True
    assert rep["tiling"]["fedorov"] == "Parallelepiped"
    assert rep["spectral"]["is_spectral"] is True
    assert rep["verification"]["orthogonality"]["passed"] is True
    assert rep["verification"]["orthogonality"]["fallbacks"] == 0
    assert rep["parameters"]["seed"] == 20170529
    assert rep["tool"]["name"] == "spectile"


def test_analyze_deterministic_modulo_timings(capsys):
    code, out1, _ = run_cli(capsys, "analyze", "catalog:hexagon")
    assert code == 0
    code, out2, _ = run_cli(capsys, "analyze", "catalog:hexagon")
    assert code == 0
    a, b = json.loads(out1), json.loads(out2)
    sa = json.dumps(strip_timings(a), sort_keys=True)
    sb = json.dumps(strip_timings(b), sort_keys=True)
    assert sa == sb


def test_analyze_reports_prism_excluded(capsys):
    code, out, _ = run_cli(capsys, "analyze", "catalog:hexagonal-prism", "--radius", "1.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["tiling"]["is_prism"] is True
    assert rep["verification"]["uniqueness"]["status"] == "prism-excluded"


def test_analyze_rhombic_icosahedron_covering_oracle(capsys):
    code, out, _ = run_cli(capsys, "analyze", "catalog:rhombic-icosahedron", "--samples", "5000")
    assert code == 0
    rep = json.loads(out)
    assert rep["spectral"]["reason"] == "belt-length-8"
    oracle = rep["verification"]["covering_oracle"]
    assert oracle["min_multiplicity"] >= 1
    assert oracle["max_multiplicity"] >= 2


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "catalog:nope")
    assert code == 2 and "unknown catalog shape" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [[0, 0], [1, 1], [2, 2]]}))
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2


def test_analyze_interval_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "catalog:interval")
    assert code == 2 and out == ""
    assert "dimension 1" in err and "fourier" in err and "oracle" in err


def test_fourier_csv(capsys, tmp_path):
    freq_file = tmp_path / "freqs.csv"
    freq_file.write_text("1,0,0\n1/2,0,0\n1/3,1/5,1/7\n")
    code, out, _ = run_cli(capsys, "fourier", "catalog:cube", "--frequencies", str(freq_file))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["xi", "re", "im", "abs", "is_zero"]
    assert rows[1][0] == "1 0 0" and rows[1][4] == "1"
    assert abs(float(rows[2][1]) - 2 / math.pi) < 1e-12 and rows[2][4] == "0"


def test_fourier_json_frequencies(capsys, tmp_path):
    freq_file = tmp_path / "freqs.json"
    freq_file.write_text(json.dumps([["1", "0"], ["1/3", "1/3"]]))
    code, out, _ = run_cli(capsys, "fourier", "catalog:hexagon", "--frequencies", str(freq_file))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3


def test_fourier_json_frequencies_not_rows_exit_2(capsys, tmp_path):
    # a row that is not a list, and top-level data that is not a list, are
    # parse errors naming the file (and the row), not tracebacks
    freq_file = tmp_path / "freqs.json"
    for data, where in (([1, 2], "[0]"), ({"a": 1}, ": "), (5, ": ")):
        freq_file.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "fourier", "catalog:hexagon", "--frequencies", str(freq_file))
        assert code == 2 and out == ""
        assert f"{freq_file}{where}" in err


def test_spectrum_patch_csv(capsys, tmp_path):
    out_file = tmp_path / "patch.csv"
    code, out, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "3", "--output", str(out_file))
    assert code == 0
    head = json.loads(out)
    assert head["basis"] == [["1/3", "2/3"], ["0", "1"]]
    rows = [r for r in csv.reader(io.StringIO(out_file.read_text())) if r]
    assert len(rows) > 20


def test_verify_roundtrip(capsys, tmp_path):
    patch_file = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "3", "--output", str(patch_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "catalog:hexagon", "--patch", str(patch_file))
    assert code == 0
    rep = json.loads(out)
    assert rep["orthogonality"]["passed"] is True
    assert rep["orthogonality"]["fallbacks"] == 0
    assert 0 < rep["orthogonality"]["max_err_bound"] < 1e-12
    assert rep["c2_integrality"]["passed"] is True
    assert rep["uniqueness"]["status"] == "pass"


def test_verify_shifted_float_patch_centres_its_window(capsys, tmp_path):
    # criterion 03's patch, the hexagon's dual ball of radius 4 shifted by
    # (sqrt 2 / 5, sqrt 3 / 7), written as float reprs: the default window
    # is centred at the centroid, and uniqueness agrees with the API
    base = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "4", "--output", str(base))
    assert code == 0
    rows = [[Fraction(c) for c in r] for r in csv.reader(io.StringIO(base.read_text())) if r]
    shift = (math.sqrt(2) / 5, math.sqrt(3) / 7)
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("".join(",".join(repr(float(c) + t) for c, t in zip(q, shift)) + "\n" for q in rows))
    code, out, _ = run_cli(capsys, "verify", "catalog:hexagon", "--patch", str(shifted))
    rep = json.loads(out)
    assert code == 0 and rep["patch"]["count"] == len(rows) == 149
    assert abs(rep["patch"]["window_radius"] - 4.0) < 1e-12
    assert rep["density"]["passed"] and rep["uniqueness"]["status"] == "pass"
    code, out, _ = run_cli(capsys, "verify", "catalog:hexagon", "--patch", str(shifted), "--radius", "4.6")
    rep = json.loads(out)
    assert rep["patch"]["window_radius"] == 4.6 and rep["uniqueness"]["status"] == "pass"
    # a lattice ball has centroid 0: its window is the largest |q|
    code, out, _ = run_cli(capsys, "verify", "catalog:hexagon", "--patch", str(base))
    largest = max(sum(float(c) ** 2 for c in q) ** 0.5 for q in rows)
    assert json.loads(out)["patch"]["window_radius"] == largest


def test_verify_detects_bad_patch(capsys, tmp_path):
    patch_file = tmp_path / "bad_patch.csv"
    patch_file.write_text("0,0,0\n1,0,0\n0.25,0,0\n")
    code, out, _ = run_cli(capsys, "verify", "catalog:cube", "--patch", str(patch_file))
    assert code == 0
    rep = json.loads(out)
    assert rep["orthogonality"]["passed"] is False


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "catalog:truncated-octahedron")
    assert code == 0
    assert json.loads(out)["fedorov"] == "TruncatedOctahedron"
    code, out, _ = run_cli(capsys, "classify", "catalog:rhombic-icosahedron")
    assert code == 0
    assert json.loads(out)["fedorov"] is None


def test_catalog_commands(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert "hexagon" in json.loads(out)
    code, out, _ = run_cli(capsys, "catalog", "emit", "hexagon")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 2 and len(data["vertices"]) == 6


def test_oracle_volume(capsys):
    code, out, _ = run_cli(capsys, "oracle", "catalog:hexagon", "--op", "volume", "--samples", "50000")
    assert code == 0
    rep = json.loads(out)
    assert rep["method"] == "bruteforce"
    assert abs(rep["estimate"] - 3.0) <= 4 * rep["stderr"]


def test_oracle_multiplicity(capsys):
    code, out, _ = run_cli(capsys, "oracle", "catalog:cube", "--op", "multiplicity", "--samples", "4000")
    assert code == 0
    rep = json.loads(out)
    assert rep["histogram"] == {"1": 4000}


def test_samples_below_one_exit_2(capsys):
    code, _, err = run_cli(capsys, "oracle", "catalog:hexagon", "--op", "volume", "--samples", "0")
    assert code == 2 and "sample count must be at least 1" in err
    # a non-tiler reaches the covering oracle, a tiler the covering check
    for shape in ("catalog:rhombic-icosahedron", "catalog:square"):
        code, _, err = run_cli(capsys, "analyze", shape, "--samples", "0")
        assert code == 2 and "sample count must be at least 1" in err


def test_samples_above_cap_exit_2(capsys):
    from spectile.oracle import MAX_SAMPLES

    over = str(MAX_SAMPLES + 1)
    code, out, err = run_cli(capsys, "oracle", "catalog:hexagon", "--op", "volume", "--samples", over)
    assert code == 2 and out == ""
    assert f"sample count must be at most {MAX_SAMPLES}, got {over}" in err
    code, out, err = run_cli(capsys, "analyze", "catalog:square", "--samples", over)
    assert code == 2 and out == "" and f"at most {MAX_SAMPLES}" in err


def test_main_reuses_one_parser_without_carrying_options(capsys, tmp_path):
    from spectile import cli
    from spectile.report import DEFAULT_RADIUS

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["analyze", "catalog:triangle", "--radius", "3", "--output", str(first)]) == 0
    assert main(["analyze", "catalog:triangle", "--output", str(second)]) == 0
    assert json.loads(first.read_text())["parameters"]["radius"] == 3.0
    assert json.loads(second.read_text())["parameters"]["radius"] == DEFAULT_RADIUS
    assert cli.build_parser() is cli.build_parser()


def test_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "catalog:rhombic-icosahedron", "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed must be non-negative, got -1" in err
    code, out, err = run_cli(capsys, "oracle", "catalog:hexagon", "--op", "volume", "--seed", "-1", "--samples", "10")
    assert code == 2 and out == ""
    assert "seed must be non-negative, got -1" in err


def test_bad_tolerance_exit_2(capsys, tmp_path):
    # inf would certify any patch, nan and negative values none
    patch_file = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "3", "--output", str(patch_file))
    assert code == 0
    for tol, message in (("inf", "must be finite, got inf"), ("nan", "must be finite, got nan"), ("-1", "must be non-negative, got -1.0")):
        for argv in (("analyze", "catalog:hexagon"), ("verify", "catalog:hexagon", "--patch", str(patch_file))):
            code, out, err = run_cli(capsys, *argv, "--tolerance", tol)
            assert code == 2 and out == "", (argv, tol)
            assert f"tolerance {message}" in err


def test_verify_reports_the_analyze_check_fields(capsys, tmp_path):
    patch_file = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "8", "--output", str(patch_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "catalog:hexagon", "--patch", str(patch_file), "--radius", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["c2_integrality"]["tolerance"] == 1e-9
    assert rep["density"]["count"] == rep["patch"]["count"]
    assert rep["density"]["rel_tolerance"] == 0.05
    # the blocks are the ones analyze writes for the same patch
    code, out, _ = run_cli(capsys, "analyze", "catalog:hexagon", "--radius", "8")
    assert code == 0
    ana = json.loads(out)["verification"]
    for key in ("orthogonality", "density", "c2_integrality", "uniqueness"):
        assert rep[key] == ana[key], key


def test_non_finite_radius_exit_2(capsys):
    # a tiler builds a patch; a non-tiler (the triangle) builds none, so the
    # radius has to be checked before anything else
    for command, shape in (("analyze", "catalog:square"), ("spectrum", "catalog:square"), ("analyze", "catalog:triangle")):
        for radius in ("inf", "nan"):
            code, out, err = run_cli(capsys, command, shape, "--radius", radius)
            assert code == 2 and out == "", (command, shape, radius)
            assert f"patch radius must be finite, got {radius}" in err


def test_verify_non_finite_window_radius_exit_2(capsys, tmp_path):
    patch_file = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", "catalog:cube", "--radius", "2", "--output", str(patch_file))
    assert code == 0
    for radius in ("inf", "nan"):
        code, out, err = run_cli(capsys, "verify", "catalog:cube", "--patch", str(patch_file), "--radius", radius)
        assert code == 2 and out == "", radius
        assert f"window radius must be finite, got {radius}" in err


def test_verify_coordinate_beyond_float_range_exit_2(capsys, tmp_path):
    patch_file = tmp_path / "patch.csv"
    patch_file.write_text("0,0\n1" + "0" * 400 + ",1\n")
    for radius in ((), ("--radius", "1")):
        code, out, err = run_cli(capsys, "verify", "catalog:square", "--patch", str(patch_file), *radius)
        assert code == 2 and out == "", radius
        assert "patch coordinate 0 of point 1 is beyond float range" in err
    # the default window radius, the largest |q - c|, overflows
    patch_file.write_text("0,0\n1e200,1\n")
    code, out, err = run_cli(capsys, "verify", "catalog:square", "--patch", str(patch_file))
    assert code == 2 and out == ""
    assert "default window radius, the largest |q - c| of a patch point q from the patch centroid c" in err


def test_analyze_zonotope_at_generator_cap(capsys, tmp_path, monkeypatch):
    """A 3D zonotope with MAX_ZONOTOPE_GENERATORS generators is analyzed
    at the default parameters without a single gift-wrap hull (2^14
    corners would take minutes).  Its tau translates cover space exactly
    volume / covolume = 25,044 times."""
    from spectile import geometry

    gens = random_generators(random.Random(14), geometry.MAX_ZONOTOPE_GENERATORS, 3)
    src = tmp_path / "zonotope.json"
    src.write_text(json.dumps({"zonotope": {"generators": [[str(c) for c in g] for g in gens]}}))
    hulls = []
    real = geometry.from_vertices
    monkeypatch.setattr(geometry, "from_vertices", lambda pts: hulls.append(1) or real(pts))
    out_file = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "analyze", str(src), "--output", str(out_file))
    assert code == 0 and hulls == []
    rep = json.loads(out_file.read_text())
    assert len(rep["polytope"]["vertices"]) == 174
    assert rep["tiling"]["tiles"] is False and rep["tiling"]["is_prism"] is False
    oracle = rep["verification"]["covering_oracle"]
    assert oracle["min_multiplicity"] == oracle["max_multiplicity"] == 25044


def test_oracle_transform(capsys, tmp_path):
    freq_file = tmp_path / "freqs.csv"
    freq_file.write_text("1/3,1/3\n")
    code, out, _ = run_cli(
        capsys, "oracle", "catalog:hexagon", "--op", "transform", "--frequencies", str(freq_file)
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert abs(float(rows[1][1]) - 1.5109113327184679) < 1e-9


# --- exports ------------------------------------------------------------------


def _coverage_counts(polygons, samples, tol=1e-6):
    """Coverage multiplicity of sample points over polygon tiles, with a
    pixel-style tolerance band: points within tol of any edge are masked
    out instead of counted ambiguously."""
    counts = np.zeros(len(samples), dtype=int)
    ambiguous = np.zeros(len(samples), dtype=bool)
    for poly in polygons:
        arr = np.array(poly)
        signed = 0.0
        for k in range(len(arr)):
            a, b = arr[k], arr[(k + 1) % len(arr)]
            signed += a[0] * b[1] - b[0] * a[1]
        orient = 1.0 if signed > 0 else -1.0
        min_cross = np.full(len(samples), np.inf)
        for k in range(len(arr)):
            a, b = arr[k], arr[(k + 1) % len(arr)]
            edge = b - a
            cross = orient * (edge[0] * (samples[:, 1] - a[1]) - edge[1] * (samples[:, 0] - a[0]))
            min_cross = np.minimum(min_cross, cross)
        counts += min_cross > tol
        ambiguous |= np.abs(min_cross) <= tol
    return counts, ambiguous


def test_export_svg_tiling_covers_once(capsys, tmp_path):
    out_file = tmp_path / "hex.svg"
    code, _, _ = run_cli(
        capsys, "export", "catalog:hexagon", "--format", "svg", "--copies", "25", "--output", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("<polygon") == 25
    polys = []
    for line in text.splitlines():
        if "<polygon" in line:
            pts = line.split('points="')[1].split('"')[0].split()
            ring = [tuple(map(float, q.split(","))) for q in pts]
            polys.append(ring)
    # the 25 nearest translates surely cover the disk of the tile's
    # circumradius around the origin; coverage there must be exactly 1
    rng = np.random.default_rng(42)
    angles = rng.random(3000) * 2 * math.pi
    radii = 1.3 * np.sqrt(rng.random(3000))
    samples = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    counts, ambiguous = _coverage_counts(polys, samples)
    good = ~ambiguous
    assert good.sum() > 2500
    assert counts[good].min() == 1 and counts[good].max() == 1


def test_export_obj_cube_grid(capsys, tmp_path):
    out_file = tmp_path / "cubes.obj"
    code, _, _ = run_cli(
        capsys, "export", "catalog:cube", "--format", "obj", "--copies", "27", "--output", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("o tile_") == 27
    assert text.count("v ") == 27 * 8
    assert text.count("f ") == 27 * 6
    # multiplicity 1 on a sample inside the covered block
    verts = []
    faces_seen = text.count("usemtl parity_0") + text.count("usemtl parity_1")
    assert faces_seen == 27
    for line in text.splitlines():
        if line.startswith("v "):
            verts.append(tuple(float(c) for c in line.split()[1:]))
    arr = np.array(verts).reshape(27, 8, 3)
    rng = np.random.default_rng(5)
    pts = rng.random((4000, 3)) - 0.5  # the central cell
    counts = np.zeros(len(pts), dtype=int)
    for block in arr:
        lo = block.min(axis=0)
        hi = block.max(axis=0)
        counts += np.all((pts >= lo - 1e-12) & (pts <= hi + 1e-12), axis=1)
    assert counts.min() == 1 and counts.max() == 1


def test_export_obj_truncated_octahedron_tiling(capsys, tmp_path):
    out_file = tmp_path / "to.obj"
    code, _, _ = run_cli(
        capsys,
        "export",
        "catalog:truncated-octahedron",
        "--format",
        "obj",
        "--copies",
        "27",
        "--output",
        str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("o tile_") == 27
    assert text.count("f ") == 27 * 14
    # the render's tiling really has multiplicity 1: sample the lattice cell
    from spectile import SampleConfig, make, multiplicity_sample
    from spectile.tiling import lattice_T

    to = make("truncated-octahedron")
    hist = multiplicity_sample(to, lattice_T(to).basis, SampleConfig(count=20000, seed=9))
    assert hist.counts == {1: 20000}


def test_export_copies_below_one_exit_2(capsys):
    for copies in ("-3", "0"):
        code, out, err = run_cli(capsys, "export", "catalog:square", "--format", "svg", "--copies", copies)
        assert code == 2 and out == ""
        assert f"--copies must be at least 1, got {copies}" in err


def test_export_dimension_mismatch(capsys):
    code, _, err = run_cli(capsys, "export", "catalog:cube", "--format", "svg")
    assert code == 2
    code, _, err = run_cli(capsys, "export", "catalog:hexagon", "--format", "obj")
    assert code == 2


def strict_json(text: str):
    """json.loads that refuses Infinity and NaN, which are not JSON."""

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_analyze_one_point_patch_separation_is_null(capsys):
    code, out, _ = run_cli(capsys, "analyze", "catalog:cube", "--radius", "0.5")
    assert code == 0
    assert strict_json(out)["verification"]["patch"] == {"radius": 0.5, "count": 1, "separation": None}
    # no differences: the largest residual, like the largest bound, is 0.0
    assert strict_json(out)["verification"]["orthogonality"]["max_residual"] == 0.0


def test_verify_one_point_patch_separation_is_null(capsys, tmp_path):
    patch_file = tmp_path / "one.csv"
    patch_file.write_text("0,0,0\n")
    code, out, _ = run_cli(capsys, "verify", "catalog:cube", "--patch", str(patch_file))
    assert code == 0
    assert strict_json(out)["patch"]["separation"] is None
    assert strict_json(out)["orthogonality"]["max_residual"] == 0.0


def test_verify_residual_without_a_finite_value_is_null(capsys, tmp_path):
    # the difference (1e-200, 0) lies too close to a face-parallel direction
    # for the transform to have a finite value or bound at any precision
    patch_file = tmp_path / "tiny.csv"
    patch_file.write_text("0,0\n1e-200,0\n1,0\n")
    code, out, _ = run_cli(capsys, "verify", "catalog:hexagon", "--patch", str(patch_file), "--radius", "2")
    assert code == 0
    orth = strict_json(out)["orthogonality"]
    assert orth["passed"] is False
    assert orth["max_residual"] is None and orth["max_err_bound"] is None


def test_report_json_roundtrip(capsys):
    # re-parsing the serialized report reproduces the dict (schema completeness)
    code, out, _ = run_cli(capsys, "analyze", "catalog:square")
    assert code == 0
    rep = json.loads(out)
    assert json.loads(json.dumps(rep, sort_keys=True)) == rep
    for key in ("schema_version", "tool", "input", "parameters", "polytope", "symmetry", "tiling", "spectral", "verification", "timings"):
        assert key in rep


def test_verify_window_radius_negative_exit_2_and_zero_kept(capsys, tmp_path):
    patch_file = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", "catalog:cube", "--radius", "2", "--output", str(patch_file))
    assert code == 0
    code, out, err = run_cli(capsys, "verify", "catalog:cube", "--patch", str(patch_file), "--radius", "-1")
    assert code == 2 and out == ""
    assert "window radius must be non-negative, got -1.0" in err
    # 0 is a radius, not a missing one: it must not become the largest norm
    code, out, _ = run_cli(capsys, "verify", "catalog:cube", "--patch", str(patch_file), "--radius", "0")
    assert code == 0
    assert json.loads(out)["patch"]["window_radius"] == 0.0


def test_oracle_multiplicity_box_over_cap_exit_2(capsys, tmp_path, monkeypatch):
    """The unreduced HNF basis of this zonotope's tau vectors asks for a
    2235 x 2235 x 2241 translate box; the oracle refuses it before any
    array of that size exists."""
    src = tmp_path / "zonotope.json"
    gens = [["1/2", "-1", "0"], ["3", "1", "2"], ["3", "3/2", "-2"], ["-1", "2", "-3"]]
    src.write_text(json.dumps({"zonotope": {"generators": gens}}))
    sizes = []
    real = np.meshgrid
    monkeypatch.setattr(np, "meshgrid", lambda *axes, **kw: sizes.append(math.prod(map(len, axes))) or real(*axes, **kw))
    code, out, err = run_cli(capsys, "oracle", str(src), "--op", "multiplicity")
    assert code == 2 and out == ""
    assert f"translate enumeration too large ({2235 * 2235 * 2241} candidates)" in err
    assert all(n <= 2 * 10**7 for n in sizes)


def test_python_dash_m_spectile():
    # an uninstalled source checkout runs as `PYTHONPATH=src python -m spectile`
    src_root = Path(spectile.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "spectile", "catalog", "list"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert out.returncode == 0, out.stderr
    assert "cube" in json.loads(out.stdout)


def test_precision_is_no_setting(tmp_path):
    # values are always at 128 bits: an environment variable of the name
    # an older setting had, even an invalid value, changes nothing
    src_root = Path(spectile.__file__).resolve().parents[1]
    reports = []
    for i, extra in enumerate(({}, {"SPECTILE_PRECISION_BITS": "nope"})):
        path = tmp_path / f"report-{i}.json"
        out = subprocess.run(
            [sys.executable, "-m", "spectile", "analyze", "catalog:hexagon", "--output", str(path)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root), **extra},
        )
        assert out.returncode == 0, out.stderr
        reports.append(strip_timings(json.loads(path.read_text())))
    assert reports[0] == reports[1]
    assert reports[0]["parameters"]["precision_bits"] == 128


def test_stdlib_backend_importable():
    # a clean interpreter computes with the stdlib rationals and an mpmath
    # phase, with no other arithmetic backend to choose
    code = (
        "from spectile import BACKEND, Rat, ft_indicator, make\n"
        "from spectile.fourier import _phase\n"
        "import mpmath\n"
        "assert BACKEND == 'stdlib', BACKEND\n"
        "assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)\n"
        "with mpmath.workprec(128):\n"
        "    z = complex(_phase(1, 4))\n"
        "assert abs(z - (-1j)) < 1e-15, z\n"
        "assert abs(ft_indicator(make('cube'), (Rat(1, 2), 0, 0)).re - 2 / 3.141592653589793) < 1e-15\n"
        "print('ok')\n"
    )
    # the child sees only the directory holding the spectile package this
    # process imported, so an uninstalled source checkout works and no other
    # settings leak in
    src_root = Path(spectile.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_every_exported_name_resolves():
    # spectile.__all__ and each submodule's __all__ name only what exists
    import importlib

    names = sorted(p.stem for p in Path(spectile.__file__).parent.glob("*.py") if not p.stem.startswith("__"))
    modules = [spectile] + [importlib.import_module(f"spectile.{n}") for n in names]
    exported = [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ())]
    assert [(m, name) for m, name in exported if not hasattr(sys.modules[m], name)] == []
    assert ("spectile", "zero_free_radius") in exported and ("spectile.spectrum", "zero_free_radius") in exported
    assert len({m for m, _ in exported}) >= 8


def test_imports_leave_scipy_out():
    # scipy is no dependency; importing it would add about 37 MB of resident
    # memory and half a second of start-up to every run
    src_root = Path(spectile.__file__).resolve().parents[1]
    names = sorted(p.stem for p in Path(spectile.__file__).parent.glob("*.py") if p.stem != "__main__")
    code = "import importlib, sys\n"
    code += "".join(f"importlib.import_module('spectile.{n}')\n" for n in names if n != "__init__")
    code += "import spectile\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    assert len(names) > 10  # every module was imported


# the lattice-patches and analyze-catalog shapes and radii of perfbench
PATCH_RADII = (
    ("square", "14.0"),
    ("hexagon", "8.0"),
    ("cube", "5.0"),
    ("hexagonal-prism", "3.5"),
    ("rhombic-dodecahedron", "2.0"),
    ("elongated-dodecahedron", "1.625"),
    ("truncated-octahedron", "1.625"),
)
ANALYZE_RADII = (
    ("square", "5.0"),
    ("hexagon", "5.0"),
    ("cube", "5.0"),
    ("hexagonal-prism", "2.0"),
    ("rhombic-dodecahedron", "1.25"),
    ("elongated-dodecahedron", "1.125"),
    ("truncated-octahedron", "1.25"),
    ("triangle", "5.0"),
    ("rhombic-icosahedron", "5.0"),
)


def _reference_patch_csv(points) -> bytes:
    """The patch CSV as it was first written: csv.writer over str(c) of
    the points' Rat tuples."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for q in points:
        writer.writerow([str(c) for c in q])
    return buf.getvalue().encode()


@pytest.mark.parametrize("name, radius", PATCH_RADII + (("hexagon", "40.0"),))
def test_spectrum_csv_is_the_text_of_the_rat_points(capsys, tmp_path, name, radius):
    out_file = tmp_path / "patch.csv"
    code, _, _ = run_cli(capsys, "spectrum", f"catalog:{name}", "--radius", radius, "--output", str(out_file))
    assert code == 0
    lattice = decide_spectral(make(name)).spectrum
    r = Rat(float(radius))
    points = lattice.points_in_ball(r * r)
    assert out_file.read_bytes() == _reference_patch_csv(points)
    assert patch(lattice, float(radius)).points == points


def test_spectrum_csv_blocks_write_the_same_text(capsys, tmp_path, monkeypatch):
    # blocks of 7 rows, to a file and to stdout after the JSON head
    monkeypatch.setattr(spectile.cli, "_CSV_BLOCK", 7)
    out_file = tmp_path / "patch.csv"
    code, head, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "8", "--output", str(out_file))
    assert code == 0
    lattice = decide_spectral(make("hexagon")).spectrum
    expected = _reference_patch_csv(lattice.points_in_ball(Rat(64)))
    assert expected.count(b"\n") > 100 and out_file.read_bytes() == expected
    code, out, _ = run_cli(capsys, "spectrum", "catalog:hexagon", "--radius", "8")
    assert code == 0 and out.encode() == head.encode() + expected


def test_analyze_of_a_tiler_builds_no_patch_points(capsys, monkeypatch):
    def refuse(den, a):
        raise AssertionError("the points of a lattice patch were built")

    monkeypatch.setattr(spectrum, "rat_rows", refuse)
    for name in ("hexagon", "truncated-octahedron", "hexagonal-prism"):
        code, out, err = run_cli(capsys, "analyze", f"catalog:{name}", "--radius", "1.5")
        assert code == 0, err
        assert json.loads(out)["verification"]["patch"]["count"] > 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned_outputs(capsys, tmp_path) -> dict:
    """sha256 of the spectrum CSV and stdout at the lattice-patches radii,
    of the analyze report without timings at the analyze-catalog radii
    (dumped as the CLI dumps it), and of the fourier CSVs of
    _fourier_cases."""
    out = {}
    for name, radius in PATCH_RADII:
        out_file = tmp_path / f"{name}.csv"
        code, stdout, _ = run_cli(capsys, "spectrum", f"catalog:{name}", "--radius", radius, "--output", str(out_file))
        assert code == 0
        out[f"spectrum {name} {radius}"] = (_sha256(out_file.read_bytes()), _sha256(stdout.encode()))
    for name, radius in ANALYZE_RADII:
        code, stdout, _ = run_cli(capsys, "analyze", f"catalog:{name}", "--radius", radius)
        assert code == 0
        report = json.dumps(strip_timings(json.loads(stdout)), indent=2, sort_keys=True, allow_nan=False)
        out[f"analyze {name} {radius}"] = _sha256(report.encode())
    for key, source, xis in _fourier_cases(tmp_path):
        freq_file, out_file = tmp_path / f"{key}-xi.csv", tmp_path / f"{key}.csv"
        freq_file.write_text("".join(",".join(str(c) for c in xi) + "\n" for xi in xis))
        code, _, _ = run_cli(capsys, "fourier", source, "--frequencies", str(freq_file), "--output", str(out_file))
        assert code == 0
        out[f"fourier {key}"] = _sha256(out_file.read_bytes())
    return out


def _fourier_cases(tmp_path):
    """Seeded 2D and 3D zonotopes (as JSON inputs) and one catalog shape,
    each with random frequencies, 0, a large denominator, and frequencies
    on the flat branch: along an axis, along a facet normal and orthogonal
    to a generator."""
    rng = random.Random(22)
    for key, count, dim in (("zonotope-2d", 5, 2), ("zonotope-3d", 7, 3), ("truncated-octahedron", None, 3)):
        if count is None:
            source, poly = f"catalog:{key}", make(key)
            gens = [(1, 1, 0)]
        else:
            gens = random_generators(rng, count, dim)
            source = str(tmp_path / f"{key}.json")
            Path(source).write_text(json.dumps({"zonotope": {"generators": [[str(c) for c in g] for g in gens]}}))
            poly = spectile.zonotope(gens)
        xis = [random_frequency(rng, dim) for _ in range(4)] + [(0,) * dim]
        xis.append(tuple(Rat(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(dim)))
        xis.append((Rat(rng.randint(1, 9), rng.randint(1, 9)),) + (0,) * (dim - 1))
        xis += [tuple(Rat(c, 3) for c in poly.facets[f].normal) for f in (0, len(poly.facets) // 2)]
        g = gens[0]
        xis.append((-g[1], g[0]) if dim == 2 else (g[1] - g[2], g[2] - g[0], g[0] - g[1]))
        yield key, source, xis


# recorded at f827408 (spectrum, analyze) and cba86e2 (fourier); a change
# here is a change of the output contract.  The analyze entries of the
# hexagon, hexagonal prism, rhombic dodecahedron and elongated dodecahedron
# were re-recorded when orthogonality moved to symmetry-orbit
# representatives: their max_residual or max_err_bound is now taken over
# the representatives, and moved in the last bits
_PINNED_SHA256 = {'analyze cube 5.0': '4b37eaa92a1dad999a0975947370c2ec6171c41d47b7a9e37b61663846f23d96',
 'analyze elongated-dodecahedron 1.125': 'c4aff98a256cca4af3e72b816f6078d19959361bb94b7ad24048a84a6d920e7e',
 'analyze hexagon 5.0': '9c8462c55e25dce0d89a710bad34281c351ab926b3fccb91127fb5746fc4dece',
 'analyze hexagonal-prism 2.0': 'b1e6f1c7dcbc868ee0ad832741d80a37bf7b14323745c54ab7f914a9dd56d9a3',
 'analyze rhombic-dodecahedron 1.25': 'c9c5f205e81e3d13eacfb2634c6ebc6e3f30b260c790c35fa18a5f145d493ea8',
 'analyze rhombic-icosahedron 5.0': '51a8be2e877b51a293ebfb637f2e0236a83ed934251fe7fdba02fdf665fc88b8',
 'analyze square 5.0': 'f38620285fd18a91919355372977e457e356da5e923d260fc1190c46418f4a45',
 'analyze triangle 5.0': '10c71ea81a29decbd9cd87ec85b5f767b9e662935686d4a2ddf02e75199edb5f',
 'analyze truncated-octahedron 1.25': '83d63d471376f66f4630f007f4ab59672149012c441e5bf4ac3014f769f14f38',
 'spectrum cube 5.0': ('9f69637e7f0a333aff13990266b31ddae55370d682e15779f90d6b817210a9f0',
                       '4dd2c87f5714e866ae18bf8ea5be044129c2ae0563bc4439d88ef1e663a22548'),
 'spectrum elongated-dodecahedron 1.625': ('1bc2428cf0cba880c61269059723b5edce358445973a9409a3d767efe70e0453',
                                           'd4756aefadbfb6bb1ee87c624b6e93d45a81a37f02b3d744231b5c93161268d3'),
 'spectrum hexagon 8.0': ('e0734ce96ea3fb084d0ab13ec988864d436a147e17bcc69ed4cfbbcdd87cab49',
                          'dfb979b1a1615b070dc4b1f30fc3183db26e49206a883c900562ac1f9053bb08'),
 'spectrum hexagonal-prism 3.5': ('db17b0dde055e8d9c2d5e8a8c32c7b230844d016cf1ce8d861612769fa393e81',
                                  '6ded6f9e6d3a56ea9aa5e5cd4cfcf87b91dcfe6c44847ecb6f152c745054ab0d'),
 'spectrum rhombic-dodecahedron 2.0': ('c180690797150fa08d9b6ccff7c00d5336dfcc6240977b48ab24f7a9031423d6',
                                       '0681935c6708b79f25d3e345b6b3cd433a1580663e6bed088efef75f071714fa'),
 'spectrum square 14.0': ('49e3899f986556d77e2dad81cd337b1656bae44310db4ed6b09b9406bacad7f1',
                          '187b92e82cec9bcaea2bfff51f33d03ac356c1b233d9bae1ef75620dc197d74f'),
 'spectrum truncated-octahedron 1.625': ('8f543fcecebc5bab70af64ce4ec8d8662f96cf08a15e8ffbb0a07e86a605171d',
                                         '51aae447c83423e50bd51d5edf668db77a82859c19d8443d2b8467a4e99f2239'),
 'fourier zonotope-2d': 'e831b5277099702d749ddc117b722046f18156d9bd022ab3f9fa7cdbf3df19c0',
 'fourier zonotope-3d': 'f04330f6f224ca153a101a38a0dcef4b7cb248ba0bd60fe15d0d3621fe45002d',
 'fourier truncated-octahedron': '7d77ddba9a750edb1deb7d5f8add2e2e8ecc4712832cb3fdfbb2a828deffa058'}


def test_spectrum_and_analyze_outputs_are_byte_identical(capsys, tmp_path):
    assert _pinned_outputs(capsys, tmp_path) == _PINNED_SHA256
