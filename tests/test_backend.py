import math
import subprocess
import sys
from pathlib import Path

import pytest

import spectile
from spectile import Rat
from spectile._backend import (
    cis_neg,
    frac_part,
    phase_context,
    precision_bits,
    rational,
    rational_from_float,
    sin_pi,
    sqrt_lower,
    sqrt_upper,
)


def test_rational_parsing():
    assert rational("3/4") == Rat(3, 4)
    assert rational("0.25") == Rat(1, 4)
    assert rational(7) == Rat(7)
    assert rational("-2/6") == Rat(-1, 3)
    with pytest.raises(TypeError):
        rational(0.5)


def test_rational_from_float_snaps():
    assert rational_from_float(0.5) == Rat(1, 2)
    assert abs(float(rational_from_float(math.pi)) - math.pi) < 1e-11


def test_rat_str_roundtrip():
    for q in (Rat(3, 4), Rat(-7, 2), Rat(5), Rat(0)):
        assert rational(str(q)) == q


def test_frac_part():
    assert frac_part(Rat(7, 3)) == Rat(1, 3)
    assert frac_part(Rat(-7, 3)) == Rat(2, 3)
    assert frac_part(Rat(4)) == 0


@pytest.mark.parametrize("q", [Rat(2), Rat(9, 4), Rat(1, 3), Rat(10**12, 7)])
def test_sqrt_bounds(q):
    lo, hi = sqrt_lower(q), sqrt_upper(q)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Rat(1, q.denominator * 2**60)


def test_sqrt_exact_square():
    assert sqrt_lower(Rat(9, 4)) == sqrt_upper(Rat(9, 4)) == Rat(3, 2)


def test_cis_reduces_large_arguments():
    # 10^40 + 1/8 reduced exactly: the naive float path would lose the 1/8
    q = Rat(10) ** 40 + Rat(1, 8)
    with phase_context():
        z = complex(cis_neg(q))
    expect = complex(math.cos(-2 * math.pi / 8), math.sin(-2 * math.pi / 8))
    assert abs(z - expect) < 1e-15


def test_sin_pi_exact_reduction():
    with phase_context():
        assert abs(float(sin_pi(Rat(10) ** 30))) < 1e-30
        assert abs(float(sin_pi(Rat(10) ** 30 + Rat(1, 2))) - 1.0) < 1e-30


def test_precision_env(monkeypatch):
    monkeypatch.setenv("SPECTILE_PRECISION_BITS", "96")
    assert precision_bits() == 96
    monkeypatch.setenv("SPECTILE_PRECISION_BITS", "nope")
    with pytest.raises(RuntimeError):
        precision_bits()


def test_stdlib_backend_importable():
    # a clean interpreter imports the one backend and computes with it
    code = (
        "from spectile._backend import BACKEND, Rat, cis_neg, phase_context\n"
        "assert BACKEND == 'stdlib', BACKEND\n"
        "assert Rat(1, 3) + Rat(1, 6) == Rat(1, 2)\n"
        "with phase_context():\n"
        "    z = complex(cis_neg(Rat(1, 4)))\n"
        "assert abs(z - (-1j)) < 1e-15, z\n"
        "print('ok')\n"
    )
    # the child sees only what it needs: the directory holding the spectile
    # package this process imported, so an uninstalled source checkout
    # works and no other settings leak in
    src_root = Path(spectile.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_root)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"

