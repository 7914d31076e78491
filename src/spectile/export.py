"""Deterministic figure exports: SVG tilings in the plane, OBJ meshes in
space.  With a lattice given, translates are colored by coset parity (the
parity of the sum of lattice coordinates)."""

from __future__ import annotations

from .errors import FormatDimensionMismatch
from .geometry import Polytope
from .linalg import rational_from_float, vadd
from .tiling import Lattice

__all__ = ["export_svg", "export_obj", "nearest_lattice_translates"]

_EVEN = "#4878a8"
_ODD = "#d8a848"


def nearest_lattice_translates(lattice: Lattice, copies: int) -> list:
    """The `copies` lattice vectors closest to the origin (deterministic
    tie-break by coordinates), with their integer coordinate parity."""
    radius = 1.0
    pts: list = []
    # grow the ball until enough points, then take the closest
    for _ in range(32):
        r2 = rational_from_float(radius * radius)
        pts = list(lattice.points_in_ball(r2))
        if len(pts) >= copies:
            break
        radius *= 1.6
    pts.sort(key=lambda v: (sum(float(c) ** 2 for c in v), tuple(float(c) for c in v)))
    out = []
    for v in pts[:copies]:
        coords = lattice.coords(v)
        parity = sum(int(c) for c in coords) % 2
        out.append((v, parity))
    return out


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def export_svg(p: Polytope, lattice: Lattice | None = None, copies: int = 1, scale: float = 60.0) -> str:
    """SVG drawing of the polygon, or of `copies` lattice translates."""
    if p.dim != 2:
        raise FormatDimensionMismatch("svg export needs a 2-dimensional polytope")
    shifts = [((0,) * 2, 0)]
    if lattice is not None and copies > 1:
        shifts = nearest_lattice_translates(lattice, copies)
    cyc = [p.vertices[i] for i in p._cycle2d]
    polys = []
    xs, ys = [], []
    for shift, parity in shifts:
        ring = [vadd(v, shift) for v in cyc]
        pts = [(float(a), float(b)) for a, b in ring]
        xs += [q[0] for q in pts]
        ys += [q[1] for q in pts]
        polys.append((pts, parity))
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0, y0 = min(xs) - margin, min(ys) - margin
    w, h = (max(xs) - min(xs)) + 2 * margin, (max(ys) - min(ys)) + 2 * margin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w * scale)}" '
        f'height="{_fmt(h * scale)}" viewBox="{_fmt(x0)} {_fmt(-y0 - h)} {_fmt(w)} {_fmt(h)}">'
    ]
    for pts, parity in polys:
        path = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
        fill = _EVEN if parity == 0 else _ODD
        lines.append(
            f'<polygon points="{path}" fill="{fill}" stroke="#202020" stroke-width="{_fmt(0.01)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_obj(p: Polytope, lattice: Lattice | None = None, copies: int = 1) -> str:
    """Wavefront OBJ with one object per translate, polygon faces kept."""
    if p.dim != 3:
        raise FormatDimensionMismatch("obj export needs a 3-dimensional polytope")
    shifts = [((0,) * 3, 0)]
    if lattice is not None and copies > 1:
        shifts = nearest_lattice_translates(lattice, copies)
    lines = ["# spectile export"]
    base = 0
    for k, (shift, parity) in enumerate(shifts):
        lines.append(f"o tile_{k}")
        lines.append(f"usemtl parity_{parity}")
        for v in p.vertices:
            w = vadd(v, shift)
            lines.append("v " + " ".join(_fmt(float(c)) for c in w))
        for f in p.facets:
            lines.append("f " + " ".join(str(base + i + 1) for i in f.indices))
        base += len(p.vertices)
    return "\n".join(lines) + "\n"
