"""Command-line interface.

Subcommands: analyze, fourier, spectrum, verify, classify, export, oracle,
catalog.  Exit codes: 0 the run completed (verdicts live in the JSON
output, not in exit codes), 2 input error, 3 internal invariant violation.
Transform values are computed at 128 bits (fourier.precision_bits()); the
orthogonality checks of analyze and verify raise the precision of a
difference while its error bound is too coarse to decide.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys

from . import __version__
from .catalog import CATALOG_NAMES, make, resolve_input
from .errors import NotATiler, ParseError, PreconditionFailed, SpectileError
from .fourier import TOL_ZERO, ft_indicator
from .linalg import Rat
from .oracle import SampleConfig, mc_volume, multiplicity_sample, simplex_ft
from .report import DEFAULT_RADIUS, DEFAULT_SAMPLES, DEFAULT_SEED, analyze, finite_json, patch_checks_json
from .spectrum import decide_spectral, make_patch, patch_rows, require_finite
from .symmetry import symmetry_report
from .tiling import fedorov_classify, lattice_T, per_entry, venkov_mcmullen
from .export import export_obj, export_svg


def _write_output(text: str, output: str | None):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, output: str | None):
    _write_output(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n", output)


def _parse_cell(cell: str, where: str):
    cell = cell.strip()
    try:
        return Rat(cell)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: cannot parse {cell!r} as a rational or decimal")


def _read_rows(path: str, dim: int, what: str, json_ok: bool = False) -> list:
    """The rational rows of a CSV file, or of a JSON list of lists when
    json_ok and the path ends in .json, each checked to have dimension dim.
    CSV rows that are blank, and a header (an alphabetic cell on the first
    row), are skipped."""
    try:
        text = open(path).read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    rows = []
    if json_ok and path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg} at line {exc.lineno}")
        if not isinstance(data, list):
            raise ParseError(f"{path}: expected a JSON list of rows, got {type(data).__name__}")
        for i, row in enumerate(data):
            if not isinstance(row, list):
                raise ParseError(f"{path}[{i}]: expected a list of coordinates, got {type(row).__name__}")
            rows.append(tuple(_parse_cell(str(c), f"{path}[{i}]") for c in row))
    else:
        for i, row in enumerate(csv.reader(io.StringIO(text))):
            if not row or all(not c.strip() for c in row):
                continue
            if i == 0 and any(c.strip().isalpha() for c in row):
                continue  # header
            rows.append(tuple(_parse_cell(c, f"{path}:{i + 1}") for c in row))
    for q in rows:
        if len(q) != dim:
            raise ParseError(f"{what} {q} has dimension {len(q)}, polytope is {dim}-dimensional")
    return rows


def _read_frequencies(path: str, dim: int):
    return _read_rows(path, dim, "frequency", json_ok=True)


def _read_patch(path: str, dim: int):
    pts = _read_rows(path, dim, "patch point")
    if not pts:
        raise ParseError(f"{path}: no patch points")
    return pts


# rows of the patch CSV rendered at a time
_CSV_BLOCK = 2**14


def _write_patch_csv(den: int, a, output: str | None):
    """One CSV row per row of the integer array a over den, each entry
    written as str(Rat(v, den)), formed once per distinct v of a block.
    Blocks of _CSV_BLOCK rows go straight to the output, so the text of
    the whole patch is never held at once."""
    with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        for lo in range(0, len(a), _CSV_BLOCK):
            writer.writerows(per_entry(a[lo : lo + _CSV_BLOCK], lambda v: str(Rat(v, den))))


# --- subcommands --------------------------------------------------------------


def _cmd_analyze(args) -> int:
    poly, echo = resolve_input(args.input)
    rep = analyze(
        poly,
        input_echo=echo,
        radius=args.radius,
        tolerance=args.tolerance,
        seed=args.seed,
        samples=args.samples,
    )
    _emit_json(rep, args.output)
    return 0


def _cmd_fourier(args) -> int:
    require_finite(args.tolerance, "tolerance", non_negative=True)
    poly, _ = resolve_input(args.input)
    freqs = _read_frequencies(args.frequencies, poly.dim)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["xi", "re", "im", "abs", "is_zero"])
    for xi in freqs:
        val = ft_indicator(poly, xi)
        zero = (
            bool(val.magnitude <= args.tolerance * float(poly.volume))
            if any(c != 0 for c in xi)
            else False
        )
        writer.writerow(
            [
                " ".join(str(c) for c in xi),
                repr(val.re),
                repr(val.im),
                repr(val.magnitude),
                int(zero),
            ]
        )
    _write_output(buf.getvalue(), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    poly, _ = resolve_input(args.input)
    verdict = decide_spectral(poly)
    head = {
        "is_spectral": verdict.is_spectral,
        "reason": verdict.reason,
        "basis": [[str(c) for c in row] for row in verdict.spectrum.basis]
        if verdict.spectrum
        else None,
    }
    rows = patch_rows(verdict.spectrum, args.radius) if verdict.spectrum is not None else None
    sys.stdout.write(json.dumps(head, indent=2, sort_keys=True) + "\n")
    if rows is not None:
        _write_patch_csv(*rows, args.output)
    return 0


def _cmd_verify(args) -> int:
    poly, _ = resolve_input(args.input)
    pts = _read_patch(args.patch, poly.dim)
    sp = make_patch(pts, args.radius)
    out = {
        "patch": {"count": len(sp), "window_radius": sp.window_radius, "separation": finite_json(sp.separation)},
        **patch_checks_json(poly, sp, symmetry_report(poly), args.tolerance),
    }
    _emit_json(out, args.output)
    return 0


def _cmd_classify(args) -> int:
    poly, _ = resolve_input(args.input)
    try:
        cls = fedorov_classify(poly)
        _emit_json({"fedorov": cls.value}, args.output)
    except NotATiler:
        rep = venkov_mcmullen(poly)
        _emit_json({"fedorov": None, "reason": "not-a-tiler", "belt_lengths": rep.belt_lengths}, args.output)
    return 0


def _cmd_export(args) -> int:
    if args.copies < 1:
        raise PreconditionFailed(f"--copies must be at least 1, got {args.copies}")
    poly, _ = resolve_input(args.input)
    lattice = None
    if args.copies > 1:
        lattice = lattice_T(poly)
    if args.format == "svg":
        text = export_svg(poly, lattice, args.copies)
    else:
        text = export_obj(poly, lattice, args.copies)
    _write_output(text, args.output)
    return 0


def _cmd_oracle(args) -> int:
    poly, _ = resolve_input(args.input)
    cfg = SampleConfig(count=args.samples, seed=args.seed)
    if args.op == "volume":
        mv = mc_volume(poly, cfg)
        _emit_json(
            {
                "method": "bruteforce",
                "estimate": mv.estimate,
                "stderr": mv.stderr,
                "exact": str(poly.volume),
                "samples": mv.count,
                "seed": mv.seed,
            },
            args.output,
        )
    elif args.op == "multiplicity":
        sym = symmetry_report(poly)
        if not sym.facet_pairs:
            raise PreconditionFailed("multiplicity oracle needs facet translation vectors")
        hist = multiplicity_sample(poly, [t.tau for t in sym.facet_pairs], cfg)
        _emit_json(
            {
                "method": "bruteforce",
                "histogram": {str(k): v for k, v in sorted(hist.counts.items())},
                "min": hist.min,
                "max": hist.max,
                "samples": hist.count,
                "seed": hist.seed,
            },
            args.output,
        )
    else:  # transform
        if not args.frequencies:
            raise ParseError("oracle transform needs --frequencies")
        freqs = _read_frequencies(args.frequencies, poly.dim)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["xi", "re", "im", "abs"])
        for xi in freqs:
            val = simplex_ft(poly, xi)
            writer.writerow(
                [" ".join(str(c) for c in xi), repr(val.re), repr(val.im), repr(val.magnitude)]
            )
        _write_output(buf.getvalue(), args.output)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        _emit_json(list(CATALOG_NAMES), args.output)
        return 0
    poly = make(args.name)
    _emit_json(poly.as_json_dict(), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves
    it unchanged, so every main() call shares it."""
    parser = argparse.ArgumentParser(
        prog="spectile",
        description="Tiling and spectrum analysis for convex polytopes with rational data.",
    )
    parser.add_argument("--version", action="version", version=f"spectile {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, output=True):
        sp.add_argument("input", help="'catalog:NAME' or a polytope JSON file")
        if output:
            sp.add_argument("--output", help="write to this file instead of stdout")

    a = sub.add_parser("analyze", help="full pipeline: symmetry, tiling, spectrum, verification")
    common(a)
    a.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    a.add_argument("--tolerance", type=float, default=TOL_ZERO)
    a.add_argument("--seed", type=int, default=DEFAULT_SEED)
    a.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    a.set_defaults(fn=_cmd_analyze)

    f = sub.add_parser("fourier", help="evaluate the indicator transform at given frequencies")
    common(f)
    f.add_argument("--frequencies", required=True, help="CSV or JSON file of rational vectors")
    f.add_argument("--tolerance", type=float, default=TOL_ZERO)
    f.set_defaults(fn=_cmd_fourier)

    s = sub.add_parser("spectrum", help="spectrum lattice basis and a patch CSV")
    common(s)
    s.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    s.set_defaults(fn=_cmd_spectrum)

    v = sub.add_parser("verify", help="verify a user-supplied patch CSV against a polytope")
    common(v)
    v.add_argument("--patch", required=True, help="CSV of patch points (decimals or p/q)")
    v.add_argument("--radius", type=float, default=None, help="window radius (default: the largest |q - c|, c the patch centroid)")
    v.add_argument("--tolerance", type=float, default=TOL_ZERO)
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("classify", help="Fedorov class of a 3D tiler")
    common(c)
    c.set_defaults(fn=_cmd_classify)

    e = sub.add_parser("export", help="SVG (2D) or OBJ (3D) geometry, optionally tiled")
    common(e)
    e.add_argument("--format", choices=("svg", "obj"), required=True)
    e.add_argument("--copies", type=int, default=1)
    e.set_defaults(fn=_cmd_export)

    o = sub.add_parser("oracle", help="brute-force checks (--method=bruteforce mirror)")
    common(o)
    o.add_argument("--op", choices=("volume", "multiplicity", "transform"), required=True)
    o.add_argument("--method", choices=("bruteforce",), default="bruteforce")
    o.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    o.add_argument("--seed", type=int, default=DEFAULT_SEED)
    o.add_argument("--frequencies", help="for --op transform")
    o.set_defaults(fn=_cmd_oracle)

    g = sub.add_parser("catalog", help="list catalog shapes or emit one as JSON")
    gsub = g.add_subparsers(dest="action", required=True)
    gl = gsub.add_parser("list")
    gl.add_argument("--output")
    gl.set_defaults(fn=_cmd_catalog, action="list")
    ge = gsub.add_parser("emit")
    ge.add_argument("name")
    ge.add_argument("--output")
    ge.set_defaults(fn=_cmd_catalog, action="emit")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpectileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
