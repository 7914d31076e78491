"""The analysis pipeline and its JSON report.

One call runs: symmetry -> tiling criterion -> lattice -> spectral verdict
-> spectrum -> finite-patch verifications, and serializes everything into
a schema-versioned report.  Identical inputs produce byte-identical JSON
apart from the timings block; all tolerances and seeds appear in the
report.
"""

from __future__ import annotations

import math
import time

from . import BACKEND, __version__
from .errors import PrismExcluded, SpectileError, UnsupportedDimension
from .fourier import TOL_ZERO, precision_bits
from .geometry import Polytope
from .oracle import SampleConfig, multiplicity_sample
from .spectrum import (
    condition_C2_check,
    decide_spectral,
    patch,
    require_finite,
    uniqueness_check,
    verify_density,
    verify_orthogonality,
)
from .symmetry import SymmetryReport, symmetry_report
from .tiling import fedorov_classify, is_prism, lattice_T, packing_verify, covering_verify, venkov_mcmullen

SCHEMA_VERSION = 1

DEFAULT_RADIUS = 5.0
DEFAULT_SEED = 20170529
DEFAULT_SAMPLES = 10**4


def _vec_json(v):
    return [str(c) for c in v]


def _basis_json(lattice):
    return [_vec_json(row) for row in lattice.basis]


def finite_json(x: float) -> float | None:
    """x, or None (JSON null) for an infinite or NaN x, which JSON lacks."""
    return x if math.isfinite(x) else None


def patch_checks_json(
    p: Polytope, sp, sym: SymmetryReport, tolerance: float, clock=lambda label, fn: fn()
) -> dict:
    """The orthogonality, density, C2 and uniqueness blocks of `analyze` and
    `verify` output for the patch sp of p; clock(label, fn) runs each check
    (analyze times them)."""
    orth = clock("orthogonality", lambda: verify_orthogonality(p, sp, tol=tolerance))
    out = {
        "orthogonality": {
            "passed": orth.passed,
            "max_residual": finite_json(orth.max_residual),
            "pairs_checked": orth.num_differences,
            "tolerance": orth.tolerance,
            "max_err_bound": finite_json(orth.max_err_bound),
            "fallbacks": orth.fallbacks,
        }
    }
    try:
        dens = clock("density", lambda: verify_density(p, sp))
        out["density"] = {
            "passed": dens.passed,
            "count": dens.count,
            "density": dens.density,
            "target": dens.target,
            "rel_tolerance": dens.rel_tolerance,
        }
    except SpectileError as exc:
        out["density"] = {"skipped": str(exc)}
    if sym.facet_pairs:
        c2 = clock("c2", lambda: condition_C2_check(sp, [t.tau for t in sym.facet_pairs]))
        out["c2_integrality"] = {
            "passed": c2.passed,
            "max_distance_to_integer": c2.max_distance_to_integer,
            "tolerance": c2.tolerance,
        }
    try:
        uniq = clock("uniqueness", lambda: uniqueness_check(p, sp))
        out["uniqueness"] = {"status": "pass" if uniq else "fail"}
    except PrismExcluded as exc:
        out["uniqueness"] = {"status": "prism-excluded", "detail": str(exc)}
    except SpectileError as exc:
        out["uniqueness"] = {"status": "skipped", "detail": str(exc)}
    return out


def analyze(
    p: Polytope,
    input_echo=None,
    radius: float = DEFAULT_RADIUS,
    tolerance: float = TOL_ZERO,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> dict:
    if p.dim not in (2, 3):
        raise UnsupportedDimension(
            f"analyze covers dimensions 2 and 3, got dimension {p.dim}; "
            "use `spectile fourier` or `spectile oracle` for it"
        )
    # a non-tiler builds no patch and checks no orthogonality to reject these
    require_finite(radius)
    require_finite(tolerance, "tolerance", non_negative=True)
    sample_cfg = SampleConfig(count=samples, seed=seed)  # rejects samples < 1
    timings = {}

    def clock(label, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[label] = round(time.perf_counter() - t0, 6)
        return out

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "spectile", "version": __version__, "backend": BACKEND},
        "input": input_echo if input_echo is not None else p.as_json_dict(),
        "parameters": {
            "radius": radius,
            "tolerance": tolerance,
            "seed": seed,
            "samples": samples,
            "precision_bits": precision_bits(),
        },
        "polytope": {
            "dim": p.dim,
            "f_vector": list(p.f_vector()),
            "volume": str(p.volume),
            "vertices": [_vec_json(v) for v in p.vertices],
        },
    }

    sym = clock("symmetry", lambda: symmetry_report(p))
    report["symmetry"] = {
        "center": _vec_json(sym.center) if sym.center is not None else None,
        "is_centrally_symmetric": sym.is_centrally_symmetric,
        "facets_centrally_symmetric": sym.facets_centrally_symmetric,
        "minkowski_pass": sym.minkowski_pass,
        "minkowski_witness_facet": sym.minkowski_witness,
        "facet_pairs": [
            {"facet": t.facet, "opposite": t.opposite, "tau": _vec_json(t.tau)}
            for t in sym.facet_pairs
        ],
    }

    vm = clock("tiling", lambda: venkov_mcmullen(p))
    tiling_block = {
        "vm": {
            "polytope": vm.vm_polytope,
            "centrally_symmetric": vm.vm_centrally_symmetric,
            "facets_centrally_symmetric": vm.vm_facets_symmetric,
            "belts_4_or_6": vm.vm_belts_ok,
        },
        "tiles": vm.tiles,
        "belt_lengths": list(vm.belt_lengths) if vm.belt_lengths is not None else None,
    }
    lattice = None
    if vm.tiles:
        lattice = clock("lattice", lambda: lattice_T(p))
        tiling_block["lattice"] = _basis_json(lattice)
        tiling_block["covolume"] = str(lattice.covolume)
        tiling_block["packing_verified"] = clock("packing", lambda: packing_verify(p, lattice))
        tiling_block["covering_verified"] = clock(
            "covering", lambda: covering_verify(p, lattice, samples=samples, seed=seed)
        )
        if p.dim == 3:
            tiling_block["fedorov"] = fedorov_classify(p).value
    else:
        tiling_block["lattice"] = None
        tiling_block["covolume"] = None
    if p.dim == 3:
        witness = clock("prism", lambda: is_prism(p))
        tiling_block["is_prism"] = witness is not None
        tiling_block["prism_witness"] = list(witness) if witness else None
    report["tiling"] = tiling_block

    verdict = decide_spectral(p)
    spectral_block = {
        "is_spectral": verdict.is_spectral,
        "reason": verdict.reason,
        "spectrum_basis": _basis_json(verdict.spectrum) if verdict.spectrum else None,
        "note": "completeness is inherited from the tiling equivalence; "
        "finite patches certify orthogonality, density and integrality only",
    }
    report["spectral"] = spectral_block

    verification = {}
    if verdict.is_spectral:
        sp = clock("patch", lambda: patch(verdict.spectrum, radius))
        verification["patch"] = {
            "radius": radius,
            "count": len(sp),
            "separation": finite_json(sp.separation),
        }
        verification.update(patch_checks_json(p, sp, sym, tolerance, clock))
    elif vm.vm_centrally_symmetric and vm.vm_facets_symmetric:
        # belts failed but the covering theorem still applies; sample it
        taus = [t.tau for t in sym.facet_pairs]

        def run_oracle():
            try:
                return multiplicity_sample(p, taus, sample_cfg)
            except SpectileError:
                return None

        hist = clock("covering_oracle", run_oracle)
        if hist is not None:
            verification["covering_oracle"] = {
                "min_multiplicity": hist.min,
                "max_multiplicity": hist.max,
                "samples": hist.count,
                "seed": hist.seed,
                "translates_used": hist.translates_used,
            }
    report["verification"] = verification
    report["timings"] = timings
    return report
