"""spectile: exact tiling and spectrum analysis for convex polytopes.

Decides, for convex polytopes in dimensions 2 and 3 with rational data,
whether they tile space by translations (equivalently, whether they are
spectral), constructs the tiling lattice and its dual spectrum, evaluates
the indicator's Fourier transform exactly, and verifies orthogonality,
density, integrality and uniqueness on finite patches.
"""

__version__ = "0.1.0"
# the arithmetic named in every report's tool block: stdlib Fraction
BACKEND = "stdlib"

from .errors import SpectileError
from .linalg import Rat, rational
from .geometry import AffineMap, Polytope, from_halfspaces, from_vertices, zonotope
from .symmetry import (
    center_of_symmetry,
    facet_symmetry_check,
    minkowski_check,
    symmetry_report,
    tau_vectors,
)
from .tiling import (
    Belt,
    FedorovClass,
    Lattice,
    belts,
    covering_verify,
    fedorov_classify,
    is_prism,
    lattice_T,
    packing_verify,
    venkov_mcmullen,
)
from .fourier import (
    ComplexValue,
    asymptotic_cone_check,
    decay_bound_check,
    ft_indicator,
    ft_surface,
    ft_with_boundary,
    ft_zero,
    precision_bits,
)
from .spectrum import (
    PrismSpectrumSpec,
    SpectrumPatch,
    chi_estimate,
    condition_C2_check,
    decide_spectral,
    dual_lattice,
    make_patch,
    patch,
    prism_spectrum,
    uniqueness_check,
    verify_density,
    verify_orthogonality,
)
from .oracle import SampleConfig, mc_volume, multiplicity_sample, simplex_ft
from .catalog import CATALOG_NAMES, make, parallelepiped, polytope_from_json, prism
from .report import analyze

__all__ = [
    "__version__",
    "BACKEND",
    "Rat",
    "rational",
    "precision_bits",
    "SpectileError",
    "Polytope",
    "AffineMap",
    "from_vertices",
    "from_halfspaces",
    "zonotope",
    "center_of_symmetry",
    "minkowski_check",
    "facet_symmetry_check",
    "tau_vectors",
    "symmetry_report",
    "Belt",
    "Lattice",
    "FedorovClass",
    "belts",
    "venkov_mcmullen",
    "lattice_T",
    "packing_verify",
    "covering_verify",
    "fedorov_classify",
    "is_prism",
    "ComplexValue",
    "ft_indicator",
    "ft_surface",
    "ft_with_boundary",
    "ft_zero",
    "decay_bound_check",
    "asymptotic_cone_check",
    "SpectrumPatch",
    "PrismSpectrumSpec",
    "dual_lattice",
    "decide_spectral",
    "patch",
    "make_patch",
    "verify_orthogonality",
    "verify_density",
    "condition_C2_check",
    "uniqueness_check",
    "prism_spectrum",
    "chi_estimate",
    "SampleConfig",
    "mc_volume",
    "multiplicity_sample",
    "simplex_ft",
    "CATALOG_NAMES",
    "make",
    "prism",
    "parallelepiped",
    "polytope_from_json",
    "analyze",
]
