"""Torsion class lattices of monomial quiver algebras over small prime fields.

Enumerate every indecomposable module, build the lattice of torsion classes
with its brick labeling, detect and reduce wide intervals, and verify the
structural identities relating labels, one-sided wide subcategories, Serre
pieces, and widely generated classes.
"""

from .config import Config, DEFAULT_CONFIG
from .quivalg import (
    Arrow,
    Quiver,
    build_algebra,
    parse_algebra_file,
    parse_algebra_text,
    projective_module,
    simple_module,
)
from .modrep import (
    Module,
    Morphism,
    all_extensions,
    decompose,
    direct_sum,
    hom_basis,
    hom_rays,
    is_brick,
    submodules,
    zero_module,
)
from .catalog import Catalog, build_catalog, from_json, to_json
from .lattice import (
    HasseArrow,
    Interval,
    TorsLattice,
    build_lattice,
    dual_correspondence,
)
from .widelab import (
    ReductionIso,
    WideIntervalReport,
    WidelyGeneratedReport,
    enumerate_semibricks,
    enumerate_wide_subcats,
    is_wide_interval,
    is_widely_generated,
    left_wide,
    reduce_interval,
    right_wide,
    serre_mutation,
    tors_of_wide,
    wide_intervals_with_top,
)
from .verify import CORPUS, load_corpus_algebra, run_verify, verify_algebra
from . import errors, subcat

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "CORPUS",
    "Catalog",
    "Config",
    "DEFAULT_CONFIG",
    "HasseArrow",
    "Interval",
    "Module",
    "Morphism",
    "Quiver",
    "ReductionIso",
    "TorsLattice",
    "WideIntervalReport",
    "WidelyGeneratedReport",
    "all_extensions",
    "build_algebra",
    "build_catalog",
    "build_lattice",
    "decompose",
    "direct_sum",
    "dual_correspondence",
    "enumerate_semibricks",
    "enumerate_wide_subcats",
    "errors",
    "from_json",
    "hom_basis",
    "hom_rays",
    "is_brick",
    "is_wide_interval",
    "is_widely_generated",
    "left_wide",
    "load_corpus_algebra",
    "parse_algebra_file",
    "parse_algebra_text",
    "projective_module",
    "reduce_interval",
    "right_wide",
    "run_verify",
    "serre_mutation",
    "simple_module",
    "subcat",
    "submodules",
    "tors_of_wide",
    "verify_algebra",
    "wide_intervals_with_top",
    "zero_module",
]
