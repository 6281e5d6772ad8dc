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
    injective_module,
    parse_algebra_file,
    parse_algebra_text,
    projective_module,
    simple_module,
)
from .modrep import (
    ExtScan,
    Module,
    Morphism,
    decompose,
    direct_sum,
    ext_scan,
    hom_basis,
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
from .verify import (
    CORPUS,
    format_report,
    iter_checks,
    load_corpus_algebra,
    run_verify,
)
from . import errors, subcat

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "CORPUS",
    "Catalog",
    "Config",
    "DEFAULT_CONFIG",
    "ExtScan",
    "HasseArrow",
    "Interval",
    "Module",
    "Morphism",
    "Quiver",
    "ReductionIso",
    "TorsLattice",
    "build_algebra",
    "build_catalog",
    "build_lattice",
    "decompose",
    "direct_sum",
    "dual_correspondence",
    "enumerate_semibricks",
    "enumerate_wide_subcats",
    "errors",
    "ext_scan",
    "format_report",
    "from_json",
    "hom_basis",
    "injective_module",
    "is_wide_interval",
    "is_widely_generated",
    "iter_checks",
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
    "wide_intervals_with_top",
    "zero_module",
]
