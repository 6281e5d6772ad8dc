"""Budgets and bounds.

Every enumeration in the package is capped by one of these values.  Exceeding a
budget raises the matching ResourceError; results are never silently truncated.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Config:
    # largest total dimension admitted into the indecomposable catalog
    dim_bound: int = 8
    # cap on the number of basis paths of the algebra
    path_budget: int = 1024
    # cap on enumerated elements of a Hom or End space: the rays of
    # modrep.hom_rays (brick tests, morphism audits) and the idempotent search
    # of decompose; isomorphism tests enumerate nothing
    iso_budget: int = 65536
    # cap on the product of per-vertex subspace counts in submodule enumeration
    subspace_budget: int = 1_000_000
    # cap on the elements of Ext^1 (p^e for an e-dimensional Ext^1) whose
    # classes all_extensions scans, one middle term per ray
    ext_budget: int = 65536
    # cap on lattice nodes
    node_budget: int = 20000

    def __post_init__(self):
        for name in ("dim_bound", "path_budget", "iso_budget", "subspace_budget",
                     "ext_budget", "node_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def with_overrides(self, **kw):
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_CONFIG = Config()
