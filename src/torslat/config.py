"""Budgets and bounds.

Every enumeration in the package is capped by one of these values.  Exceeding a
budget raises the matching ResourceError; results are never silently truncated.
"""

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Config:
    # largest total dimension admitted into the indecomposable catalog
    dim_bound: int = 8
    # cap on the number of basis paths of the algebra
    path_budget: int = 1024
    # cap on the End elements that decompose's idempotent search enumerates;
    # isomorphism tests, the catalog's Hom table and its brick flags
    # enumerate nothing
    iso_budget: int = 65536
    # cap on the product of per-vertex subspace counts in submodule enumeration
    subspace_budget: int = 1_000_000
    # cap on the elements of Ext^1 (p^e for an e-dimensional Ext^1) whose
    # classes ext_scan scans, one middle term per ray; a pair with no
    # cochains (C^1 = 0) returns before the cap is read, and the catalog's
    # closure runs no scan on a pair with a projective source or an
    # injective target, whose Ext^1 vanishes, p^0 = 1 passing any cap
    ext_budget: int = 65536
    # cap on lattice nodes
    node_budget: int = 20000

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")

    def with_overrides(self, **kw):
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_CONFIG = Config()
