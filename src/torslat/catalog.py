"""Catalog of indecomposable modules with precomputed structure tables.

The catalog lists one representative per isomorphism class, certified closed
under quotients and pair extensions at the configured dimension bound.  The
tables (Hom dimensions, brick flags, subfactor pairs) turn every downstream
subcategory operator into finite index combinatorics on masks, where a mask
is a frozenset of catalog indices denoting the additive hull of its members.
``Catalog.set_tables`` is the one place the tables are set; it derives the
index rows (``maps_out``, ``maps_in``, ``subfactor_sets``, ``full_mask``)
on which those operators are set algebra, and three per-member unions over
the subfactor pairs: ``quotient_rows`` (the quotient parts), ``sub_rows``
(the subobject parts) and ``extension_rows`` (u | q of each nontrivial
pair, as an int bitset with bit i for catalog index i, the form in which
``subcat.filt`` and ``lattice.build_lattice`` test it).  ``op_cache`` holds
every memo of the library under tagged keys: the summand indices of
``decompose_indices`` under ``("decompose", module key)``, seeded with
every module the closure decomposed, the ray profiles of ``hom_profile``
(kernel, image and cokernel summands of each ray) under ``("profile", i,
j)``, and the subcategory operators' results (see ``subcat``).
``_key_index`` is the member index, not a memo.
"""

import json
from collections import deque
from typing import NamedTuple

import numpy as np

from . import linalg, modrep, subcat
from .config import DEFAULT_CONFIG
from .errors import NotClosed
from .quivalg import Arrow, Quiver, build_algebra, simple_module


def _letters(k):
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("a") + r) + out
    return out


class HomProfile(NamedTuple):
    """Shape data of one nonzero morphism ray, scaling-invariant."""

    kernel: tuple
    image: tuple
    cokernel: tuple
    epi: bool
    mono: bool


class Catalog:
    """Immutable once built; all tables are index-based."""

    def __init__(self, algebra, config):
        self.algebra = algebra
        self.config = config
        self.ind = ()
        self.names = ()
        self.hom_dim = ()
        self.bricks = ()
        self.subfactors = ()
        self.maps_out = ()
        self.maps_in = ()
        self.subfactor_sets = ()
        self.quotient_rows = ()
        self.sub_rows = ()
        self.extension_rows = ()
        self.full_mask = frozenset()
        self._key_index = {}
        self.op_cache = {}

    def __len__(self):
        return len(self.ind)

    @property
    def simple_indices(self):
        return tuple(i for i, m in enumerate(self.ind) if m.total_dim == 1)

    def set_tables(self, hom_dim, bricks, subfactors):
        """Set the structure tables of the members and derive their index rows.

        maps_out[i] holds the j with Hom(ind[i], ind[j]) nonzero and maps_in[j]
        the i; subfactor_sets[i] holds the pairs of subfactors[i] as
        (frozenset(u), frozenset(q)); quotient_rows[i] is the union of their q
        parts and sub_rows[i] of their u parts; extension_rows[i] holds u | q
        for each nontrivial pair (u and q nonempty) as an int bitset (bit k
        for index k), once per distinct set; full_mask holds every index.
        """
        n = len(self.ind)
        if not (len(hom_dim) == len(bricks) == len(subfactors) == n) or any(
            len(row) != n for row in hom_dim
        ):
            raise ValueError(f"tables do not match the {n} catalog members")
        self.hom_dim = hom_dim
        self.bricks = bricks
        self.subfactors = subfactors
        self.maps_out = tuple(
            frozenset(j for j, d in enumerate(row) if d) for row in hom_dim
        )
        self.maps_in = tuple(
            frozenset(i for i in range(n) if hom_dim[i][j]) for j in range(n)
        )
        self.subfactor_sets = tuple(
            tuple((frozenset(u), frozenset(q)) for u, q in row) for row in subfactors
        )
        self.quotient_rows = subcat.part_rows(self.subfactor_sets, 1)
        self.sub_rows = subcat.part_rows(self.subfactor_sets, 0)
        self.extension_rows = tuple(
            tuple(dict.fromkeys(subcat.bits(u | q) for u, q in pairs if u and q))
            for pairs in self.subfactor_sets
        )
        self.full_mask = frozenset(range(n))

    def index_of(self, module):
        key = module.key()
        hit = self._key_index.get(key)
        if hit is not None:
            return hit
        for i, rep in enumerate(self.ind):
            if modrep.is_isomorphic_indecomposable(rep, module):
                self._key_index[key] = i
                return i
        raise NotClosed(f"module with dims {module.dims} is not in the catalog")

    def decompose_indices(self, module):
        """Sorted index multiset of the indecomposable summands of a module."""

        def run():
            parts = modrep.decompose(module, self.config)
            return tuple(sorted(self.index_of(s) for s in parts))

        return subcat._cached(self, ("decompose", module.key()), run)

    def hom_profile(self, i, j):
        """HomProfile per nonzero ray of Hom(ind[i], ind[j]).

        Kernel/image/cokernel shapes are scaling-invariant, so one entry per
        ray covers the full punctured Hom space.
        """

        def run():
            entries = []
            for f in modrep.hom_rays(self.ind[i], self.ind[j], self.config):
                ker, _ = modrep.kernel(f)
                im, inclusion = modrep.image(f)
                coker, _ = modrep.quotient_by(inclusion)
                entries.append(
                    HomProfile(
                        kernel=self.decompose_indices(ker),
                        image=self.decompose_indices(im),
                        cokernel=self.decompose_indices(coker),
                        epi=coker.is_zero,
                        mono=ker.is_zero,
                    )
                )
            return tuple(entries)

        return subcat._cached(self, ("profile", i, j), run)

    def mask_name(self, mask):
        return "{" + ",".join(self.names[i] for i in sorted(mask)) + "}"


def enumerate_indecomposables(algebra, config=None):
    """Fixpoint closure from the simples under quotients and pair extensions.

    Raises NotClosed when a new isomorphism class appears above the dimension
    bound; for a representation-finite algebra with an adequate bound the
    closure stabilizes.  Each member's quotients are computed once, when it
    is registered, and each ordered pair's extensions once, when its later
    member is registered; every summand they produce is admitted, so the
    result is closed without a second pass.  all_extensions builds no split
    middle term, whose summands would be the pair itself, and admitting
    decomposes every middle term, so two isomorphic middle terms of one pair
    land on the same members.  Admitting decomposes each distinct module,
    by Module.key(), once per call: quotients repeat across members (every
    scan includes the member itself and the zero module), and a repeat gets
    the indices of its first sighting, which registered its classes in the
    same order a second decomposition would find them.  After ranking, that
    table becomes the catalog's decompose memo, so decompose_indices (and
    build_tables through it) decomposes no module the closure already did.
    The (submodule, quotient parts) pairs of each member's quotient scan are
    kept for build_tables.
    """
    cfg = config or DEFAULT_CONFIG
    reps = []
    buckets = {}
    admitted = {}
    subquotients = []
    pending = deque()

    def index(part):
        """Index of an indecomposable's class, registering a new class."""
        for i in buckets.get(part.dims, ()):
            if modrep.is_isomorphic_indecomposable(reps[i], part):
                return i
        if part.total_dim > cfg.dim_bound:
            raise NotClosed(
                f"indecomposable with dims {part.dims} has total dimension"
                f" {part.total_dim}, dim_bound {cfg.dim_bound} (--dim-bound)"
            )
        k = len(reps)
        reps.append(part)
        subquotients.append(None)
        buckets.setdefault(part.dims, []).append(k)
        pending.append(("quot", k))
        for other in range(k + 1):
            pending.append(("ext", k, other))
            if other != k:
                pending.append(("ext", other, k))
        return k

    def admit(module):
        key = module.key()
        if key not in admitted:
            admitted[key] = [index(part) for part in modrep.decompose(module, cfg)]
        return admitted[key]

    for v in range(algebra.quiver.vertex_count):
        admit(simple_module(algebra, v))

    while pending:
        task = pending.popleft()
        if task[0] == "quot":
            k = task[1]
            subquotients[k] = [
                (sub, admit(modrep.quotient_by(inc)[0]))
                for sub, inc in modrep.submodules(reps[k], cfg)
            ]
        else:
            _, qi, ui = task
            for z in modrep.all_extensions(reps[qi], reps[ui], cfg):
                admit(z)

    order = sorted(
        range(len(reps)),
        key=lambda i: (reps[i].total_dim, reps[i].dims, reps[i].key()[1]),
    )
    rank = {i: r for r, i in enumerate(order)}
    cat = Catalog(algebra, cfg)
    cat.ind = tuple(reps[i] for i in order)
    for i, m in enumerate(cat.ind):
        cat._key_index[m.key()] = i
    for key, parts in admitted.items():
        cat.op_cache[("decompose", key)] = tuple(sorted(rank[j] for j in parts))
    cat._subquotients = tuple(
        [(sub, tuple(sorted(rank[j] for j in parts))) for sub, parts in subquotients[i]]
        for i in order
    )

    counts = {}
    names = []
    for m in cat.ind:
        ds = "".join(str(d) for d in m.dims)
        names.append(ds + _letters(counts.get(ds, 0)))
        counts[ds] = counts.get(ds, 0) + 1
    cat.names = tuple(names)
    return cat


def build_tables(cat):
    """Fill Hom dimensions, brick flags, and subfactor pairs; returns cat.

    cat comes from enumerate_indecomposables: the subfactor pairs are read
    off the submodules and quotient decompositions its quotient scan kept,
    which are dropped afterwards.
    """
    n = len(cat.ind)
    cat.set_tables(
        tuple(
            tuple(len(modrep.hom_basis(cat.ind[i], cat.ind[j])) for j in range(n))
            for i in range(n)
        ),
        tuple(modrep.is_brick(m, cat.config) for m in cat.ind),
        tuple(
            tuple(sorted({(cat.decompose_indices(sub), q) for sub, q in pairs}))
            for pairs in cat._subquotients
        ),
    )
    del cat._subquotients
    return cat


def build_catalog(algebra, config=None):
    return build_tables(enumerate_indecomposables(algebra, config))


def to_json(cat):
    """Canonical JSON document; byte-exact round-trip with from_json.

    The matrices of each member are those of the representative the closure
    found first for its isomorphism class, so they depend on the discovery
    order: a change to how the closure enumerates modules may export a
    different, isomorphic matrix for a member while its name and every table
    stay the same.
    """
    q = cat.algebra.quiver
    doc = {
        "algebra": {
            "vertices": q.vertex_count,
            "arrows": [[a.name, a.source, a.target] for a in q.arrows],
            "relations": [list(r) for r in cat.algebra.relations],
            "prime": cat.algebra.prime,
        },
        "ind": [
            {"dims": list(m.dims), "mats": [mat.tolist() for mat in m.mats]}
            for m in cat.ind
        ],
        "names": list(cat.names),
        "tables": {
            "hom_dim": [list(row) for row in cat.hom_dim],
            "bricks": list(cat.bricks),
            "subfactors": [
                [[list(u), list(q)] for u, q in row] for row in cat.subfactors
            ],
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text, config=None):
    cfg = config or DEFAULT_CONFIG
    doc = json.loads(text)
    a = doc["algebra"]
    quiver = Quiver(
        a["vertices"], tuple(Arrow(n, s, t) for n, s, t in a["arrows"])
    )
    algebra = build_algebra(
        quiver, [tuple(r) for r in a["relations"]], a["prime"], cfg
    )
    cat = Catalog(algebra, cfg)

    def load_module(entry):
        dims = tuple(entry["dims"])
        mats = []
        for arrow, mat in zip(quiver.arrows, entry["mats"]):
            shape = (dims[arrow.target], dims[arrow.source])
            m = np.array(mat, dtype=np.int64).reshape(shape) if mat else linalg.zeros(*shape)
            mats.append(m)
        return modrep.Module(algebra, dims, tuple(mats))

    cat.ind = tuple(load_module(entry) for entry in doc["ind"])
    for i, m in enumerate(cat.ind):
        cat._key_index[m.key()] = i
    cat.names = tuple(doc["names"])
    t = doc["tables"]
    cat.set_tables(
        tuple(tuple(row) for row in t["hom_dim"]),
        tuple(bool(b) for b in t["bricks"]),
        tuple(
            tuple(sorted((tuple(u), tuple(q)) for u, q in row))
            for row in t["subfactors"]
        ),
    )
    return cat
