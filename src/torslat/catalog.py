"""Catalog of indecomposable modules with precomputed structure tables.

The catalog lists one representative per isomorphism class, certified closed
under quotients and pair extensions at the configured dimension bound.  The
tables (Hom dimensions, subfactor pairs) turn every downstream subcategory
operator into finite index combinatorics on masks, where a mask is an int
bitset (bit i for catalog index i) denoting the additive hull of its
members.  ``build_catalog`` enumerates the members with their subfactor
pairs and their Hom dimensions (``enumerate_indecomposables``): the
closure's Ext scans compute the dimensions, except for a pair whose source
is projective or whose target is injective, which needs no scan, its Hom
dimension being a dimension of the other member at one vertex.  It then
names the members (``build_tables``), and ``from_json`` reads them back;
both hand them to the ``Catalog`` constructor, the one place the names and
tables are validated.  The subfactor pairs are the catalog's one source for
Hom vanishing: the constructor reads off them the Hom table ``hom_table``,
one ``HomProfile`` per ordered pair of members (``Catalog.hom_profile``: a
nonzero map is a quotient of its source that is a submodule of its target,
so the table solves no linear algebra), and checks the Hom dimensions
against it.
From the table it derives the brick flags (``bricks``, see ``Catalog``) and
the bitset rows the operators read: ``out_bits`` and ``in_bits`` (the
members a member maps to and from), ``pair_bits`` (the subfactor pairs as
(u, q) bitsets), ``quotient_bits`` and ``sub_bits`` (the union of their q
and u parts), ``closure_rows`` (the rows of ``subcat.filt``: u | q of each
nontrivial pair) and ``full_mask``.
``op_cache`` holds every memo of the library under tagged keys, the
subcategory operators' results and widelab's verdicts (see ``subcat``); the
constructor leaves it empty.
"""

import json
from typing import NamedTuple

from . import modrep, subcat
from .config import DEFAULT_CONFIG
from .errors import NotClosed
from .quivalg import (
    Arrow,
    Quiver,
    build_algebra,
    injective_module,
    projective_module,
    simple_module,
)


def _letters(k):
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("a") + r) + out
    return out


class HomProfile(NamedTuple):
    """Summands of the nonzero maps from one member to another.

    kernel, image and cokernel are int bitsets: each is the OR, over the
    nonzero maps of the Hom space, of the catalog indices of that module's
    summands.  epi holds when every nonzero map is onto, that is when the
    cokernel OR is empty.  An OR lies inside a mask exactly when each map's
    summands do, so one entry answers a subset test for every map at once.
    """

    kernel: int
    image: int
    cokernel: int
    epi: bool


_ZERO_HOM = HomProfile(0, 0, 0, True)


class Catalog:
    """The members of an algebra's catalog and their tables; immutable once built.

    ind lists one module per isomorphism class and names their names.
    hom_dim[i][j] is the dimension of Hom(ind[i], ind[j]); subfactors[i]
    holds the sorted pairs (u, q) of ind[i], u the sorted summand indices of
    a submodule U and q those of ind[i]/U, one pair per distinct (u, q).

    The constructor checks the names and the tables against the members,
    raising ValueError, and derives the rest.  The summands of each pair,
    counted with multiplicity, must add up to the member's dims.
    hom_table[i][j] is ``hom_profile(i, j)``, and hom_dim[i][j] must be
    nonzero exactly when its image is.  Bit k of a row stands for catalog
    index k.  out_bits[i] holds the j with Hom(ind[i], ind[j]) nonzero and
    in_bits[j] the i; pair_bits[i] holds the pairs of subfactors[i] as
    (u bitset, q bitset); quotient_bits[i] is the union of their q parts and
    sub_bits[i] of their u parts; closure_rows holds, for each i with a
    nontrivial pair (u and q nonempty), (1 << i, u | q of each such pair,
    once per distinct bitset), the rows of ``subcat.extension_closure`` over
    the whole catalog; full_mask holds every index.

    bricks[i] holds when the kernel OR of hom_table[i][i] is empty, which is
    exactly when End(ind[i]) is a division ring: by the argument of
    ``hom_profile`` the OR is empty exactly when every nonzero endomorphism
    of ind[i] is injective, and ind[i] is finite-dimensional, so an
    injective endomorphism is bijective, hence invertible.
    """

    def __init__(self, algebra, config, ind, names, hom_dim, subfactors):
        n = len(ind)
        if len(names) != n:
            raise ValueError(f"names lists {len(names)} names for {n} members")
        if not (len(hom_dim) == len(subfactors) == n) or any(
            len(row) != n for row in hom_dim
        ):
            raise ValueError(f"tables do not match the {n} catalog members")
        for i, (row, pairs) in enumerate(zip(hom_dim, subfactors)):
            for d in row:
                if type(d) is not int or d < 0:
                    raise ValueError(f"member {i}: Hom dimension {d!r} is not a natural number")
            for pair in pairs:
                parts = (*pair[0], *pair[1])
                for k in parts:
                    if type(k) is not int or not 0 <= k < n:
                        raise ValueError(
                            f"member {i}: subfactor pair {pair} names {k!r},"
                            f" not one of the {n} member indices"
                        )
                dims = tuple(map(sum, zip(*(ind[k].dims for k in parts))))
                if dims != ind[i].dims:
                    raise ValueError(
                        f"member {i}: subfactor pair {pair} adds up to dims"
                        f" {dims}, not {ind[i].dims}"
                    )
        self.algebra = algebra
        self.config = config
        self.ind = ind
        self.names = names
        self.hom_dim = hom_dim
        self.subfactors = subfactors
        self.op_cache = {}
        self.pair_bits = tuple(
            tuple((subcat.bits(u), subcat.bits(q)) for u, q in row)
            for row in subfactors
        )
        self.hom_table = tuple(
            tuple(self.hom_profile(i, j) for j in range(n)) for i in range(n)
        )
        for i, (row, dims) in enumerate(zip(self.hom_table, hom_dim)):
            for j, (prof, d) in enumerate(zip(row, dims)):
                if bool(prof.image) != bool(d):
                    raise ValueError(
                        f"members {i} and {j}: Hom dimension {d}, but the"
                        f" subfactor pairs give {'a' if prof.image else 'no'}"
                        " nonzero map"
                    )
        self.out_bits = tuple(
            subcat.bits(j for j, prof in enumerate(row) if prof.image)
            for row in self.hom_table
        )
        self.in_bits = tuple(
            subcat.bits(i for i in range(n) if self.hom_table[i][j].image)
            for j in range(n)
        )
        self.quotient_bits = tuple(
            subcat.bits(k for _, q in row for k in q) for row in subfactors
        )
        self.sub_bits = tuple(
            subcat.bits(k for u, _ in row for k in u) for row in subfactors
        )
        closure_rows = []
        for i, row in enumerate(self.pair_bits):
            uqs = tuple(dict.fromkeys(u | q for u, q in row if u and q))
            # i without a nontrivial pair is no extension of anything smaller
            if uqs:
                closure_rows.append((1 << i, uqs))
        self.closure_rows = tuple(closure_rows)
        self.full_mask = (1 << n) - 1
        self.bricks = tuple(not self.hom_table[i][i].kernel for i in range(n))

    def __len__(self):
        return len(self.ind)

    @property
    def simple_indices(self):
        return tuple(i for i, m in enumerate(self.ind) if m.total_dim == 1)

    def hom_profile(self, i, j):
        """The HomProfile of Hom(ind[i], ind[j]), read off the subfactor table.

        A nonzero f: ind[i] -> ind[j] has a kernel K and an image I with
        ind[i]/K isomorphic to I, so (dec K, dec I) is a pair of
        subfactors[i] and (dec I, dec ind[j]/I) a pair of subfactors[j].
        Conversely, a pair (u, q) of i and a pair (q, c) of j with the same
        nonempty q give modules ind[i]/K and I with the same summands,
        hence isomorphic (Krull-Schmidt), and ind[i] -> ind[i]/K -> I ->
        ind[j] is a nonzero map with kernel u, image q and cokernel c.  So
        the profile ORs u, q and c over the matched pairs, and the maps are
        all epic exactly when every matched c is empty.  A pair with no
        match has zero Hom and gets the one shared zero entry.
        """
        # ORed cokernels of the nonzero submodules of ind[j], by summands
        cokernels = {}
        for (sub, _), (_, c) in zip(self.subfactors[j], self.pair_bits[j]):
            if sub:
                cokernels[sub] = cokernels.get(sub, 0) | c
        kernel = image = cokernel = 0
        for (_, quot), (k, q) in zip(self.subfactors[i], self.pair_bits[i]):
            if quot in cokernels:
                kernel |= k
                image |= q
                cokernel |= cokernels[quot]
        if not image:
            return _ZERO_HOM
        return HomProfile(kernel, image, cokernel, not cokernel)

    def mask_name(self, b):
        return "{" + ",".join(self.names[i] for i in subcat.indices(b)) + "}"


def enumerate_indecomposables(algebra, config=None):
    """The members of an algebra's catalog in catalog order, each with its
    row of subfactor pairs and its row of Hom dimensions: a tuple of
    (module, pairs, hom_row), hom_row[j] the dimension of Hom(module, ind[j])
    for the catalog's ind.

    A fixpoint closure from the simples under quotients and pair extensions.
    Raises NotClosed when a new isomorphism class appears above the dimension
    bound; for a representation-finite algebra with an adequate bound the
    closure stabilizes.  One ordered pass visits the members in the order
    they are registered: a member's visit scans its quotients, then settles
    each ordered pair of it and a member up to it (below), so each scan runs
    at most once.  Every summand they produce is admitted, and a new
    member is appended and visited in turn, so the result is closed without
    a second pass.  ext_scan builds no split middle term, whose summands
    would be the pair itself, and admitting decomposes every middle term, so
    two isomorphic middle terms of one pair land on the same members.  A
    summand's class is looked up among the members of its dimension vector
    only.  Admitting decomposes each distinct module, by Module.key(), once
    per call: quotients repeat across members (every scan includes the
    member itself and the zero module), and a repeat gets the indices of its
    first sighting, which registered its classes in the same order a second
    decomposition would find them.

    The members are then ranked by (total dimension, dims, matrices).  The
    subfactor pairs of a member are its quotient scan's submodules with their
    quotients' summands; each submodule is admitted through the same memo,
    so no module the closure decomposed is decomposed again, but no class is
    registered any more: a submodule summand that no member matches raises
    NotClosed naming its dims.

    The scan of the ordered pair (X, Y) also gives the dimension of
    Hom(X, Y), as the kernel of the coboundary map it reduces, so the
    closure keeps it, and the rows of Hom dimensions need no other linear
    system.  Two kinds of pair need no scan (Assem-Simson-Skowronski,
    Elements 1, III.2).  If X is the projective P_v, Ext^1(P_v, -) = 0, and
    Hom(P_v, Y) is Y_v by the Yoneda lemma, f -> f(e_v); dually, if Y is
    the injective I_w, Ext^1(-, I_w) = 0, and Hom(X, I_w) is the dual of
    X_w.  Both facts hold up to isomorphism, so each member is marked at
    registration as isomorphic to P_v, to I_w, to both or to neither.
    projective_module and injective_module build P_v and I_w, both
    indecomposable: End(P_v) = e_v A e_v is local, and I_w is the dual of a
    projective of the opposite algebra.  A new member is compared only with
    those of its dims, by is_isomorphic_indecomposable, which is exact on
    two indecomposables.  A pair (X, Y) is then settled as hom = Y.dims[v]
    when X is P_v, else as hom = X.dims[w] when Y is I_w, in either case
    with no middle term, and by its scan otherwise.  Since the settled
    pairs have no middle term to admit, the scans that do run run in the
    same order, and the closure finds the same members, as if every pair
    were scanned.  A class lookup, in the closure and in the marking, first
    takes a candidate whose Module.key() is the module's own, equal keys
    meaning equal modules, and solves Hom only when none is.
    """
    cfg = config or DEFAULT_CONFIG
    reps = []
    buckets = {}
    admitted = {}
    subquotients = []
    hom = {}
    # (v, P_v) and (w, I_w) by dims, and the vertex of each member
    # isomorphic to one of them
    standard = ({}, {})
    for v in range(algebra.quiver.vertex_count):
        for side, m in zip(standard, (
            projective_module(algebra, v), injective_module(algebra, v)
        )):
            side.setdefault(m.dims, []).append((v, m))
    projective, injective = {}, {}

    def match(part, candidates):
        """The tag of the first (tag, module) candidate that part is
        isomorphic to, by key, then by a Hom solve; None if none is."""
        key = part.key()
        for tag, m in candidates:
            if m.key() == key:
                return tag
        for tag, m in candidates:
            if modrep.is_isomorphic_indecomposable(m, part):
                return tag
        return None

    def index(part, register):
        """Index of an indecomposable's class, registering a new class if asked."""
        i = match(part, buckets.get(part.dims, ()))
        if i is not None:
            return i
        if not register:
            raise NotClosed(f"module with dims {part.dims} is not in the catalog")
        if part.total_dim > cfg.dim_bound:
            raise NotClosed(
                f"indecomposable with dims {part.dims} has total dimension"
                f" {part.total_dim}, dim_bound {cfg.dim_bound} (--dim-bound)"
            )
        k = len(reps)
        reps.append(part)
        buckets.setdefault(part.dims, []).append((k, part))
        for side, marks in zip(standard, (projective, injective)):
            v = match(part, side.get(part.dims, ()))
            if v is not None:
                marks[k] = v
        return k

    def admit(module, register=True):
        key = module.key()
        if key not in admitted:
            admitted[key] = [
                index(part, register) for part in modrep.decompose(module, cfg)
            ]
        return admitted[key]

    def settle(x, y):
        if x in projective:
            hom[x, y] = reps[y].dims[projective[x]]
        elif y in injective:
            hom[x, y] = reps[x].dims[injective[y]]
        else:
            hom[x, y], middles = modrep.ext_scan(reps[x], reps[y], cfg)
            for z in middles:
                admit(z)

    for v in range(algebra.quiver.vertex_count):
        admit(simple_module(algebra, v))

    k = 0
    while k < len(reps):
        subquotients.append([
            (sub, admit(modrep.quotient_by(inc)[0]))
            for sub, inc in modrep.submodules(reps[k], cfg)
        ])
        for other in range(k + 1):
            settle(k, other)
            if other != k:
                settle(other, k)
        k += 1

    order = sorted(
        range(len(reps)),
        key=lambda i: (reps[i].total_dim, reps[i].dims, reps[i].key()[1]),
    )
    rank = {i: r for r, i in enumerate(order)}

    def ranked(parts):
        return tuple(sorted(rank[j] for j in parts))

    return tuple(
        (reps[i], tuple(sorted({
            (ranked(admit(sub, False)), ranked(q)) for sub, q in subquotients[i]
        })), tuple(hom[i, j] for j in order))
        for i in order
    )


def build_tables(algebra, config, members):
    """The Catalog of enumerate_indecomposables' members: names each by its
    dims and a letter, and takes the subfactor pairs and the Hom dimensions
    as the closure found them; it solves no linear system."""
    ind = tuple(m for m, _, _ in members)
    counts = {}
    names = []
    for m in ind:
        ds = "".join(str(d) for d in m.dims)
        names.append(ds + _letters(counts.get(ds, 0)))
        counts[ds] = counts.get(ds, 0) + 1
    return Catalog(
        algebra,
        config,
        ind,
        tuple(names),
        tuple(row for _, _, row in members),
        tuple(pairs for _, pairs, _ in members),
    )


def build_catalog(algebra, config=None):
    """The catalog of an algebra: its members, then their tables."""
    cfg = config or DEFAULT_CONFIG
    return build_tables(algebra, cfg, enumerate_indecomposables(algebra, cfg))


def to_json(cat):
    """Canonical JSON document; byte-exact round-trip with from_json.

    A member's matrices are written as they are stored, one list of rows per
    arrow, so a matrix with no rows is [] and one with empty rows is [[], ...].
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
            {"dims": m.dims, "mats": m.mats} for m in cat.ind
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
    """The catalog of a to_json document.

    Each member is built through the checked Module constructor, so a matrix
    of the wrong shape, or one that breaks a relation, raises ValueError
    naming the member's index and the arrow.  The ``Catalog`` constructor
    checks the names and the tables: a "names" list of the wrong length
    raises ValueError naming both counts, and a negative Hom dimension, or a
    subfactor pair naming no member or whose summands do not add up to the
    member, raises ValueError naming the member whose row holds it, as does
    a row whose pairs cannot be read and sorted as pairs of index lists; a
    Hom dimension that is zero where the subfactor pairs give a nonzero map,
    or the reverse, raises ValueError naming both members.  The brick flags
    are derived from the tables; the document's "bricks" field is checked
    against them, and a disagreement raises ValueError naming the first
    member it concerns.
    """
    cfg = config or DEFAULT_CONFIG
    doc = json.loads(text)
    a = doc["algebra"]
    quiver = Quiver(
        a["vertices"], tuple(Arrow(n, s, t) for n, s, t in a["arrows"])
    )
    algebra = build_algebra(
        quiver, [tuple(r) for r in a["relations"]], a["prime"], cfg
    )

    def load_module(i, entry):
        try:
            return modrep.Module(algebra, entry["dims"], entry["mats"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"member {i}: {exc}") from None

    def load_pairs(i, row):
        try:
            return tuple(sorted((tuple(u), tuple(q)) for u, q in row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"member {i}: subfactor pairs {row}: {exc}") from None

    t = doc["tables"]
    cat = Catalog(
        algebra,
        cfg,
        tuple(load_module(i, entry) for i, entry in enumerate(doc["ind"])),
        tuple(doc["names"]),
        tuple(tuple(row) for row in t["hom_dim"]),
        tuple(load_pairs(i, row) for i, row in enumerate(t["subfactors"])),
    )
    given = tuple(bool(b) for b in t["bricks"])
    if len(given) != len(cat):
        raise ValueError(f"bricks lists {len(given)} flags for {len(cat)} members")
    for name, flag, derived in zip(cat.names, given, cat.bricks):
        if flag != derived:
            raise ValueError(
                f"bricks says member {name} is {'a' if flag else 'no'} brick;"
                f" its endomorphisms say it is {'a' if derived else 'no'} brick"
            )
    return cat
