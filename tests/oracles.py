"""Brute-force reference computations, independent of the closure tables.

Everything here goes back to raw module arithmetic: quotients are taken by
actually enumerating submodules, extension middles by enumerating cocycles,
Hom dimensions by scanning every componentwise matrix tuple, isomorphism by
searching every ray of the Hom space for an invertible morphism, brickness
by checking that every ray of End is invertible.  The main library is only
trusted for module construction, Hom bases, decomposition and the
local-ring isomorphism test; ``index_of`` and ``decompose_indices``
classify summands by that test against every member of a catalog.

Masks here are frozensets of catalog indices, ``within`` included; the
library's masks are int bitsets, converted by ``to_bits`` and ``to_set`` where
an oracle calls the library or builds a lattice.  The library's operators
work in the whole category; an oracle that reads them inside a wide
``within`` cuts their results down to it by hand.

The linear algebra references run on numpy int64 arrays, independent of the
library's tuple-of-rows matrices; ``arrays`` and ``to_rows`` convert
between the two.
"""

import itertools
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from torslat import lattice, linalg, modrep, subcat
from torslat.errors import LabelNotBrick, LabelNotUnique, NotClosed, TheoremViolation

# torsion class counts derived by hand before the build:
# chains a2/a2r give the 5-element Tamari lattice on 3 letters, a3/a3s the
# 14-element one, a4 the 42-element one; two isolated simples give the
# Boolean lattice with 4 classes; ppa2 and nak3 were enumerated directly.
TORS_COUNTS = {
    "a2": 5,
    "a2r": 5,
    "a3": 14,
    "a3s": 14,
    "a4": 42,
    "ss2": 4,
    "ppa2": 6,
    "nak3": 14,
}

IND_COUNTS = {
    "a2": 3,
    "a2r": 3,
    "a3": 6,
    "a3s": 6,
    "a4": 10,
    "ss2": 2,
    "ppa2": 4,
    "nak3": 6,
}


def arrays(x):
    """The matrices of a Module (one per arrow) or a Morphism (one per vertex)
    as int64 arrays of their shapes, which a matrix without rows does not show."""
    if isinstance(x, modrep.Morphism):
        mats, shapes = x.comps, zip(x.target.dims, x.source.dims)
    else:
        arrows = x.algebra.quiver.arrows
        mats, shapes = x.mats, ((x.dims[a.target], x.dims[a.source]) for a in arrows)
    return [np.array(m, dtype=np.int64).reshape(shape) for m, shape in zip(mats, shapes)]


def to_rows(a):
    """An int64 array as a library matrix."""
    return tuple(map(tuple, a.tolist()))


def _eye(n):
    return np.eye(n, dtype=np.int64)


def _zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def rref(a, p):
    """Row-reduce a copy of `a` with numpy; returns (echelon matrix, pivot column list).

    The reference for linalg.reduce_rows, which runs the same elimination on
    Python lists of rows.
    """
    m = np.asarray(a, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(a, p):
    """Reference for linalg.nullspace, back-substituted from the numpy rref."""
    cols = a.shape[1]
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = _zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a, b, p):
    """Reference for linalg.solve: the rref of the augmented matrix [a | b]."""
    n = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(aug, p)
    if any(c >= n for c in pivots):
        return None
    x = _zeros(n, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x


def column_space(a, p):
    """Reference for linalg.column_space: the pivot columns of the numpy rref."""
    _, pivots = rref(a, p)
    return (np.asarray(a, dtype=np.int64) % p)[:, pivots]


def complement_projection(basis, p):
    """Reference for linalg.complement_projection, one np.outer per pivot.

    Returns (proj, section): the section is the identity's columns at the
    free coordinates, which linalg.complement_projection returns as a list.
    """
    n = basis.shape[0]
    r, pivots = rref(basis.T, p)
    e = r[: len(pivots), :]
    piv = [int(np.argmax(row != 0)) for row in e]
    free = [c for c in range(n) if c not in piv]
    m = _eye(n)
    for i, pc in enumerate(piv):
        hot = _zeros(1, n)
        hot[0, pc] = 1
        m = (m - np.outer(e[i], hot[0])) % p
    proj = m[free, :] if free else _zeros(0, n)
    section = _eye(n)[:, free]
    return proj, section


def brute_hom_dim(x, y):
    """Count intertwiners by scanning all componentwise matrix tuples."""
    p = x.algebra.prime
    shapes = [(y.dims[v], x.dims[v]) for v in range(len(x.dims))]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    assert p**total <= 1 << 20, "pair too large for the brute force"
    xm, ym = arrays(x), arrays(y)
    count = 0
    for flat in itertools.product(range(p), repeat=total):
        comps = []
        at = 0
        for r, c in shapes:
            comps.append(np.array(flat[at : at + r * c], dtype=np.int64).reshape(r, c))
            at += r * c
        ok = all(
            np.array_equal(
                (comps[a.target] @ xm[k]) % p, (ym[k] @ comps[a.source]) % p
            )
            for k, a in enumerate(x.algebra.quiver.arrows)
        )
        if ok:
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count, "solution set is not a subspace"
    return dim


def intertwining_system(x, y):
    """The Hom system of modrep._intertwining_system, assembled with np.kron.

    Same layout: one row block per arrow a: u -> v holding Y_a kron I on the
    columns of f_u and -(I kron X_a^T) on those of f_v, blocks stacked by
    np.concatenate.  Returns the matrix and the column offset of each vertex.
    """
    p = x.algebra.prime
    q = x.algebra.quiver
    nv = q.vertex_count
    sizes = [y.dims[v] * x.dims[v] for v in range(nv)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    ncols = offsets[-1]
    xm, ym = arrays(x), arrays(y)
    rows = []
    for ai, a in enumerate(q.arrows):
        u, v = a.source, a.target
        nrows = y.dims[v] * x.dims[u]
        if nrows == 0:
            continue
        block = _zeros(nrows, ncols)
        if sizes[u]:
            block[:, offsets[u] : offsets[u + 1]] = np.kron(ym[ai], _eye(x.dims[u])) % p
        if sizes[v]:
            block[:, offsets[v] : offsets[v + 1]] = (
                block[:, offsets[v] : offsets[v + 1]]
                - np.kron(_eye(y.dims[v]), xm[ai].T)
            ) % p
        rows.append(block)
    if rows:
        return np.concatenate(rows, axis=0), offsets
    return _zeros(0, ncols), offsets


@dataclass
class KernelImageCokernel:
    kernel: modrep.Module
    kernel_inclusion: modrep.Morphism
    image: modrep.Module
    image_inclusion: modrep.Morphism
    image_projection: modrep.Morphism
    cokernel: modrep.Module
    cokernel_projection: modrep.Morphism


def kernel_image_cokernel(f):
    """Vertex-wise kernel, image, and cokernel with their induced arrow actions.

    The reference for modrep.kernel, modrep.image and modrep.quotient_by,
    on the numpy references above: one solve loop per submodule, the
    cokernel maps read off the complement projection of the image and its
    section, and the image projection x -> image solved per vertex.  Per vertex, dim kernel + dim image equals the source
    dimension, and the cokernel dimension is the target dimension minus the
    image dimension.
    """
    x, y = f.source, f.target
    algebra = x.algebra
    p = algebra.prime
    q = algebra.quiver
    nv = q.vertex_count

    fm, xm, ym = arrays(f), arrays(x), arrays(y)
    kbases = [nullspace(fm[v], p) for v in range(nv)]
    ibases = [column_space(fm[v], p) for v in range(nv)]
    projs, sects = zip(*(complement_projection(ibases[v], p) for v in range(nv)))

    for v in range(nv):
        assert kbases[v].shape[1] + ibases[v].shape[1] == x.dims[v]

    kdims = tuple(b.shape[1] for b in kbases)
    idims = tuple(b.shape[1] for b in ibases)
    cdims = tuple(y.dims[v] - idims[v] for v in range(nv))

    kmats, imats, cmats = [], [], []
    for ai, a in enumerate(q.arrows):
        u, v = a.source, a.target
        km = solve(kbases[v], xm[ai] @ kbases[u] % p, p)
        assert km is not None, "kernel is not arrow-stable"
        kmats.append(km)
        im = solve(ibases[v], ym[ai] @ ibases[u] % p, p)
        assert im is not None, "image is not arrow-stable"
        imats.append(im)
        cmats.append(projs[v] @ (ym[ai] @ sects[u] % p) % p)

    def rows_of(arrs):
        return tuple(to_rows(m) for m in arrs)

    kernel = modrep.Module(algebra, kdims, rows_of(kmats), check=False)
    image = modrep.Module(algebra, idims, rows_of(imats), check=False)
    cokernel = modrep.Module(algebra, cdims, rows_of(cmats), check=False)

    k_in = modrep.Morphism(kernel, x, rows_of(kbases), check=False)
    i_in = modrep.Morphism(image, y, rows_of(ibases), check=False)
    iproj_comps = []
    for v in range(nv):
        c = solve(ibases[v], fm[v], p)
        assert c is not None
        iproj_comps.append(c)
    i_pr = modrep.Morphism(x, image, rows_of(iproj_comps), check=False)
    c_pr = modrep.Morphism(y, cokernel, rows_of(projs), check=False)
    return KernelImageCokernel(kernel, k_in, image, i_in, i_pr, cokernel, c_pr)


def ray_count(dim, p):
    """Number of rays (nonzero vectors up to a scalar) of F_p^dim."""
    return (p ** dim - 1) // (p - 1) if dim else 0


def hom_rays(x, y):
    """One morphism x -> y per ray of Hom(x, y), as an iterator, with no budget.

    A ray is a nonzero morphism up to a nonzero scalar; its representative
    is the combination of the hom_basis(x, y) elements whose first nonzero
    coefficient is 1, in linalg.ray_representatives order.  The iterator is
    empty when Hom(x, y) vanishes.
    """
    p = x.algebra.prime
    basis = [arrays(f) for f in modrep.hom_basis(x, y)]
    for coeffs in linalg.ray_representatives(len(basis), p):
        comps = tuple(
            to_rows(sum(c * f[v] for c, f in zip(coeffs, basis)) % p)
            for v in range(len(x.dims))
        )
        yield modrep.Morphism(x, y, comps, check=False)


def is_brick(x):
    """True when every ray of End(x) is invertible, that is End(x) is a division ring."""
    if x.is_zero:
        raise ValueError("the zero module is not a brick candidate")
    return all(f.is_invertible for f in hom_rays(x, x))


@dataclass(frozen=True)
class RayProfile:
    """Kernel, image and cokernel summands of one ray; epi when it is onto."""

    kernel: tuple
    image: tuple
    cokernel: tuple
    epi: bool


def hom_ray_profiles(cat, i, j):
    """One RayProfile per ray of Hom(ind[i], ind[j]), in hom_rays order.

    The per-ray reference for Catalog.hom_table, whose entry ORs these: the
    kernel, image and cokernel come from kernel_image_cokernel, their
    summands from decompose_indices.
    """
    out = []
    for f in hom_rays(cat.ind[i], cat.ind[j]):
        kic = kernel_image_cokernel(f)
        out.append(
            RayProfile(
                decompose_indices(cat, kic.kernel),
                decompose_indices(cat, kic.image),
                decompose_indices(cat, kic.cokernel),
                kic.cokernel.is_zero,
            )
        )
    return out


def is_isomorphic(x, y):
    """Exhaustive search for an invertible morphism x -> y, one candidate per ray.

    Needs no indecomposability, unlike modrep.is_isomorphic_indecomposable.
    """
    if x.dims != y.dims:
        return False
    return x.is_zero or any(f.is_invertible for f in hom_rays(x, y))


# per catalog, the memo of index_of and decompose_indices, by tagged
# module key; an entry goes with its catalog
_CLASSES = weakref.WeakKeyDictionary()


def index_of(cat, module):
    """Index of the member of cat isomorphic to an indecomposable module.

    Scans every member with the local-ring test
    (modrep.is_isomorphic_indecomposable), whatever its dims, and raises
    NotClosed, as build_catalog does, when none matches.  Memoized per
    catalog by Module.key().
    """
    memo = _CLASSES.setdefault(cat, {})
    key = ("member", module.key())
    if key not in memo:
        for i, rep in enumerate(cat.ind):
            if modrep.is_isomorphic_indecomposable(rep, module):
                memo[key] = i
                break
        else:
            raise NotClosed(f"module with dims {module.dims} is not in the catalog")
    return memo[key]


def decompose_indices(cat, module):
    """Sorted member indices of the indecomposable summands of a module,
    one per summand, by index_of.  Memoized per catalog by Module.key()."""
    memo = _CLASSES.setdefault(cat, {})
    key = ("summands", module.key())
    if key not in memo:
        memo[key] = tuple(
            sorted(index_of(cat, s) for s in modrep.decompose(module, cat.config))
        )
    return memo[key]


def injective_module(algebra, vertex):
    """The injective envelope of the simple at `vertex`.

    Basis: the basis paths ending at `vertex`, graded by their start vertex.
    An arrow acts by deleting itself from the front of a path that begins
    with it, and by zero on every other path.
    """
    paths = [pth for pth in algebra.path_basis if pth.end == vertex]
    slot = {}
    dims = [0] * algebra.quiver.vertex_count
    for pth in paths:
        slot[pth.names] = dims[pth.start]
        dims[pth.start] += 1
    mats = []
    for a in algebra.quiver.arrows:
        m = _zeros(dims[a.target], dims[a.source])
        for pth in paths:
            if pth.names[:1] == (a.name,):
                m[slot[pth.names[1:]], slot[pth.names]] = 1
        mats.append(m)
    return modrep.Module(algebra, tuple(dims), tuple(mats))


def quotient_parts(cat):
    """Per indecomposable: every quotient by an actual submodule, decomposed."""
    out = []
    for x in cat.ind:
        parts = set()
        for _, incl in modrep.submodules(x, cat.config):
            q, _ = modrep.quotient_by(incl)
            parts.add(decompose_indices(cat, q))
        out.append(frozenset(parts))
    return out


def sub_parts(cat):
    out = []
    for x in cat.ind:
        parts = set()
        for sub, _ in modrep.submodules(x, cat.config):
            parts.add(decompose_indices(cat, sub))
        out.append(frozenset(parts))
    return out


def exact_inverse(rows):
    """The inverse of a square integer matrix over the rationals, by
    Gauss-Jordan elimination on Fractions; None if it is singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        lead = aug[c][c]
        aug[c] = [x / lead for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def decompose_by_hom_dims(cat, module, h_inv):
    """Summand indices of a module from Hom dimensions alone, sorted as
    decompose_indices sorts them.

    Over a representation-finite algebra, dim Hom(M_i, X) = sum_j H[i][j]
    m_j, with H = cat.hom_dim and m_j the multiplicity of the member M_j in
    X (Auslander 1982; Bongartz 1989).  So m = H^-1 (dim Hom(M_i, X))_i,
    for h_inv = exact_inverse(cat.hom_dim).  Uses no idempotent search,
    only Hom bases.  Raises ValueError unless every m_j is a nonnegative
    integer.
    """
    h = [len(modrep.hom_basis(m, module)) for m in cat.ind]
    out = []
    for j, row in enumerate(h_inv):
        mult = sum(x * y for x, y in zip(row, h))
        if mult.denominator != 1 or mult < 0:
            raise ValueError(f"multiplicity {mult} of member {j}")
        out.extend([j] * int(mult))
    return tuple(out)


def extensions_by_cocycles(q_mod, u_mod):
    """Middle terms of 0 -> u_mod -> Z -> q_mod -> 0, one per cocycle, up to iso.

    Every solution of the relation constraints on the off-diagonal blocks is
    turned into a middle term, with no quotient by coboundaries or scalars,
    and the list is deduplicated by exhaustive isomorphism search.  The zero
    cocycle comes first, so the split middle term is element 0 and every
    coboundary merges into it.
    """
    algebra = q_mod.algebra
    p = algebra.prime
    qv = algebra.quiver
    idx = algebra.arrow_index
    arrow_sizes = [u_mod.dims[a.target] * q_mod.dims[a.source] for a in qv.arrows]
    offsets = [0]
    for s in arrow_sizes:
        offsets.append(offsets[-1] + s)
    ncols = offsets[-1]
    um, qm = arrays(u_mod), arrays(q_mod)

    rows = []
    for rel in algebra.relations:
        steps = [qv.arrow(n) for n in rel]
        nrows = u_mod.dims[steps[-1].target] * q_mod.dims[steps[0].source]
        if nrows == 0:
            continue
        block = _zeros(nrows, ncols)
        for i, a in enumerate(steps):
            ai = idx[a.name]
            if arrow_sizes[ai] == 0:
                continue
            suffix = _eye(u_mod.dims[a.target])
            for b in steps[i + 1 :]:
                suffix = um[idx[b.name]] @ suffix % p
            prefix = _eye(q_mod.dims[a.source])
            for b in reversed(steps[:i]):
                prefix = prefix @ qm[idx[b.name]] % p
            block[:, offsets[ai] : offsets[ai + 1]] += np.kron(suffix, prefix.T)
        rows.append(block % p)
    system = np.concatenate(rows, axis=0) if rows else _zeros(0, ncols)
    null = nullspace(system, p)
    s = null.shape[1]
    assert p**s <= 1 << 16, "cocycle space too large for the brute force"

    dims = tuple(u + q for u, q in zip(u_mod.dims, q_mod.dims))
    reps = []
    for coeffs in itertools.product(range(p), repeat=s):
        vec = (null @ np.array(coeffs, dtype=np.int64)) % p
        mats = []
        for ai, a in enumerate(qv.arrows):
            m = _zeros(dims[a.target], dims[a.source])
            ud_t, ud_s = u_mod.dims[a.target], u_mod.dims[a.source]
            m[:ud_t, :ud_s] = um[ai]
            m[ud_t:, ud_s:] = qm[ai]
            m[:ud_t, ud_s:] = vec[offsets[ai] : offsets[ai + 1]].reshape(
                ud_t, q_mod.dims[a.source]
            )
            mats.append(m)
        z = modrep.Module(algebra, dims, tuple(mats))
        if not any(is_isomorphic(z, r) for r in reps):
            reps.append(z)
    return reps


def extension_parts(cat):
    """Per ordered pair (sub, quot): every extension middle, decomposed."""
    out = {}
    for ui, u in enumerate(cat.ind):
        for qi, q in enumerate(cat.ind):
            mids = set()
            for e in extensions_by_cocycles(q, u):
                mids.add(decompose_indices(cat, e))
            out[(ui, qi)] = frozenset(mids)
    return out


def tors_masks_by_filtering(cat):
    """All torsion classes, found by testing every subset definitionally."""
    n = len(cat.ind)
    quots = quotient_parts(cat)
    exts = extension_parts(cat)
    found = set()
    for bits in range(1 << n):
        mask = frozenset(i for i in range(n) if bits >> i & 1)
        ok = all(set(dec) <= mask for i in mask for dec in quots[i]) and all(
            set(dec) <= mask for u in mask for q in mask for dec in exts[(u, q)]
        )
        if ok:
            found.add(mask)
    return found


def torf_masks_by_filtering(cat):
    n = len(cat.ind)
    subs = sub_parts(cat)
    exts = extension_parts(cat)
    found = set()
    for bits in range(1 << n):
        mask = frozenset(i for i in range(n) if bits >> i & 1)
        ok = all(set(dec) <= mask for i in mask for dec in subs[i]) and all(
            set(dec) <= mask for u in mask for q in mask for dec in exts[(u, q)]
        )
        if ok:
            found.add(mask)
    return found


def submodule_sum_torsion_part(cat, module, t_mask):
    """Largest submodule with all parts in the mask, found by direct scan.

    Enumerates every submodule, keeps those whose decomposition lies in the
    mask, and sums them inside the ambient module.
    """
    p = module.algebra.prime
    best_rows = [_zeros(0, d) for d in module.dims]
    for sub, incl in modrep.submodules(module, cat.config):
        if not set(decompose_indices(cat, sub)) <= t_mask:
            continue
        best_rows = [
            np.vstack([best, comp.T]) for best, comp in zip(best_rows, arrays(incl))
        ]
    dims = []
    rows = []
    for v, stacked in enumerate(best_rows):
        ech, piv = rref(stacked, p)
        rows.append(ech[: len(piv)])
        dims.append(len(piv))
    return tuple(dims), rows


def hasse_covers(nodes):
    """Covering pairs (larger, smaller) of a family of masks, by subset scan.

    A pair is a cover when no third node lies strictly between; O(N^3) over
    the whole family, sorted by (larger, smaller) index.
    """
    n = len(nodes)
    pairs = []
    for t in range(n):
        below = [u for u in range(n) if nodes[u] < nodes[t]]
        for u in below:
            if not any(nodes[u] < nodes[z] for z in below if z != u):
                pairs.append((t, u))
    return pairs


def _label(cat, within, top_mask, bottom_mask, bottom_perp):
    """The brick label of a covering pair, with the checks of the walk."""
    gap = bottom_perp & top_mask
    bricks = [s for s in sorted(gap) if cat.bricks[s]]
    if not bricks:
        raise LabelNotBrick(
            f"no brick between {cat.mask_name(bottom_mask)}"
            f" and {cat.mask_name(top_mask)}"
        )
    if len(bricks) > 1:
        raise LabelNotUnique(
            f"{len(bricks)} bricks between {cat.mask_name(bottom_mask)}"
            f" and {cat.mask_name(top_mask)}"
        )
    s = bricks[0]
    if to_set(subcat.filt(cat, 1 << s)) != gap:
        raise LabelNotBrick(
            f"brick {cat.names[s]} does not generate the gap over"
            f" {cat.mask_name(bottom_mask)}"
        )
    return s


def cover_walk(cat, side="tors", within=None):
    """The independent up-walk from zero: the upper covers of T are the
    inclusion-minimal candidates gen(T + x), one per x of the orthogonal of
    T, each subcat.filt of subcat.fac (sub_cl) cut down to the ambient by
    hand, with no filter on x and no node budget.  The orthogonal is the
    hom_dim reference, perp_right (perp_left) below.  lattice.build_lattice
    walks down by perpendiculars instead; the two must give the same
    lattice."""
    lib_close = subcat.fac if side == "tors" else subcat.sub_cl
    ref_perp = perp_right if side == "tors" else perp_left
    amb = cat.full_mask if within is None else to_bits(within)

    def gen(mask):
        closed = lib_close(cat, subcat.bits(mask)) & amb
        return to_set(subcat.filt(cat, closed))

    seen = {frozenset()}
    queue = [frozenset()]
    covers = []
    while queue:
        bottom = queue.pop()
        bottom_perp = ref_perp(cat, bottom, within)
        cands = {gen(bottom | {x}) for x in bottom_perp}
        for top in cands:
            if not any(c < top for c in cands):
                covers.append((top, bottom, _label(cat, within, top, bottom, bottom_perp)))
                if top not in seen:
                    seen.add(top)
                    queue.append(top)
    nodes = tuple(sorted(seen, key=lambda m: (len(m), sorted(m))))
    index = {m: i for i, m in enumerate(nodes)}
    arrows = sorted(
        (lattice.HasseArrow(index[t], index[b], s) for t, b, s in covers),
        key=lambda a: (a.src, a.dst),
    )
    node_bits = [subcat.bits(m) for m in nodes]
    return lattice.TorsLattice(cat, side, amb, node_bits, tuple(arrows))


def to_bits(mask):
    """A mask as a library mask; None stays None."""
    return None if mask is None else subcat.bits(mask)


def to_set(b):
    """A library mask as a mask; None stays None."""
    return None if b is None else frozenset(subcat.indices(b))


def node_sets(lat):
    """The lattice's node masks as masks, in node order."""
    return tuple(map(to_set, lat.node_bits))


def node_of(lat, mask):
    """The node whose mask is the mask, or None."""
    return lat.bits_index.get(to_bits(mask))


# Element-by-element subcategory operators over the raw tables (hom_dim and
# the subfactor tuples): the reference for the set-algebra versions in
# subcat, which read the catalog's derived rows instead.


def _ambient(cat, within):
    return frozenset(range(len(cat.ind))) if within is None else within


def perp_right(cat, members, within=None):
    return frozenset(
        j
        for j in _ambient(cat, within)
        if all(cat.hom_dim[i][j] == 0 for i in members)
    )


def perp_left(cat, members, within=None):
    return frozenset(
        j
        for j in _ambient(cat, within)
        if all(cat.hom_dim[j][i] == 0 for i in members)
    )


def fac(cat, members, within=None):
    out = set(members)
    for i in members:
        for u, q in cat.subfactors[i]:
            if within is None or all(k in within for k in u):
                out.update(q)
    return frozenset(out)


def sub_cl(cat, members, within=None):
    out = set(members)
    for i in members:
        for u, q in cat.subfactors[i]:
            if within is None or all(k in within for k in u):
                out.update(u)
    return frozenset(out)


def filt(cat, members, within=None):
    cur = set(members)
    outside = [j for j in sorted(_ambient(cat, within)) if j not in cur]
    changed = True
    while changed:
        changed = False
        remaining = []
        for j in outside:
            if any(
                u and q and all(k in cur for k in u) and all(k in cur for k in q)
                for u, q in cat.subfactors[j]
            ):
                cur.add(j)
                changed = True
            else:
                remaining.append(j)
        outside = remaining
    return frozenset(cur)


def star(cat, left, right):
    return frozenset(
        j
        for j in range(len(cat.ind))
        if any(
            all(k in left for k in u) and all(k in right for k in q)
            for u, q in cat.subfactors[j]
        )
    )


def candidate_simples(cat, members):
    return frozenset(
        i
        for i in members
        if not any(
            u and q and all(k in members for k in u) for u, q in cat.subfactors[i]
        )
    )


def is_torsion_free_class(cat, members, within=None):
    """Closed under subobjects and extensions, by the library's own operators:
    the tests compare it with torf_masks_by_filtering, so it checks sub_cl and
    filt rather than standing in for them."""
    b = subcat.bits(members)
    amb = cat.full_mask if within is None else to_bits(within)
    return subcat.sub_cl(cat, b) & amb == b and subcat.filt(cat, b) == b


def is_torsion_class(cat, members, within=None):
    """Closed under quotients and extensions, by the library's fac and filt."""
    b = subcat.bits(members)
    amb = cat.full_mask if within is None else to_bits(within)
    return subcat.fac(cat, b) & amb == b and subcat.filt(cat, b) == b


def canonical_sequence(cat, module, t_mask):
    """Split a module along a torsion class: (torsion part, torsion-free part).

    The torsion part is the sum of the images of all maps from members of the
    class; the quotient receives no nonzero map from the class.
    """
    if not is_torsion_class(cat, t_mask):
        raise ValueError("canonical_sequence needs a torsion class")
    algebra = module.algebra
    p = algebra.prime
    nv = algebra.quiver.vertex_count
    cols = [[] for _ in range(nv)]
    for i in sorted(t_mask):
        for f in modrep.hom_basis(cat.ind[i], module):
            for v, comp in enumerate(arrays(f)):
                cols[v].append(comp)
    bases = []
    for v in range(nv):
        if cols[v]:
            bases.append(to_rows(column_space(np.concatenate(cols[v], axis=1), p)))
        else:
            bases.append(((),) * module.dims[v])
    # a sum of images is a submodule, so restrict finds every arrow map
    tpart, inclusion = modrep.restrict(module, bases)
    fpart, _ = modrep.quotient_by(inclusion)
    return tpart, fpart


def interval_nodes_by_subsets(nodes, iv):
    """The nodes of an interval by a subset test against every node of the
    node masks ``nodes``."""
    b, t = nodes[iv.bottom], nodes[iv.top]
    return [i for i, m in enumerate(nodes) if b <= m <= t]


# Node sets as frozensets of node indices, read off the node masks ``nodes``
# (``node_sets``): the reference for the node-bitset versions in lattice.


def upper_set(lat, nodes, iv):
    """The top of the interval and the nodes it covers that hold the bottom."""
    u = nodes[iv.bottom]
    return frozenset(
        [iv.top] + [a.dst for a in lat.out_of[iv.top] if u <= nodes[a.dst]]
    )


def lower_set(lat, nodes, iv):
    """The bottom of the interval and the nodes covering it inside the top."""
    t = nodes[iv.top]
    return frozenset(
        [iv.bottom] + [a.src for a in lat.into[iv.bottom] if nodes[a.src] <= t]
    )


def labels_of(lat, node_ids):
    """The labels of the arrows with both endpoints among the nodes."""
    return frozenset(
        a.label for i in node_ids for a in lat.out_of[i] if a.dst in node_ids
    )


def join(lat, nodes, node_ids):
    """The node that is gen of the union of the nodes' masks inside the
    ambient (filt after fac, after sub_cl on the torsion-free side), or None
    when it is no node."""
    cat, within = lat.cat, to_set(lat.ambient)
    close = fac if lat.side == "tors" else sub_cl
    union = frozenset().union(*(nodes[i] for i in node_ids))
    return node_of(lat, filt(cat, close(cat, union, within), within))


# Wide intervals on masks: the interval verdicts and the reduction maps on
# frozensets, the reference for the node-bitset versions in lattice and
# widelab.


def is_wide(cat, members):
    """Candidate simples that form a semibrick and filter back to the mask."""
    s = candidate_simples(cat, members)
    semibrick = all(
        cat.bricks[i] and all(i == j or cat.hom_dim[i][j] == 0 for j in s) for i in s
    )
    return semibrick and filt(cat, s) == members


def meet(lat, node_ids):
    """The node that is the intersection of the nodes' masks (the ambient
    for no node), or None when it is no node."""
    met = to_set(lat.ambient).intersection(
        *(to_set(lat.node_bits[i]) for i in node_ids)
    )
    return node_of(lat, met)


def intervals_by_subsets(lat):
    """(bottom, top) of every pair of nested node masks, by top, then bottom."""
    nodes = node_sets(lat)
    n = range(len(nodes))
    return [(b, t) for t in n for b in n if nodes[b] <= nodes[t]]


def is_wide_interval(lat, nodes, iv):
    """(gap, direct, join, meet) of an interval, read off the node masks.

    The gap is perp_right(U) & T (perp_left(U) & T on the torsion-free
    side) inside the lattice's ambient; direct is is_wide of the gap; join
    says gen of U and its covers inside [U, T] is T, and meet that the
    intersection of T and the nodes it covers inside [U, T] is U.
    """
    cat, within = lat.cat, to_set(lat.ambient)
    u, t = nodes[iv.bottom], nodes[iv.top]
    tors = lat.side == "tors"
    gap = (perp_right if tors else perp_left)(cat, u, within) & t
    return (
        gap,
        is_wide(cat, gap),
        join(lat, nodes, lower_set(lat, nodes, iv)) == iv.top,
        meet(lat, upper_set(lat, nodes, iv)) == iv.bottom,
    )


def reduction_maps(lat, nodes, iv, wlat):
    """(phi, psi) of a wide interval of the torsion side onto the gap
    lattice wlat: phi sends each node v of the interval to the node of
    wlat whose mask is gap & v, and psi inverts it."""
    gap = is_wide_interval(lat, nodes, iv)[0]
    u, t = nodes[iv.bottom], nodes[iv.top]
    phi = {v: node_of(wlat, gap & m) for v, m in enumerate(nodes) if u <= m <= t}
    return phi, {x: v for v, x in phi.items()}


def down_set_lattice(root, w):
    """The torsion lattice of w read off ``root``, a lattice of the torsion
    side in which w, a library mask, is Serre: the down-set of w's node,
    renumbered in ascending order, which keeps the walk's node order, with
    the arrows out of its nodes in the walk's (src, dst) order.  The Serre
    restriction reference (proof at ``widelab.tors_of_wide``) that the
    reduction's reading of a gap lattice inside its root stands on."""
    hit = root.bits_index.get(w)
    if hit is None:
        raise TheoremViolation(
            f"{root.cat.mask_name(w)} is not a torsion class of"
            f" {root.cat.mask_name(root.ambient)}"
        )
    keep = subcat.indices(root.down_sets[hit])
    new = {i: n for n, i in enumerate(keep)}
    arrows = tuple(
        lattice.HasseArrow(n, new[a.dst], a.label)
        for n, i in enumerate(keep)
        for a in root.out_of[i]
    )
    nb = root.node_bits
    return lattice.TorsLattice(root.cat, "tors", w, [nb[i] for i in keep], arrows)


def covers_by_pairs(lat, t):
    """The covers reading of widely generated at node t, by a scan of every
    node: each node whose mask lies strictly in t's lies in the mask of one
    of t's lower covers."""
    nb = lat.node_bits
    t_mask = nb[t]
    return all(
        any(u & nb[a.dst] == u for a in lat.out_of[t])
        for u in nb
        if u != t_mask and u & t_mask == u
    )


# The Tamari lattice: for linear A_n (1 -> ... -> n) the torsion classes are
# the inversion sets of the 231-avoiding permutations of {0, ..., n}, and the
# torsion-free classes those of the 312-avoiding ones, an inversion at
# positions a < b standing for the interval module on vertices a+1 ... b
# (Bjorner-Wachs 1997; Reading, "Cambrian lattices", Adv. Math. 2006;
# Ingalls-Thomas, arXiv:math/0612219).  No module arithmetic: only the
# dimension vectors of the catalog are read.


def avoiding_231(values):
    """The permutations of the ascending tuple values that avoid 231, as
    tuples.  In such a permutation every value left of the largest is below
    every value right of it, and both sides avoid 231."""
    if not values:
        yield ()
        return
    *rest, top = values
    for k in range(len(rest) + 1):
        for left in avoiding_231(rest[:k]):
            for right in avoiding_231(rest[k:]):
                yield left + (top,) + right


def avoiding_312(values):
    """The permutations of the ascending tuple values that avoid 312, as
    tuples.  In such a permutation every value left of the smallest is below
    every value right of it, and both sides avoid 312."""
    if not values:
        yield ()
        return
    low, *rest = values
    for k in range(len(rest) + 1):
        for left in avoiding_312(rest[:k]):
            for right in avoiding_312(rest[k:]):
                yield left + (low,) + right


def inversion_mask(cat, w):
    """The inversions of w as a library mask over a linear A_n catalog,
    n = len(w) - 1: positions a < b with w[a] > w[b] give the interval
    module on vertices a+1 ... b, found by its dimension vector."""
    n = len(w) - 1
    by_dims = {m.dims: x for x, m in enumerate(cat.ind)}
    out = 0
    for a, b in itertools.combinations(range(n + 1), 2):
        if w[a] > w[b]:
            out |= 1 << by_dims[tuple(int(a <= v < b) for v in range(n))]
    return out


def euler_form(quiver, x, y):
    """<x, y> = sum_v x_v y_v - sum over arrows s -> t of x_s y_t, for
    dimension vectors x and y.  Over a hereditary algebra it is dim Hom(X, Y)
    - dim Ext^1(X, Y) (Ringel, LNM 1099)."""
    return sum(a * b for a, b in zip(x, y)) - sum(
        x[a.source] * y[a.target] for a in quiver.arrows
    )


def positive_roots(quiver):
    """The positive roots of a Dynkin quiver, sorted, by simple reflections.

    s_i(x) = x - (x, e_i) e_i for the symmetric form (x, y) = 2 sum x_v y_v -
    sum over arrows u -> v of (x_u y_v + x_v y_u).  s_i maps a positive root
    other than e_i to a positive root, and every positive root that is not
    simple has an i with (x, e_i) > 0, whose reflection lowers its height; so
    the simple roots and their reflections reach every positive root.
    """
    n = quiver.vertex_count

    def pairing(x, i):
        out = 2 * x[i]
        for a in quiver.arrows:
            out -= x[a.target] * (a.source == i) + x[a.source] * (a.target == i)
        return out

    simples = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    roots = set(simples)
    todo = list(simples)
    while todo:
        x = todo.pop()
        for i in range(n):
            c = pairing(x, i)
            y = tuple(xv - c * (v == i) for v, xv in enumerate(x))
            if y != x and y not in roots and min(y) >= 0:
                roots.add(y)
                todo.append(y)
    return sorted(roots)


def nakayama_spec(n, length, prime):
    """The spec of N_n^length: the cyclic quiver 1 -> 2 -> ... -> n -> 1 with
    every path of `length` arrows zero."""
    names = [chr(ord("a") + k) for k in range(n)]
    lines = [f"vertices {n}"]
    lines += [f"arrow {names[k]} {k + 1} {(k + 1) % n + 1}" for k in range(n)]
    lines += [
        "relation " + " ".join(names[(k + s) % n] for s in range(length))
        for k in range(n)
    ]
    return "\n".join(lines + [f"prime {prime}"]) + "\n"


def uniserial_top(module):
    """The top vertex of a uniserial module M over a cyclic Nakayama algebra.

    M(i, l) has one basis vector at each of the vertices i, i + 1, ...,
    i + l - 1 (mod n), each arrow taking one to the next, so the path of
    l - 1 arrows from vertex j acts on M as zero unless j = i.
    """
    q = module.algebra.quiver
    out_arrow = {a.source: a.name for a in q.arrows}
    length = module.total_dim
    tops = []
    for j in range(q.vertex_count):
        path, v = [], j
        for _ in range(length - 1):
            path.append(out_arrow[v])
            v = (v + 1) % q.vertex_count
        acts = any(map(any, module.path_matrix(path, module.dims[j])))
        if acts:
            tops.append(j)
    assert len(tops) == 1, tops
    return tops[0]


def linear_a_spec(n, prime):
    """The spec of linear A_n: the path quiver 1 -> 2 -> ... -> n, no relations."""
    lines = [f"vertices {n}"]
    lines += [f"arrow a{k} {k} {k + 1}" for k in range(1, n)]
    return "\n".join(lines + [f"prime {prime}"]) + "\n"


def linear_a_interval(module):
    """The support [a, b] of an interval module of a linear A_n quiver.

    Positions 1 ... n number the vertices along the arrows, from the one
    vertex no arrow enters.  The module must be one-dimensional on each
    vertex of a run of positions and zero elsewhere.
    """
    q = module.algebra.quiver
    step = {a.source: a.target for a in q.arrows}
    (v,) = set(range(q.vertex_count)) - set(step.values())
    position = {v: 1}
    while v in step:
        v = step[v]
        position[v] = len(position) + 1
    support = sorted(position[v] for v, d in enumerate(module.dims) if d)
    assert max(module.dims) == 1, module.dims
    assert support == list(range(support[0], support[-1] + 1)), module.dims
    return support[0], support[-1]
