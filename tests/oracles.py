"""Brute-force reference computations, independent of the closure tables.

Everything here goes back to raw module arithmetic: quotients are taken by
actually enumerating submodules, extension middles by enumerating cocycles,
Hom dimensions by scanning every componentwise matrix tuple, isomorphism by
searching every ray of the Hom space for an invertible morphism.  The main
library is only trusted for module construction, Hom bases and the
classification of summands.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from torslat import lattice, linalg, modrep, subcat
from torslat.errors import LabelNotBrick, LabelNotUnique

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


def brute_hom_dim(x, y):
    """Count intertwiners by scanning all componentwise matrix tuples."""
    p = x.algebra.prime
    shapes = [(y.dims[v], x.dims[v]) for v in range(len(x.dims))]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    assert p**total <= 1 << 20, "pair too large for the brute force"
    count = 0
    for flat in itertools.product(range(p), repeat=total):
        comps = []
        at = 0
        for r, c in shapes:
            comps.append(np.array(flat[at : at + r * c], dtype=np.int64).reshape(r, c))
            at += r * c
        ok = all(
            np.array_equal(
                linalg.matmul(comps[a.target], x.mats[k], p),
                linalg.matmul(y.mats[k], comps[a.source], p),
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
    rows = []
    for ai, a in enumerate(q.arrows):
        u, v = a.source, a.target
        nrows = y.dims[v] * x.dims[u]
        if nrows == 0:
            continue
        block = linalg.zeros(nrows, ncols)
        if sizes[u]:
            block[:, offsets[u] : offsets[u + 1]] = (
                np.kron(y.mats[ai], linalg.eye(x.dims[u])) % p
            )
        if sizes[v]:
            block[:, offsets[v] : offsets[v + 1]] = (
                block[:, offsets[v] : offsets[v + 1]]
                - np.kron(linalg.eye(y.dims[v]), x.mats[ai].T)
            ) % p
        rows.append(block)
    if rows:
        return np.concatenate(rows, axis=0), offsets
    return linalg.zeros(0, ncols), offsets


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

    The reference for modrep.kernel, modrep.image and modrep.quotient_by:
    one solve loop per submodule, the cokernel maps read off the complement
    projection of the image, and the image projection x -> image solved
    per vertex.  Per vertex, dim kernel + dim image equals the source
    dimension, and the cokernel dimension is the target dimension minus the
    image dimension.
    """
    x, y = f.source, f.target
    algebra = x.algebra
    p = algebra.prime
    q = algebra.quiver
    nv = q.vertex_count

    kbases = [linalg.nullspace(f.comps[v], p) for v in range(nv)]
    ibases = [linalg.column_space(f.comps[v], p) for v in range(nv)]
    projs, sects = zip(*(linalg.complement_projection(ibases[v], p) for v in range(nv)))

    for v in range(nv):
        assert kbases[v].shape[1] + ibases[v].shape[1] == x.dims[v]

    kdims = tuple(b.shape[1] for b in kbases)
    idims = tuple(b.shape[1] for b in ibases)
    cdims = tuple(y.dims[v] - idims[v] for v in range(nv))

    kmats, imats, cmats = [], [], []
    for ai, a in enumerate(q.arrows):
        u, v = a.source, a.target
        km = linalg.solve(kbases[v], linalg.matmul(x.mats[ai], kbases[u], p), p)
        assert km is not None, "kernel is not arrow-stable"
        kmats.append(km)
        im = linalg.solve(ibases[v], linalg.matmul(y.mats[ai], ibases[u], p), p)
        assert im is not None, "image is not arrow-stable"
        imats.append(im)
        cm = linalg.matmul(projs[v], linalg.matmul(y.mats[ai], sects[u], p), p)
        cmats.append(cm)

    kernel = modrep.Module(algebra, kdims, tuple(kmats), check=False)
    image = modrep.Module(algebra, idims, tuple(imats), check=False)
    cokernel = modrep.Module(algebra, cdims, tuple(cmats), check=False)

    k_in = modrep.Morphism(kernel, x, tuple(kbases), check=False)
    i_in = modrep.Morphism(image, y, tuple(ibases), check=False)
    iproj_comps = []
    for v in range(nv):
        c = linalg.solve(ibases[v], f.comps[v], p)
        assert c is not None
        iproj_comps.append(c)
    i_pr = modrep.Morphism(x, image, tuple(iproj_comps), check=False)
    c_pr = modrep.Morphism(y, cokernel, tuple(projs), check=False)
    return KernelImageCokernel(kernel, k_in, image, i_in, i_pr, cokernel, c_pr)


def is_isomorphic(x, y):
    """Exhaustive search for an invertible morphism x -> y, one candidate per ray.

    Needs no indecomposability, unlike modrep.is_isomorphic_indecomposable.
    """
    if x.dims != y.dims:
        return False
    return x.is_zero or any(f.is_invertible for f in modrep.hom_rays(x, y))


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
        m = linalg.zeros(dims[a.target], dims[a.source])
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
            parts.add(cat.decompose_indices(q))
        out.append(frozenset(parts))
    return out


def sub_parts(cat):
    out = []
    for x in cat.ind:
        parts = set()
        for sub, _ in modrep.submodules(x, cat.config):
            parts.add(cat.decompose_indices(sub))
        out.append(frozenset(parts))
    return out


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

    rows = []
    for rel in algebra.relations:
        steps = [qv.arrow(n) for n in rel]
        nrows = u_mod.dims[steps[-1].target] * q_mod.dims[steps[0].source]
        if nrows == 0:
            continue
        block = linalg.zeros(nrows, ncols)
        for i, a in enumerate(steps):
            ai = idx[a.name]
            if arrow_sizes[ai] == 0:
                continue
            suffix = linalg.eye(u_mod.dims[a.target])
            for b in steps[i + 1 :]:
                suffix = linalg.matmul(u_mod.mats[idx[b.name]], suffix, p)
            prefix = linalg.eye(q_mod.dims[a.source])
            for b in reversed(steps[:i]):
                prefix = linalg.matmul(prefix, q_mod.mats[idx[b.name]], p)
            block[:, offsets[ai] : offsets[ai + 1]] += np.kron(suffix, prefix.T)
        rows.append(block % p)
    system = np.concatenate(rows, axis=0) if rows else linalg.zeros(0, ncols)
    null = linalg.nullspace(system, p)
    s = null.shape[1]
    assert p**s <= 1 << 16, "cocycle space too large for the brute force"

    dims = tuple(u + q for u, q in zip(u_mod.dims, q_mod.dims))
    reps = []
    for coeffs in itertools.product(range(p), repeat=s):
        vec = (null @ np.array(coeffs, dtype=np.int64)) % p
        mats = []
        for ai, a in enumerate(qv.arrows):
            m = linalg.zeros(dims[a.target], dims[a.source])
            ud_t, ud_s = u_mod.dims[a.target], u_mod.dims[a.source]
            m[:ud_t, :ud_s] = u_mod.mats[ai]
            m[ud_t:, ud_s:] = q_mod.mats[ai]
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
                mids.add(cat.decompose_indices(e))
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
    best_rows = [linalg.zeros(0, d) for d in module.dims]
    for sub, incl in modrep.submodules(module, cat.config):
        if not set(cat.decompose_indices(sub)) <= t_mask:
            continue
        best_rows = [
            np.vstack([best_rows[v], incl.comps[v].T % p])
            for v in range(len(module.dims))
        ]
    dims = []
    rows = []
    for v, stacked in enumerate(best_rows):
        ech, piv = linalg.rref(stacked, p)
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
    if subcat.filt(cat, frozenset((s,))) != gap:
        raise LabelNotBrick(
            f"brick {cat.names[s]} does not generate the gap over"
            f" {cat.mask_name(bottom_mask)}"
        )
    return s


def cover_walk(cat, side="tors", within=None):
    """The cover walk of lattice.build_lattice with every x of the orthogonal
    of T as a candidate gen(T + x), not only the quotient-minimal ones (the
    submodule-minimal ones on the torsion-free side); no node budget."""
    gen = subcat.tors_gen if side == "tors" else subcat.torf_gen
    perp = subcat.perp_right if side == "tors" else subcat.perp_left
    seen = {frozenset()}
    queue = [frozenset()]
    covers = []
    while queue:
        bottom = queue.pop()
        bottom_perp = perp(cat, bottom, within)
        cands = {gen(cat, bottom | {x}, within) for x in bottom_perp}
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
    return lattice.TorsLattice(cat, side, within, nodes, tuple(arrows))


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
    return (
        subcat.sub_cl(cat, members, within) == members
        and subcat.filt(cat, members) == members
    )


def is_torsion_class(cat, members, within=None):
    """Closed under quotients and extensions, by the library's fac and filt."""
    return (
        subcat.fac(cat, members, within) == members
        and subcat.filt(cat, members) == members
    )


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
            for v in range(nv):
                cols[v].append(f.comps[v])
    bases = []
    for v in range(nv):
        if cols[v]:
            stacked = linalg.normalize(np.concatenate(cols[v], axis=1), p)
            bases.append(linalg.column_space(stacked, p))
        else:
            bases.append(linalg.zeros(module.dims[v], 0))
    # a sum of images is a submodule, so restrict finds every arrow map
    tpart, inclusion = modrep.restrict(module, bases)
    fpart, _ = modrep.quotient_by(inclusion)
    return tpart, fpart


def interval_nodes_by_subsets(lat, iv):
    """The nodes of an interval by a subset test against every node."""
    b, t = lat.nodes[iv.bottom], lat.nodes[iv.top]
    return [i for i, m in enumerate(lat.nodes) if b <= m <= t]
