"""Finite-dimensional modules over a monomial path algebra, and their morphisms.

A Module stores one dimension per vertex and one matrix per arrow (dims[target]
x dims[source], in the ``linalg`` format: a tuple of row tuples of ints in
[0, p)).  A Morphism stores one such matrix per vertex intertwining the arrow
actions.  All computations are exact over F_p and deterministic.

Both constructors validate with check=True, the path for input from outside
the library: dims and entries are normalised (int, entries mod p), then
shapes, relations and intertwining are checked.  With check=False they store
internal results as given; every producer here reduces mod p.

Every submodule (a kernel, an image, each of the ``submodules`` scan) is
built by ``restrict`` from per-vertex column bases, and every cokernel by
``quotient_by`` from an inclusion.
"""

import itertools
from operator import mul
from typing import NamedTuple

from . import linalg
from .config import DEFAULT_CONFIG
from .errors import DecomposeBlowup, SubspaceBlowup


def _normalized(mats, p):
    return tuple(tuple(tuple(int(x) % p for x in row) for row in m) for m in mats)


def _has_shape(m, rows, cols):
    return len(m) == rows and all(len(row) == cols for row in m)


def _block(vec, start, rows, cols):
    """The rows x cols matrix stored row-major in vec from index start."""
    return tuple(
        tuple(vec[start + r * cols : start + (r + 1) * cols]) for r in range(rows)
    )


class Module:
    def __init__(self, algebra, dims, mats, check=True):
        self.algebra = algebra
        if check:
            self.dims = tuple(int(d) for d in dims)
            self.mats = _normalized(mats, algebra.prime)
            self._validate()
        else:
            self.dims = dims
            self.mats = mats

    def _validate(self):
        q = self.algebra.quiver
        if len(self.dims) != q.vertex_count or any(d < 0 for d in self.dims):
            raise ValueError("dimension vector does not match the quiver")
        if len(self.mats) != len(q.arrows):
            raise ValueError("need one matrix per arrow")
        for a, m in zip(q.arrows, self.mats):
            rows, cols = self.dims[a.target], self.dims[a.source]
            if not _has_shape(m, rows, cols):
                raise ValueError(f"matrix for arrow {a.name!r} is not {rows} x {cols}")
        for rel in self.algebra.relations:
            start = self.dims[q.arrow(rel[0]).source]
            if any(map(any, self.path_matrix(rel, start))):
                raise ValueError(f"relation {rel!r} does not annihilate the module")

    def path_matrix(self, names, n):
        """The composite matrix of a path from a vertex of dimension n.

        The first arrow is applied first; the empty path gives the n x n
        identity.
        """
        p = self.algebra.prime
        idx = self.algebra.arrow_index
        m = linalg.identity(n)
        for name in names:
            m = linalg.matmul(self.mats[idx[name]], m, n, p)
        return m

    @property
    def total_dim(self):
        return sum(self.dims)

    @property
    def is_zero(self):
        return self.total_dim == 0

    def key(self):
        """Identity on the nose: (dims, mats); equal keys mean equal modules.

        For equal dims the mats compare as their entry sequences.  With every
        entry below 256 that is also the order of the entries' little-endian
        int64 bytes, so the catalog, which sorts members of equal dims by
        key()[1], orders them as a byte key would.
        """
        return (self.dims, self.mats)

    def __repr__(self):
        return f"Module(dims={self.dims})"


def zero_module(algebra):
    q = algebra.quiver
    return Module(algebra, (0,) * q.vertex_count, ((),) * len(q.arrows), check=False)


def direct_sum(*modules):
    """Block-diagonal sum, summand coordinates in argument order."""
    algebra = modules[0].algebra
    dims = tuple(sum(m.dims[v] for m in modules) for v in range(algebra.quiver.vertex_count))
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        rows = []
        c = 0
        for mod in modules:
            cc = mod.dims[a.source]
            left, right = (0,) * c, (0,) * (dims[a.source] - c - cc)
            rows.extend(left + row + right for row in mod.mats[ai])
            c += cc
        mats.append(tuple(rows))
    return Module(algebra, dims, tuple(mats), check=False)


class Morphism:
    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        if check:
            self.comps = _normalized(comps, source.algebra.prime)
            self._validate()
        else:
            self.comps = comps

    def _validate(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("source and target live over different algebras")
        q = self.source.algebra.quiver
        p = self.source.algebra.prime
        for v in range(q.vertex_count):
            rows, cols = self.target.dims[v], self.source.dims[v]
            if not _has_shape(self.comps[v], rows, cols):
                raise ValueError(f"component at vertex {v} is not {rows} x {cols}")
        for ai, a in enumerate(q.arrows):
            n = self.source.dims[a.source]
            lhs = linalg.matmul(self.target.mats[ai], self.comps[a.source], n, p)
            rhs = linalg.matmul(self.comps[a.target], self.source.mats[ai], n, p)
            if lhs != rhs:
                raise ValueError(f"components do not intertwine arrow {a.name!r}")

    @property
    def is_invertible(self):
        p = self.source.algebra.prime
        return all(
            linalg.is_invertible(c, d, p) for c, d in zip(self.comps, self.source.dims)
        )

    def compose(self, other):
        """self after other."""
        p = self.source.algebra.prime
        comps = tuple(
            linalg.matmul(s, o, d, p)
            for s, o, d in zip(self.comps, other.comps, other.source.dims)
        )
        return Morphism(other.source, self.target, comps, check=False)

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def _intertwining_system(x, y):
    """The linear map f -> (Y_a f_u - f_v X_a)_a as int rows, one block per arrow a: u -> v.

    Columns are the entries of the per-vertex components f_v: x_v -> y_v in
    row-major order, vertex by vertex; the rows of arrow a are the entries of
    a y_v x x_u matrix in row-major order, arrow by arrow.  Row (r, j) holds
    Y_a[r, i] on the column of f_u[i, j] and -X_a[c, j] on that of f_v[r, c],
    added when u = v; entries are ints, read mod p.  Its kernel is Hom(x, y);
    its image is the coboundary space B^1 inside the cocycles Z^1 of
    Ext^1(x, y).  Returns the rows, lists of offsets[-1] ints, and the column
    offset of each vertex.
    """
    q = x.algebra.quiver
    offsets = [0]
    for v in range(q.vertex_count):
        offsets.append(offsets[-1] + y.dims[v] * x.dims[v])
    ncols = offsets[-1]
    rows = []
    for ai, a in enumerate(q.arrows):
        u, v = a.source, a.target
        xu, xv = x.dims[u], x.dims[v]
        if not (y.dims[v] and xu):
            continue
        ou = offsets[u]
        x_cols = linalg.transpose(x.mats[ai], xu)
        for r, y_row in enumerate(y.mats[ai]):
            ov = offsets[v] + r * xv
            for j in range(xu):
                row = [0] * ncols
                for i, e in enumerate(y_row):
                    row[ou + i * xu + j] = e
                for c, e in enumerate(x_cols[j]):
                    row[ov + c] -= e
                rows.append(row)
    return rows, offsets


def hom_basis(x, y):
    """Deterministic basis of Hom(x, y), solved from the intertwining equations.

    Unknowns are the entries of the per-vertex components in row-major order;
    each arrow a: u -> v contributes the equation Y_a f_u = f_v X_a.
    """
    rows, offsets = _intertwining_system(x, y)
    _, basis = linalg.kernel_rows(rows, offsets[-1], x.algebra.prime)
    blocks = list(zip(offsets, y.dims, x.dims))
    return [
        Morphism(x, y, tuple(_block(vec, *b) for b in blocks), check=False)
        for vec in basis
    ]


def restrict(x, bases):
    """The submodule of x on per-vertex column bases, with its inclusion.

    bases[v] is a dims[v] x k_v matrix of independent columns, so k_v is the
    length of its first row, and 0 when dims[v] is.  Per arrow a: s -> t the
    submodule's map M solves bases[t] M = X_a bases[s]; None when some arrow
    has no solution, that is when the span is not arrow-stable.
    """
    algebra = x.algebra
    p = algebra.prime
    ks = tuple(len(b[0]) if b else 0 for b in bases)
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        s, t = a.source, a.target
        moved = linalg.matmul(x.mats[ai], bases[s], ks[s], p)
        sol = linalg.solve(bases[t], moved, ks[t], ks[s], p)
        if sol is None:
            return None
        mats.append(sol)
    sub = Module(algebra, ks, tuple(mats), check=False)
    return sub, Morphism(sub, x, tuple(bases), check=False)


def kernel(f):
    """Kernel of a morphism with its inclusion, on per-vertex nullspace bases."""
    p = f.source.algebra.prime
    bases = [linalg.nullspace(c, d, p) for c, d in zip(f.comps, f.source.dims)]
    return restrict(f.source, bases)


def image(f):
    """Image of a morphism with its inclusion, on per-vertex column-space bases.

    The cokernel of f is quotient_by of this inclusion.
    """
    p = f.source.algebra.prime
    bases = [linalg.column_space(c, d, p) for c, d in zip(f.comps, f.source.dims)]
    return restrict(f.target, bases)


def quotient_by(inclusion):
    """Cokernel of a submodule inclusion, with its projection.

    Per vertex the complement projection of the inclusion's columns, and per
    arrow a: s -> t the map proj_t X_a restricted to the free coordinates of
    s, on which proj_s is the identity.  complement_projection depends
    only on the column span, so any two inclusions of one submodule give the
    same quotient entry for entry.  This is the library's one cokernel
    constructor: the cokernel of a morphism f is the quotient by image(f).
    """
    x = inclusion.target
    algebra = x.algebra
    p = algebra.prime
    projs, frees = zip(
        *(linalg.complement_projection(c, p) for c in inclusion.comps)
    )
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        free = frees[a.source]
        cols = tuple(tuple(row[c] for c in free) for row in x.mats[ai])
        mats.append(linalg.matmul(projs[a.target], cols, len(free), p))
    dims = tuple(len(free) for free in frees)
    quotient = Module(algebra, dims, tuple(mats), check=False)
    return quotient, Morphism(x, quotient, projs, check=False)


def decompose(x, config=None):
    """Split x into indecomposable summands (empty list for the zero module).

    Strategy: a one-dimensional endomorphism ring proves indecomposability at
    once.  Otherwise high powers of the endomorphism basis elements are tried
    for a kernel/image splitting, and if none splits, the full endomorphism
    space is enumerated for a nontrivial idempotent; finding none proves
    indecomposability.  Raises DecomposeBlowup when that enumeration would
    pass the iso budget.
    """
    cfg = config or DEFAULT_CONFIG
    if x.is_zero:
        return []
    p = x.algebra.prime
    end = hom_basis(x, x)
    d = len(end)
    if d == 1:
        return [x]
    n = x.total_dim

    for f in end:
        g = f
        for _ in range(n - 1):
            g = g.compose(f)
        ker, _ = kernel(g)
        if 0 < ker.total_dim < n:
            return decompose(ker, cfg) + decompose(image(g)[0], cfg)

    if p ** d > cfg.iso_budget:
        raise DecomposeBlowup(
            f"endomorphism space has {p}^{d} elements,"
            f" budget {cfg.iso_budget} (--iso-budget)"
        )
    # per vertex, the d basis coefficients of each entry in row-major order
    entries = [
        tuple(zip(*(sum(f.comps[v], ()) for f in end))) for v in range(len(x.dims))
    ]
    ident = tuple(linalg.identity(dv) for dv in x.dims)
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        comps = tuple(
            _block([sum(map(mul, coeffs, e)) % p for e in es], 0, dv, dv)
            for es, dv in zip(entries, x.dims)
        )
        if comps == ident or any(
            linalg.matmul(c, c, dv, p) != c for c, dv in zip(comps, x.dims)
        ):
            continue
        e = Morphism(x, x, comps, check=False)
        ker, _ = kernel(e)
        assert 0 < ker.total_dim < n
        return decompose(ker, cfg) + decompose(image(e)[0], cfg)
    return [x]


def is_isomorphic_indecomposable(x, y):
    """Whether y is isomorphic to x, for an indecomposable x.

    End(x) is local, so if x and y are isomorphic the non-invertible
    morphisms x -> y form a proper subspace of Hom(x, y) and some element of
    any basis lies outside it.  One pass over hom_basis(x, y) decides, with
    no enumeration of the Hom space.  The answer can be wrong when x
    decomposes.
    """
    return x.dims == y.dims and any(f.is_invertible for f in hom_basis(x, y))


def submodules(x, config=None):
    """All arrow-stable subspace tuples, as (submodule, inclusion) pairs.

    Enumerates the product of the per-vertex subspace lists (canonical RREF
    order) and keeps the stable combinations; includes zero and x itself.
    Raises SubspaceBlowup when the product would pass the subspace budget.
    """
    cfg = config or DEFAULT_CONFIG
    p = x.algebra.prime
    total = 1
    for d in x.dims:
        total *= linalg.subspace_count(d, p)
    if total > cfg.subspace_budget:
        raise SubspaceBlowup(
            f"{total} subspace tuples to scan, budget {cfg.subspace_budget}"
            " (--subspace-budget)"
        )
    per_vertex = [linalg.all_subspace_column_bases(d, p) for d in x.dims]
    out = []
    for combo in itertools.product(*per_vertex):
        hit = restrict(x, combo)
        if hit is not None:
            out.append(hit)
    return out


class ExtScan(NamedTuple):
    """What ext_scan finds for a pair (q_mod, u_mod).

    hom_dim is the dimension of Hom(q_mod, u_mod); middles lists the middle
    terms of the non-split extensions of q_mod by u_mod, one per ray of
    Ext^1(q_mod, u_mod).
    """

    hom_dim: int
    middles: list


def ext_scan(q_mod, u_mod, config=None):
    """Middle terms Z of non-split exact sequences 0 -> u_mod -> Z -> q_mod -> 0,
    with the dimension of Hom(q_mod, u_mod): an ExtScan.

    Z is assembled block upper-triangularly, u_mod coordinates first, with
    an off-diagonal block c_a: q_s -> u_t per arrow a: s -> t, so the
    cochains C^1 are the tuples (c_a)_a.  The cocycles Z^1 are the blocks
    that satisfy the relations.  Cocycles that differ by a coboundary
    U_a h_s - h_t Q_a give isomorphic middle terms, and so do nonzero
    scalar multiples of one class, so one middle term is built per ray of a
    complement of B^1 in Z^1, that is per ray of Ext^1(q_mod, u_mod), in
    the order of linalg.ray_representatives.  The list is empty when Ext^1
    vanishes; the split middle term is not built.  Two rays may give
    isomorphic middle terms; nothing here removes them.  Raises
    SubspaceBlowup when Ext^1 has more than ext_budget elements.

    The coboundary map h -> (U_a h_s - h_t Q_a)_a from the cochains C^0 =
    (h_v: q_v -> u_v)_v to C^1 is the intertwining system of hom_basis, so
    its kernel is Hom(q_mod, u_mod) and hom_dim is dim C^0 minus its rank,
    read off the pivots of the row reduction that finds the Ext classes.
    The relations cut Z^1 out of C^1 and leave this map alone.

    When C^1 = 0, that is when no arrow a: s -> t has q_s u_t nonzero, the
    scan returns at once and builds no system.  Proof: both sides of each
    equation U_a f_s = f_t Q_a are u_t x q_s matrices, that is empty, so
    every tuple of vertex maps intertwines and hom_dim is dim C^0, the sum
    of the q_v u_v; and Z^1 lies in C^1 = 0, so Ext^1 vanishes, with or
    without relations, and the budget, which is at least 1 = p^0, cannot
    trip.
    """
    cfg = config or DEFAULT_CONFIG
    algebra = q_mod.algebra
    p = algebra.prime
    qv = algebra.quiver
    offsets = [0]
    for a in qv.arrows:
        offsets.append(offsets[-1] + u_mod.dims[a.target] * q_mod.dims[a.source])
    ncols = offsets[-1]
    if not ncols:
        return ExtScan(sum(map(mul, q_mod.dims, u_mod.dims)), [])

    rows = []
    idx = algebra.arrow_index
    for rel in algebra.relations:
        steps = [qv.arrow(name) for name in rel]
        n = q_mod.dims[steps[0].source]
        block = [[0] * ncols for _ in range(u_mod.dims[steps[-1].target] * n)]
        for i, a in enumerate(steps):
            # the relation's term through a is suffix c_a prefix: row (r, j)
            # holds suffix[r][k] prefix[l][j] on the column of c_a[k, l]
            suffix = u_mod.path_matrix(rel[i + 1 :], u_mod.dims[a.target])
            prefix = q_mod.path_matrix(rel[:i], n)
            at, qs = offsets[idx[a.name]], q_mod.dims[a.source]
            for r, srow in enumerate(suffix):
                for k, s in enumerate(srow):
                    if s:
                        for l, prow in enumerate(prefix):
                            for j, y in enumerate(prow):
                                block[r * n + j][at + k * qs + l] += s * y
        rows.extend(block)
    _, cocycles = linalg.kernel_rows(rows, ncols, p)
    # the coboundary map shares its row layout with the cocycle coordinates;
    # the cocycle columns that are pivots after it span a complement of B^1
    coboundaries, cob_offsets = _intertwining_system(q_mod, u_mod)
    nb = cob_offsets[-1]
    for i, row in enumerate(coboundaries):
        row.extend(z[i] for z in cocycles)
    pivots = linalg.reduce_rows(coboundaries, nb + len(cocycles), p)
    classes = [cocycles[c - nb] for c in pivots if c >= nb]
    e = len(classes)
    # the pivots below nb are the rank of the coboundary block
    hom_dim = nb - (len(pivots) - e)
    if p ** e > cfg.ext_budget:
        raise SubspaceBlowup(
            f"{p}^{e} Ext classes to scan, budget {cfg.ext_budget} (--ext-budget)"
        )

    dims = tuple(u + q for u, q in zip(u_mod.dims, q_mod.dims))
    out = []
    for coeffs in linalg.ray_representatives(e, p):
        vec = [sum(map(mul, coeffs, col)) % p for col in zip(*classes)]
        mats = []
        for ai, a in enumerate(qv.arrows):
            qs = q_mod.dims[a.source]
            cblock = _block(vec, offsets[ai], u_mod.dims[a.target], qs)
            mats.append(
                tuple(ur + cr for ur, cr in zip(u_mod.mats[ai], cblock))
                + tuple((0,) * u_mod.dims[a.source] + qr for qr in q_mod.mats[ai])
            )
        out.append(Module(algebra, dims, tuple(mats)))
    return ExtScan(hom_dim, out)
