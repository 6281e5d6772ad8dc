"""Finite-dimensional modules over a monomial path algebra, and their morphisms.

A Module stores one dimension per vertex and one matrix per arrow (shape
dims[target] x dims[source], entries in [0, p)).  A Morphism stores one matrix
per vertex intertwining the arrow actions.  All computations are exact over
F_p and deterministic.

Every submodule (a kernel, an image, each of the ``submodules`` scan) is
built by ``restrict`` from per-vertex column bases, and every cokernel by
``quotient_by`` from an inclusion.
"""

import itertools

import numpy as np

from . import linalg
from .config import DEFAULT_CONFIG
from .errors import DecomposeBlowup, SubspaceBlowup


class Module:
    def __init__(self, algebra, dims, mats, check=True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        self.mats = tuple(linalg.normalize(m, algebra.prime) for m in mats)
        if check:
            self._validate()

    def _validate(self):
        q = self.algebra.quiver
        if len(self.dims) != q.vertex_count or any(d < 0 for d in self.dims):
            raise ValueError("dimension vector does not match the quiver")
        if len(self.mats) != len(q.arrows):
            raise ValueError("need one matrix per arrow")
        for a, m in zip(q.arrows, self.mats):
            if m.shape != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"matrix for arrow {a.name!r} has shape {m.shape}")
        for rel in self.algebra.relations:
            if np.any(self.evaluate_path(rel)):
                raise ValueError(f"relation {rel!r} does not annihilate the module")

    def evaluate_path(self, names):
        """The composite matrix of a path, first arrow applied first."""
        q = self.algebra.quiver
        idx = self.algebra.arrow_index
        m = self.mats[idx[names[0]]]
        for name in names[1:]:
            m = linalg.matmul(self.mats[idx[name]], m, self.algebra.prime)
        return m

    @property
    def total_dim(self):
        return sum(self.dims)

    @property
    def is_zero(self):
        return self.total_dim == 0

    def key(self):
        """Canonical bytes identity; equal keys mean equal modules on the nose."""
        return (self.dims, b"".join(m.tobytes() for m in self.mats))

    def __repr__(self):
        return f"Module(dims={self.dims})"


def zero_module(algebra):
    nv = algebra.quiver.vertex_count
    dims = (0,) * nv
    mats = tuple(linalg.zeros(0, 0) for _ in algebra.quiver.arrows)
    return Module(algebra, dims, mats, check=False)


def direct_sum(*modules):
    """Block-diagonal sum, summand coordinates in argument order."""
    algebra = modules[0].algebra
    dims = tuple(sum(m.dims[v] for m in modules) for v in range(algebra.quiver.vertex_count))
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        m = linalg.zeros(dims[a.target], dims[a.source])
        r = c = 0
        for mod in modules:
            rr, cc = mod.dims[a.target], mod.dims[a.source]
            m[r : r + rr, c : c + cc] = mod.mats[ai]
            r += rr
            c += cc
        mats.append(m)
    return Module(algebra, dims, tuple(mats), check=False)


class Morphism:
    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = tuple(linalg.normalize(c, source.algebra.prime) for c in comps)
        if check:
            self._validate()

    def _validate(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("source and target live over different algebras")
        q = self.source.algebra.quiver
        p = self.source.algebra.prime
        for v in range(q.vertex_count):
            if self.comps[v].shape != (self.target.dims[v], self.source.dims[v]):
                raise ValueError(f"component at vertex {v} has shape {self.comps[v].shape}")
        for ai, a in enumerate(q.arrows):
            lhs = linalg.matmul(self.target.mats[ai], self.comps[a.source], p)
            rhs = linalg.matmul(self.comps[a.target], self.source.mats[ai], p)
            if np.any(lhs != rhs):
                raise ValueError(f"components do not intertwine arrow {a.name!r}")

    @property
    def is_zero(self):
        return all(not c.size or not np.any(c) for c in self.comps)

    @property
    def is_invertible(self):
        p = self.source.algebra.prime
        return all(linalg.is_invertible(c, p) for c in self.comps)

    def compose(self, other):
        """self after other."""
        p = self.source.algebra.prime
        comps = tuple(
            linalg.matmul(s, o, p) for s, o in zip(self.comps, other.comps)
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
        x_cols = x.mats[ai].T.tolist()
        for r, y_row in enumerate(y.mats[ai].tolist()):
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
    ncols = offsets[-1]
    _, basis = linalg.kernel_rows(rows, ncols, x.algebra.prime)
    out = []
    for vec in np.array(basis, dtype=np.int64).reshape(len(basis), ncols):
        comps = tuple(
            vec[offsets[v] : offsets[v + 1]].reshape(y.dims[v], x.dims[v])
            for v in range(len(x.dims))
        )
        out.append(Morphism(x, y, comps, check=False))
    return out


def restrict(x, bases):
    """The submodule of x on per-vertex column bases, with its inclusion.

    bases[v] is a dims[v] x k_v matrix of independent columns.  Per arrow
    a: s -> t the submodule's map M solves bases[t] M = X_a bases[s]; None
    when some arrow has no solution, that is when the span is not
    arrow-stable.
    """
    algebra = x.algebra
    p = algebra.prime
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        moved = linalg.matmul(x.mats[ai], bases[a.source], p)
        sol = linalg.solve(bases[a.target], moved, p)
        if sol is None:
            return None
        mats.append(sol)
    sub = Module(algebra, tuple(b.shape[1] for b in bases), tuple(mats), check=False)
    return sub, Morphism(sub, x, tuple(bases), check=False)


def kernel(f):
    """Kernel of a morphism with its inclusion, on per-vertex nullspace bases."""
    p = f.source.algebra.prime
    return restrict(f.source, [linalg.nullspace(c, p) for c in f.comps])


def image(f):
    """Image of a morphism with its inclusion, on per-vertex column-space bases.

    The cokernel of f is quotient_by of this inclusion.
    """
    p = f.source.algebra.prime
    return restrict(f.target, [linalg.column_space(c, p) for c in f.comps])


def quotient_by(inclusion):
    """Cokernel of a submodule inclusion, with its projection.

    Per vertex the complement projection of the inclusion's columns, and per
    arrow a: s -> t the map proj_t X_a sect_s.  complement_projection depends
    only on the column span, so any two inclusions of one submodule give the
    same quotient entry for entry.  This is the library's one cokernel
    constructor: the cokernel of a morphism f is the quotient by image(f).
    """
    x = inclusion.target
    algebra = x.algebra
    p = algebra.prime
    projs, sects = zip(
        *(linalg.complement_projection(c, p) for c in inclusion.comps)
    )
    mats = tuple(
        linalg.matmul(
            projs[a.target], linalg.matmul(x.mats[ai], sects[a.source], p), p
        )
        for ai, a in enumerate(algebra.quiver.arrows)
    )
    dims = tuple(pr.shape[0] for pr in projs)
    quotient = Module(algebra, dims, mats, check=False)
    return quotient, Morphism(x, quotient, projs, check=False)


def _is_idempotent(comps, p):
    return all(
        not c.size or not np.any((c @ c) % p != c) for c in comps
    )


def _is_identity(comps):
    return all(
        c.shape[0] == c.shape[1] and np.array_equal(c, linalg.eye(c.shape[0]))
        for c in comps
    )


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
    # per-vertex (d, rows, cols) stacks of the basis, for fast combination
    stacked = [np.stack(c) for c in zip(*(f.comps for f in end))]
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        cvec = np.array(coeffs, dtype=np.int64)
        comps = tuple(np.tensordot(cvec, s, axes=1) % p for s in stacked)
        if _is_identity(comps):
            continue
        if not _is_idempotent(comps, p):
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
    per_vertex = [linalg.all_subspace_row_bases(d, p) for d in x.dims]
    out = []
    for combo in itertools.product(*per_vertex):
        hit = restrict(x, [b.T for b in combo])
        if hit is not None:
            out.append(hit)
    return out


def all_extensions(q_mod, u_mod, config=None):
    """Middle terms Z of non-split exact sequences 0 -> u_mod -> Z -> q_mod -> 0.

    Z is assembled block upper-triangularly, u_mod coordinates first, with
    an off-diagonal block c_a: q_s -> u_t per arrow a: s -> t.  The cocycles
    Z^1 are the blocks that satisfy the relations.  Cocycles that differ by
    a coboundary U_a h_s - h_t Q_a give isomorphic middle terms, and so do
    nonzero scalar multiples of one class, so one middle term is built per
    ray of a complement of B^1 in Z^1, that is per ray of Ext^1(q_mod,
    u_mod), in the order of linalg.ray_representatives.  The list is empty
    when Ext^1 vanishes; the split middle term is not built.  Two rays may
    give isomorphic middle terms; nothing here removes them.  Raises
    SubspaceBlowup when Ext^1 has more than ext_budget elements.
    """
    cfg = config or DEFAULT_CONFIG
    algebra = q_mod.algebra
    p = algebra.prime
    qv = algebra.quiver
    arrow_sizes = [
        u_mod.dims[a.target] * q_mod.dims[a.source] for a in qv.arrows
    ]
    offsets = [0]
    for s in arrow_sizes:
        offsets.append(offsets[-1] + s)
    ncols = offsets[-1]

    rows = []
    idx = algebra.arrow_index
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
            coeff = linalg.kron(suffix, prefix.T) % p
            block[:, offsets[ai] : offsets[ai + 1]] = (
                block[:, offsets[ai] : offsets[ai + 1]] + coeff
            ) % p
        rows.append(block)
    system = np.concatenate(rows, axis=0) if rows else linalg.zeros(0, ncols)
    _, cocycles = linalg.kernel_rows(system.tolist(), ncols, p)
    # the coboundary map shares its row layout with the cocycle coordinates;
    # the cocycle columns that are pivots after it span a complement of B^1
    coboundaries, cob_offsets = _intertwining_system(q_mod, u_mod)
    nb = cob_offsets[-1]
    for i, row in enumerate(coboundaries):
        row.extend(z[i] for z in cocycles)
    pivots = linalg.reduce_rows(coboundaries, nb + len(cocycles), p)
    chosen = [cocycles[c - nb] for c in pivots if c >= nb]
    e = len(chosen)
    classes = np.array(chosen, dtype=np.int64).reshape(e, ncols).T
    if p ** e > cfg.ext_budget:
        raise SubspaceBlowup(
            f"{p}^{e} Ext classes to scan, budget {cfg.ext_budget} (--ext-budget)"
        )

    dims = tuple(u + q for u, q in zip(u_mod.dims, q_mod.dims))
    out = []
    for c in linalg.ray_representatives(e, p):
        vec = (classes @ c) % p
        mats = []
        for ai, a in enumerate(qv.arrows):
            m = linalg.zeros(dims[a.target], dims[a.source])
            ud_t, ud_s = u_mod.dims[a.target], u_mod.dims[a.source]
            m[:ud_t, :ud_s] = u_mod.mats[ai]
            m[ud_t:, ud_s:] = q_mod.mats[ai]
            if arrow_sizes[ai]:
                cblock = vec[offsets[ai] : offsets[ai + 1]].reshape(
                    u_mod.dims[a.target], q_mod.dims[a.source]
                )
                m[:ud_t, ud_s:] = cblock
            mats.append(m)
        out.append(Module(algebra, dims, tuple(mats)))
    return out
