"""Exact dense linear algebra over the prime fields F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  A map
F_p^n -> F_p^m is an m x n matrix acting on column vectors.  numpy is the
container: elimination runs on Python lists of int rows, in the one routine
``reduce_rows``, because on the small matrices here numpy's per-call cost
outweighs the arithmetic.  Each kernel converts its input with ``tolist``
once and builds one int64 array at the end.  Everything here is
deterministic; basis choices come out of row-reduced echelon forms.
"""

import itertools

import numpy as np

PRIMES = (2, 3, 5, 7)


def normalize(a, p):
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n):
    return np.eye(n, dtype=np.int64)


def matmul(a, b, p):
    return (a @ b) % p


def kron(a, b):
    """Kronecker product of two matrices, equal to np.kron on 2-d int64 input.

    One broadcast product and a reshape: np.kron goes through expand_dims and
    a general n-d path that dominates its cost on the small blocks here.
    Entries are not reduced mod p.
    """
    (m, n), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * r, n * s)


def reduce_rows(rows, ncols, p):
    """Row-reduce a list of int rows over F_p in place; returns the pivot columns.

    Entries may be any ints.  Pivots are sought in the first `ncols` columns;
    longer rows carry the rest along, as an augmented block.  On return every
    entry lies in [0, p), rows[:len(pivots)] is the reduced row echelon form
    and the rows after it are zero in the first `ncols` columns.  This is the
    one row reduction of the library.
    """
    for i, row in enumerate(rows):
        rows[i] = [x % p for x in row]
    pivots = []
    n = len(rows)
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        x = prow[c]
        if x != 1:
            x = pow(x, p - 2, p)
            prow = [y * x % p for y in prow]
        rows[r] = prow
        for i, row in enumerate(rows):
            x = row[c]
            if x and i != r:
                rows[i] = [(y - x * z) % p for y, z in zip(row, prow)]
        pivots.append(c)
        r += 1
    return pivots


def kernel_rows(rows, ncols, p):
    """Canonical kernel basis of the matrix with these rows; reduces them in place.

    Returns (free columns, basis): one vector (an int list) per free column
    of the echelon form, one at that column, minus the column's entry of
    each pivot row at that row's pivot, zero elsewhere.
    """
    pivots = reduce_rows(rows, ncols, p)
    taken = set(pivots)
    free = [c for c in range(ncols) if c not in taken]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc] % p
        basis.append(vec)
    return free, basis


def rank(a, p):
    return len(reduce_rows(a.tolist(), a.shape[1], p))


def nullspace(a, p):
    """Canonical kernel basis of a: columns of the result span {x : a x = 0}.

    One basis column per free column of the echelon form, free coordinate set
    to one, pivot coordinates filled by back-substitution.
    """
    cols = a.shape[1]
    free, basis = kernel_rows(a.tolist(), cols, p)
    return np.array(basis, dtype=np.int64).reshape(len(free), cols).T


def solve(a, b, p):
    """One solution x of a x = b with free variables zero, or None."""
    n, k = a.shape[1], b.shape[1]
    rows = [ra + rb for ra, rb in zip(a.tolist(), b.tolist())]
    pivots = reduce_rows(rows, n, p)
    if any(any(row[n:]) for row in rows[len(pivots) :]):
        return None
    x = [[0] * k for _ in range(n)]
    for row, pc in zip(rows, pivots):
        x[pc] = row[n:]
    return np.array(x, dtype=np.int64).reshape(n, k)


def column_space(a, p):
    """Basis of the column space: the pivot columns of `a` themselves."""
    pivots = reduce_rows(a.tolist(), a.shape[1], p)
    return normalize(a, p)[:, pivots]


def is_invertible(a, p):
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def complement_projection(basis, p):
    """Quotient data for the column span S of `basis` inside F_p^n.

    Returns (proj, section) with proj of shape (n-r) x n, kernel of proj
    exactly S, and proj @ section the identity.  Coordinates of the quotient
    are the non-pivot coordinates of the canonical row basis of S: row k of
    proj is one on the k-th of them and minus its entry of each basis row on
    that row's pivot, that is the kernel basis of the row basis of S.
    """
    n = basis.shape[0]
    free, proj = kernel_rows(basis.T.tolist(), n, p)
    proj = np.array(proj, dtype=np.int64).reshape(len(free), n)
    return proj, eye(n)[:, free]


def ray_representatives(dim, p):
    """One nonzero vector per scalar ray (first nonzero coordinate is 1)."""
    for t in itertools.product(range(p), repeat=dim):
        lead = next((x for x in t if x), 0)
        if lead == 1:
            yield np.array(t, dtype=np.int64)


def subspace_count(n, p):
    """Number of subspaces of F_p^n (sum of Gaussian binomials)."""
    total = 0
    for k in range(n + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (n - i) - 1
            den *= p ** (k - i) - 1
        total += num // den
    return total


def all_subspace_row_bases(n, p):
    """Canonical RREF row basis of every subspace of F_p^n.

    Ordered by dimension, then pivot columns, then free entries; the zero
    subspace is a 0 x n matrix.
    """
    out = [zeros(0, n)]
    for k in range(1, n + 1):
        for piv in itertools.combinations(range(n), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(piv[i] + 1, n)
                if j not in piv
            ]
            for vals in itertools.product(range(p), repeat=len(free_pos)):
                b = zeros(k, n)
                for i in range(k):
                    b[i, piv[i]] = 1
                for (i, j), v in zip(free_pos, vals):
                    b[i, j] = v
                out.append(b)
    return out
