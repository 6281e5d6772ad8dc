"""Exact dense linear algebra over the prime fields F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  A map
F_p^n -> F_p^m is an m x n matrix acting on column vectors.  Everything here is
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


def inv_scalar(x, p):
    # p is prime, x nonzero mod p
    return pow(int(x) % p, p - 2, p)


def rref(a, p):
    """Row-reduce a copy of `a`; returns (echelon matrix, pivot column list)."""
    m = normalize(a, p).copy()
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
        m[r] = (m[r] * inv_scalar(m[r, c], p)) % p
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p):
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Canonical kernel basis of a: columns of the result span {x : a x = 0}.

    One basis column per free column of the echelon form, free coordinate set
    to one, pivot coordinates filled by back-substitution.
    """
    a = normalize(a, p)
    cols = a.shape[1]
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve(a, b, p):
    """One solution x of a x = b with free variables zero, or None."""
    a = normalize(a, p)
    b = normalize(b, p)
    n = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(aug, p)
    if any(c >= n for c in pivots):
        return None
    x = zeros(n, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, n:]
    return x


def column_space(a, p):
    """Basis of the column space: the pivot columns of `a` themselves."""
    _, pivots = rref(a, p)
    return normalize(a, p)[:, pivots]


def row_canonical(a, p):
    """The unique RREF row basis of the row space of `a`."""
    r, pivots = rref(a, p)
    return r[: len(pivots), :]


def is_invertible(a, p):
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def complement_projection(basis, p):
    """Quotient data for the column span S of `basis` inside F_p^n.

    Returns (proj, section) with proj of shape (n-r) x n, kernel of proj
    exactly S, and proj @ section the identity.  Coordinates of the quotient
    are the non-pivot coordinates of the canonical row basis of S.
    """
    n = basis.shape[0]
    e = row_canonical(basis.T, p)
    piv = [int(np.argmax(row != 0)) for row in e]
    free = [c for c in range(n) if c not in piv]
    m = eye(n)
    for i, pc in enumerate(piv):
        hot = zeros(1, n)
        hot[0, pc] = 1
        m = (m - np.outer(e[i], hot[0])) % p
    proj = m[free, :] if free else zeros(0, n)
    section = eye(n)[:, free]
    return proj, section


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
