"""Exact dense linear algebra over the prime fields F_p.

A matrix is a tuple of row tuples of ints in [0, p).  A map F_p^n -> F_p^m
is an m x n matrix acting on column vectors.  A matrix with no rows does not
show its column count, so each function that needs one takes it as
``ncols``.  Elimination runs in the one routine ``reduce_rows``, on lists of
int rows.  Everything here is deterministic; basis choices come out of
row-reduced echelon forms.
"""

import itertools
from operator import mul

PRIMES = (2, 3, 5, 7)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a, ncols):
    return tuple(zip(*a)) if a else ((),) * ncols


def matmul(a, b, ncols, p):
    """The product a b, for b with ncols columns."""
    cols = transpose(b, ncols)
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


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


def rank(a, ncols, p):
    return len(reduce_rows(list(a), ncols, p))


def nullspace(a, ncols, p):
    """Canonical kernel basis of a: columns of the result span {x : a x = 0}.

    One basis column per free column of the echelon form, free coordinate set
    to one, pivot coordinates filled by back-substitution.
    """
    return transpose(kernel_rows(list(a), ncols, p)[1], ncols)


def solve(a, b, ncols, k, p):
    """One solution x of a x = b with free variables zero, or None.

    a has ncols columns and b has k, so x is ncols x k.
    """
    rows = [ra + rb for ra, rb in zip(a, b)]
    pivots = reduce_rows(rows, ncols, p)
    if any(any(row[ncols:]) for row in rows[len(pivots) :]):
        return None
    x = [(0,) * k] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = tuple(row[ncols:])
    return tuple(x)


def column_space(a, ncols, p):
    """Basis of the column space: the pivot columns of `a` themselves."""
    pivots = reduce_rows(list(a), ncols, p)
    return tuple(tuple(row[c] for c in pivots) for row in a)


def is_invertible(a, ncols, p):
    return len(a) == ncols and rank(a, ncols, p) == ncols


def complement_projection(basis, p):
    """Quotient data for the column span S of `basis` inside F_p^n.

    Returns (proj, free) with proj of shape (n-r) x n, kernel of proj
    exactly S, and the columns `free` of proj the identity.  Coordinates of
    the quotient are the non-pivot coordinates of the canonical row basis of
    S: row k of proj is one on the k-th of them and minus its entry of each
    basis row on that row's pivot, that is the kernel basis of the row basis
    of S.
    """
    free, proj = kernel_rows(list(zip(*basis)), len(basis), p)
    return tuple(map(tuple, proj)), free


def ray_representatives(dim, p):
    """One nonzero vector per scalar ray (first nonzero coordinate is 1)."""
    for t in itertools.product(range(p), repeat=dim):
        lead = next((x for x in t if x), 0)
        if lead == 1:
            yield t


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


def all_subspace_column_bases(n, p):
    """Column basis of every subspace of F_p^n: its canonical RREF row basis, transposed.

    Ordered by dimension, then pivot columns, then free entries; the zero
    subspace is an n x 0 matrix.
    """
    out = [((),) * n]
    for k in range(1, n + 1):
        for piv in itertools.combinations(range(n), k):
            free_pos = [
                (i, j)
                for i in range(k)
                for j in range(piv[i] + 1, n)
                if j not in piv
            ]
            for vals in itertools.product(range(p), repeat=len(free_pos)):
                b = [[0] * k for _ in range(n)]
                for i in range(k):
                    b[piv[i]][i] = 1
                for (i, j), v in zip(free_pos, vals):
                    b[j][i] = v
                out.append(tuple(map(tuple, b)))
    return out
