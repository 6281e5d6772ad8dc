import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import ray_count, to_rows
from torslat import linalg

primes = st.sampled_from(linalg.PRIMES)


@st.composite
def matrices(draw, max_dim=5):
    p = draw(primes)
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


@given(matrices())
def test_rref_is_idempotent(mp):
    a, p = mp
    ech, piv = oracles.rref(a, p)
    again, piv2 = oracles.rref(ech, p)
    assert np.array_equal(ech, again)
    assert piv == piv2


@given(matrices())
def test_rref_preserves_row_space(mp):
    a, p = mp
    ech, piv = oracles.rref(a, p)
    cols = a.shape[1]
    assert linalg.rank(to_rows(a), cols, p) == len(piv)
    stacked = np.vstack([a, ech[: len(piv)]])
    assert linalg.rank(to_rows(stacked), cols, p) == len(piv)


@st.composite
def raw_systems(draw, max_dim=8):
    """(a, b, p) with b of a's row count; entries outside [0, p) too, negative ones included.

    Half the draws have b in the column space of a, so that solve succeeds.
    """
    p = draw(primes)
    m, n, k = (draw(st.integers(0, max_dim)) for _ in range(3))

    def block(rows, cols):
        size = rows * cols
        entries = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=size, max_size=size))
        return np.array(entries, dtype=np.int64).reshape(rows, cols)

    a = block(m, n)
    b = block(m, k) if draw(st.booleans()) else a @ block(n, k)
    return a, b, p


def _same_matrix(got, want):
    """got is a library matrix of Python ints equal to the int64 array want."""
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    assert all(type(x) is int for row in got for x in row)
    assert got == to_rows(want)


def _check_kernels_against_references(a, b, p):
    # reduce_rows takes any ints; the other kernels take matrices in [0, p)
    (m, n), k = a.shape, b.shape[1]
    ech, piv = oracles.rref(a, p)
    rows = a.tolist()
    assert linalg.reduce_rows(rows, n, p) == piv
    assert rows == ech.tolist()
    a, b = a % p, b % p
    am, bm = to_rows(a), to_rows(b)
    assert linalg.rank(am, n, p) == len(piv)
    assert linalg.is_invertible(am, n, p) == (m == n == len(piv))
    _same_matrix(linalg.identity(n), np.eye(n, dtype=np.int64))
    at = linalg.transpose(am, n)
    _same_matrix(at, a.T)
    _same_matrix(linalg.matmul(at, bm, k, p), a.T @ b % p)
    _same_matrix(linalg.nullspace(am, n, p), oracles.nullspace(a, p))
    _same_matrix(linalg.column_space(am, n, p), oracles.column_space(a, p))
    proj, free = linalg.complement_projection(am, p)
    want_proj, want_section = oracles.complement_projection(a, p)
    _same_matrix(proj, want_proj)
    assert np.array_equal(np.eye(m, dtype=np.int64)[:, free], want_section)
    got, want = linalg.solve(am, bm, n, k, p), oracles.solve(a, b, p)
    assert (got is None) == (want is None)
    if want is not None:
        _same_matrix(got, want)


@given(raw_systems())
def test_kernels_match_the_numpy_references(abp):
    _check_kernels_against_references(*abp)


@pytest.mark.parametrize("p", linalg.PRIMES)
@pytest.mark.parametrize("m,n,k", [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 2, 0)])
def test_kernels_match_the_numpy_references_on_empty_shapes(m, n, k, p):
    # a matrix with no rows shows no column count, so each kernel must take
    # it from its ncols, and one with empty rows must keep them
    a = (np.arange(m * n, dtype=np.int64).reshape(m, n) - 2) * 3
    b = np.arange(m * k, dtype=np.int64).reshape(m, k) - 1
    _check_kernels_against_references(a, b, p)


@given(matrices())
def test_nullspace_kills_and_spans(mp):
    a, p = mp
    am, cols = to_rows(a), a.shape[1]
    ns = linalg.nullspace(am, cols, p)
    k = cols - linalg.rank(am, cols, p)
    assert not any(map(any, linalg.matmul(am, ns, k, p)))
    assert linalg.rank(ns, k, p) == k


@given(matrices())
def test_solve_recovers_known_combinations(mp):
    a, p = mp
    am, cols = to_rows(a), a.shape[1]
    x = to_rows(np.arange(cols * 2, dtype=np.int64).reshape(cols, 2) % p)
    b = linalg.matmul(am, x, 2, p)
    sol = linalg.solve(am, b, cols, 2, p)
    assert sol is not None
    assert linalg.matmul(am, sol, 2, p) == b


def test_solve_detects_inconsistency():
    assert linalg.solve(((1,), (0,)), ((0,), (1,)), 1, 1, 2) is None


@given(matrices(max_dim=4))
def test_complement_projection_splits(mp):
    a, p = mp
    n = a.shape[0]
    r = linalg.rank(to_rows(a), a.shape[1], p)
    basis = linalg.column_space(to_rows(a), a.shape[1], p)
    proj, free = linalg.complement_projection(basis, p)
    assert len(proj) == n - r and all(len(row) == n for row in proj)
    assert not any(map(any, linalg.matmul(proj, basis, r, p)))
    assert tuple(tuple(row[c] for c in free) for row in proj) == linalg.identity(n - r)


@given(st.integers(1, 3), primes)
def test_ray_representatives_cover_space(d, p):
    rays = list(linalg.ray_representatives(d, p))
    assert len(rays) == ray_count(d, p)
    seen = {tuple(v) for v in rays}
    assert len(seen) == len(rays)
    for v in rays:
        first = next(x for x in v if x)
        assert first == 1


@given(st.integers(0, 3), primes)
def test_subspace_enumeration_count(n, p):
    bases = linalg.all_subspace_column_bases(n, p)
    assert len(bases) == linalg.subspace_count(n, p)
    assert len(set(bases)) == len(bases)
    for b in bases:
        k = len(b[0]) if b else 0
        assert len(b) == n and linalg.rank(linalg.transpose(b, k), n, p) == k


def test_is_invertible_examples():
    assert linalg.is_invertible(((1, 1), (0, 1)), 2, 2)
    assert not linalg.is_invertible(((1, 1), (1, 1)), 2, 2)
