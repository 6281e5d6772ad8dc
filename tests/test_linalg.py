import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    ech, piv = linalg.rref(a, p)
    again, piv2 = linalg.rref(ech, p)
    assert np.array_equal(ech, again)
    assert piv == piv2


@given(matrices())
def test_rref_preserves_row_space(mp):
    a, p = mp
    ech, piv = linalg.rref(a, p)
    assert linalg.rank(a, p) == len(piv)
    stacked = np.vstack([a, ech[: len(piv)]])
    assert linalg.rank(stacked, p) == len(piv)


@given(matrices())
def test_nullspace_kills_and_spans(mp):
    a, p = mp
    ns = linalg.nullspace(a, p)
    assert not (linalg.matmul(a, ns, p) % p).any()
    assert linalg.rank(ns, p) == a.shape[1] - linalg.rank(a, p)


@given(matrices())
def test_solve_recovers_known_combinations(mp):
    a, p = mp
    x = (np.arange(a.shape[1] * 2, dtype=np.int64).reshape(a.shape[1], 2)) % p
    b = linalg.matmul(a, x, p)
    sol = linalg.solve(a, b, p)
    assert sol is not None
    assert np.array_equal(linalg.matmul(a, sol, p), b)


def test_solve_detects_inconsistency():
    a = np.array([[1], [0]], dtype=np.int64)
    b = np.array([[0], [1]], dtype=np.int64)
    assert linalg.solve(a, b, 2) is None


@given(matrices(max_dim=4))
def test_complement_projection_splits(mp):
    a, p = mp
    basis = linalg.column_space(a, p)
    proj, section = linalg.complement_projection(basis, p)
    n, r = basis.shape
    assert proj.shape == (n - r, n)
    assert not (linalg.matmul(proj, basis, p) % p).any()
    assert np.array_equal(linalg.matmul(proj, section, p), linalg.eye(n - r))


@given(st.integers(1, 3), primes)
def test_ray_representatives_cover_space(d, p):
    rays = list(linalg.ray_representatives(d, p))
    assert len(rays) == linalg.ray_count(d, p)
    seen = {tuple(v) for v in rays}
    assert len(seen) == len(rays)
    for v in rays:
        first = next(x for x in v if x)
        assert first == 1


@given(st.integers(0, 3), primes)
def test_subspace_enumeration_count(n, p):
    bases = linalg.all_subspace_row_bases(n, p)
    assert len(bases) == linalg.subspace_count(n, p)
    canon = {b.tobytes() for b in bases}
    assert len(canon) == len(bases)


def test_is_invertible_examples():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert linalg.is_invertible(a, 2)
    b = np.array([[1, 1], [1, 1]], dtype=np.int64)
    assert not linalg.is_invertible(b, 2)


@pytest.mark.parametrize("p", linalg.PRIMES)
def test_inv_scalar(p):
    for x in range(1, p):
        assert (x * linalg.inv_scalar(x, p)) % p == 1


@given(matrices(), matrices())
def test_kron_matches_numpy(ap, bp):
    (a, _), (b, _) = ap, bp
    got, want = linalg.kron(a, b), np.kron(a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_kron_matches_numpy_on_empty_shapes():
    shapes = [(0, 0), (0, 3), (2, 0), (2, 3)]
    for (m, n), (r, s) in itertools.product(shapes, repeat=2):
        a = np.arange(m * n, dtype=np.int64).reshape(m, n) + 1
        b = np.arange(r * s, dtype=np.int64).reshape(r, s) + 2
        got, want = linalg.kron(a, b), np.kron(a, b)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
