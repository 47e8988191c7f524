"""caxial.csr against scipy.sparse, its oracle: every operation on random
canonical matrices, and every operation a verify run makes on the benchmark
instances, equal bit for bit."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import assert_same_csr, scipy_csr

from caxial import csr
from caxial.cli import RunConfig, run_verification
from caxial.csr import CSR
from caxial.lattice import clear_caches


def _random(rng, m, n, density, zeros=False):
    """A random canonical CSR matrix and its scipy twin; with zeros, some
    entries are stored zeros."""
    a = sp.random(m, n, density=density, format="csr", random_state=rng)
    a.data = rng.standard_normal(a.nnz) / 3.0
    if zeros:
        a.data[::4] = 0.0
    a.sort_indices()
    return CSR(a.data, a.indices, a.indptr, a.shape), a


SHAPES = [(0, 5, 4), (5, 0, 4), (1, 30, 1), (12, 30, 9), (30, 24, 17),
          (40, 3, 40)]


@pytest.mark.parametrize("m,k,n", SHAPES)
@pytest.mark.parametrize("zeros", [False, True])
def test_operations_match_scipy(m, k, n, zeros):
    rng = np.random.default_rng(m * 1000 + k * 10 + n + zeros)
    # dense enough that product entries sum 8 or more terms
    a, a_sp = _random(rng, m, k, 0.6, zeros)
    b, b_sp = _random(rng, k, n, 0.6, zeros)
    c, c_sp = _random(rng, m, k, 0.5)
    assert_same_csr(a_sp @ b_sp, a @ b)
    assert_same_csr(a_sp - c_sp, a - c)
    assert_same_csr(2.5 * a_sp, 2.5 * a)
    assert_same_csr(a_sp * np.float64(-3.0), a * np.float64(-3.0))
    assert_same_csr(a_sp.T.tocsr(), a.T)
    assert a.T.T is a
    assert_same_csr(sp.vstack([a_sp, c_sp], format="csr"),
                    csr.vstack([a, c]))
    assert np.array_equal(a.toarray(), a_sp.toarray())
    x, v = rng.standard_normal((k, 7)), rng.standard_normal(k)
    assert np.array_equal(a @ x, a_sp @ x) and (a @ x).flags.c_contiguous
    assert np.array_equal(a @ v, a_sp @ v)
    ints = rng.integers(-3, 4, (k, 2))     # upcast, as scipy does
    assert np.array_equal(a @ ints, a_sp @ ints)
    assert np.array_equal(a @ ints[:, 0], a_sp @ ints[:, 0])
    y = rng.standard_normal((6, m))
    got, want = y @ a, y @ a_sp
    assert np.array_equal(got, want)
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert np.array_equal(a.T @ y.T, a_sp.T @ y.T)
    if m:
        rows = rng.integers(0, m, 11)
        assert_same_csr(a_sp[rows], a[rows])
        assert_same_csr(a_sp[1:m - 1], a[1:m - 1])
        if k:
            cols = rng.integers(0, k, 11)
            assert np.array_equal(a[rows, cols],
                                  np.asarray(a_sp[rows, cols]).ravel())
            block = a[np.arange(m)[:, None], np.tile(np.arange(k), (m, 1))]
            assert np.array_equal(block, a_sp.toarray())


def test_sums_are_taken_in_order_from_zero():
    # 20 terms per entry, in values whose pairwise sum differs from the
    # left-to-right one
    rng = np.random.default_rng(7)
    a, a_sp = _random(rng, 3, 20, 1.0)
    b, b_sp = _random(rng, 20, 4, 1.0)
    x = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-8, 8, (20, 1))
    assert np.array_equal(a @ x, a_sp @ x)
    assert np.array_equal(a @ x[:, 0], a_sp @ x[:, 0])
    assert_same_csr(a_sp @ b_sp, a @ b)
    # repeated triplets are summed left to right, unlike np.sum and
    # np.add.reduceat
    vals = np.random.default_rng(1).standard_normal(20)
    got = csr.from_triplets(np.zeros(20, int), np.zeros(20, int), vals,
                            (1, 1))
    assert got.data[0] == sum(vals.tolist())
    assert got.data[0] != np.sum(vals)
    assert got.data[0] != np.add.reduceat(vals, [0])[0]


def test_exact_cancellation_is_dropped_from_products_and_differences():
    a = csr.from_triplets([0, 0, 1], [0, 1, 1], [1.0, 1.0, 2.0], (2, 2))
    b = csr.from_triplets([0, 1], [0, 0], [1.0, -1.0], (2, 1))
    prod = a @ b                        # row 0 cancels, row 1 does not
    assert_same_csr(scipy_csr(a) @ scipy_csr(b), prod)
    assert prod.nnz == 1 and prod.toarray().tolist() == [[0.0], [-2.0]]
    assert (a - a).nnz == 0
    # assembly keeps a sum that cancels, as sum_duplicates does
    kept = csr.from_triplets([0, 0], [0, 0], [1.0, -1.0], (1, 1))
    assert kept.nnz == 1 and kept.data[0] == 0.0


def test_empty_stacks_and_matrices():
    empty = csr.from_triplets([], [], 0.0, (0, 6))
    full, full_sp = _random(np.random.default_rng(3), 4, 6, 0.5)
    assert_same_csr(sp.vstack([sp.csr_matrix((0, 6)), full_sp, full_sp],
                              format="csr"),
                    csr.vstack([empty, full, empty, full]))
    assert csr.vstack([empty, empty]).shape == (0, 6)
    assert (empty @ np.ones((6, 2))).shape == (0, 2)
    assert (np.ones((3, 0)) @ empty).shape == (3, 6)
    assert (empty @ full.T).shape == (0, 4)
    with pytest.raises(ValueError):
        csr.vstack([empty, full.T])


def test_matrices_are_read_only_and_refuse_numpy_arithmetic():
    v = np.array([1.0, 0.0, 2.0])
    m = csr.from_triplets([0, 1, 2], [0, 1, 2], v, (3, 3))
    assert m.toarray().tolist() == [[1, 0, 0], [0, 0, 0], [0, 0, 2]]
    for a in (m.data, m.indices, m.indptr):
        with pytest.raises(ValueError):
            a[0] = 5
    v[0] = 2.0              # the caller's values keep their own flags
    assert m.data[0] == 1.0
    with pytest.raises(TypeError):
        np.ones((3, 3)) + m
    with pytest.raises(ValueError):
        m @ np.ones(4)


def test_a_dense_matrix_is_read_by_its_nonzero_entries():
    a = np.array([[0.0, 1.5, 0.0], [-2.0, 0.0, 0.0]])
    m = csr.as_csr(a)
    assert_same_csr(sp.csr_matrix(a), m)
    assert np.array_equal(m.toarray(), a)
    assert csr.as_csr(m) is m


BENCHMARK = [
    (("rg",), ((2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 3, 1))),
    (("feynman_landau", "representation", "sqrt", "decay", "appendix"),
     ((2, 3, 2), (2, 5, 1), (3, 3, 1))),
    (("geometry", "calculus", "averaging", "gauge_surface"),
     ((2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 5, 1), (2, 5, 2), (3, 3, 1))),
]


@pytest.mark.parametrize("suites,instances", BENCHMARK,
                         ids=["rg-flow", "gauge-ops", "structure"])
def test_benchmark_runs_match_scipy_operation_by_operation(
        suites, instances, scipy_checked):
    clear_caches()
    report, _ = run_verification(RunConfig(instances=instances,
                                           suites=suites).validate())
    clear_caches()
    assert {c["status"] for c in report["checks"]} == {"PASS"}
    assert scipy_checked["__matmul__"] and scipy_checked["T"]
