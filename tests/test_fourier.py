"""Block-Fourier symbols against the dense operators they reduce.

The dense least-squares certificate is kept here as the oracle for the
symbol path of `gaussian.kernel_residual`.
"""

import numpy as np
import pytest

from caxial import averaging as av
from caxial import csr
from caxial.fields import (BOND, PLAQUETTE, SITE, block_symbol, element_count,
                           ext_d_matrix, grad_matrix)
from caxial.gaussian import RANK_TOL, kernel_residual, row_space
from caxial.lattice import LatticeError, open_cube, unit_torus

ORACLE_INSTANCES = [(2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 5, 1), (2, 5, 2),
                    (3, 3, 1)]


def _lstsq_residual(T, K):
    """max |T - X K| for X the least-squares solution of X K = T, and the
    rank lstsq finds: the dense certificate the symbol path replaced."""
    X, _, rank, _ = np.linalg.lstsq(K.T, T.T, rcond=RANK_TOL)
    res = T - X.T @ K
    return (float(np.abs(res).max()) if res.size else 0.0), int(rank)


def _dense_identities(lat):
    """Dense (T, K) of the averaging suite's two kernel identities."""
    coarse = av.coarsened(lat)
    closed = (ext_d_matrix(coarse).toarray()
              @ av.bond_average_matrix(lat, 1).toarray(),
              ext_d_matrix(lat).toarray())
    recovery = (av.scalar_recovery_matrix(lat).toarray()
                @ grad_matrix(lat).toarray() + np.eye(lat.n_sites),
                av.scalar_average_matrix(lat, 1).toarray())
    return {"closed": closed, "recovery": recovery}


@pytest.mark.parametrize("dim,L,levels", ORACLE_INSTANCES)
def test_symbol_certificates_match_dense_lstsq(dim, L, levels):
    lat = unit_torus(dim, L, levels)
    symbols = {"closed": av.closed_average_symbols(lat),
               "recovery": av.recovery_inverse_symbols(lat)}
    for name, (T, K) in _dense_identities(lat).items():
        value, rank = _lstsq_residual(T, K)
        T_hat, K_hat = symbols[name]
        assert abs(kernel_residual(T_hat, K_hat) - value) <= 1e-13, name
        # the singular values of K are the union of its blocks'
        assert row_space(K_hat)[1] == rank, name
        assert row_space(K)[1] == rank, name


def _operators(lat):
    """(matrix, codomain, domain) of every operator the symbols reduce, the
    spaces as (lattice, kind) pairs."""
    coarse = av.coarsened(lat)
    fs, fb, fp = (lat, SITE), (lat, BOND), (lat, PLAQUETTE)
    cs, cb, cp = (coarse, SITE), (coarse, BOND), (coarse, PLAQUETTE)
    return [(grad_matrix(lat), fb, fs), (ext_d_matrix(lat), fp, fb),
            (ext_d_matrix(coarse), cp, cb),
            (av.bond_average_matrix(lat, 1), cb, fb),
            (av.scalar_average_matrix(lat, 1), cs, fs),
            (av.scalar_recovery_matrix(lat), fs, fb)]


def _dense(matrix):
    return (matrix.toarray() if isinstance(matrix, csr.CSR)
            else np.array(matrix))


# block_symbol reads either kind of input; each refusal is tested on both
AS_KIND = {"csr": csr.as_csr, "dense": _dense}


@pytest.mark.parametrize("dim,L,levels", [(2, 3, 2), (2, 3, 3), (2, 5, 2),
                                          (3, 3, 1)])
def test_inverse_transform_rebuilds_the_operator(dim, L, levels,
                                                dense_from_symbol):
    lat = unit_torus(dim, L, levels)
    grid = av.coarsened(lat).n_side
    for matrix, codomain, domain in _operators(lat):
        S = block_symbol(matrix, codomain, domain, grid)
        assert S.shape == ((grid,) * dim
                           + (element_count(*codomain) // grid**dim,
                              element_count(*domain) // grid**dim))
        for as_kind in AS_KIND.values():
            assert block_symbol(as_kind(matrix), codomain, domain,
                                grid).tobytes() == S.tobytes()
        rebuilt = dense_from_symbol(S, codomain, domain, grid)
        assert np.abs(rebuilt - _dense(matrix)).max() <= 1e-15


@pytest.mark.parametrize("kind", sorted(AS_KIND))
def test_perturbed_operator_is_not_reduced(kind):
    lat = unit_torus(2, 3, 2)
    grid = av.coarsened(lat).n_side
    for matrix, codomain, domain in _operators(lat):
        bad = _dense(matrix)
        bad[-1, -1] = np.nextafter(bad[-1, -1], np.inf)    # one ulp
        with pytest.raises(LatticeError, match="block translations"):
            block_symbol(AS_KIND[kind](bad), codomain, domain, grid)


@pytest.mark.parametrize("kind", sorted(AS_KIND))
def test_operator_broken_only_at_the_wrap_around_is_not_reduced(kind):
    # grad without the couplings of the last block position along axis 0 to
    # the first: every translation that does not wrap around still commutes
    # with it, so only the edge pairs of the comparison can refuse it
    lat = unit_torus(2, 3, 2)
    grid = av.coarsened(lat).n_side
    side = lat.n_side // grid
    bad = grad_matrix(lat).toarray()
    t = bad.reshape((grid, side) * 2 + (2,) + (grid, side) * 2)
    assert np.any(t[-1, :, :, :, :, 0])
    t[-1, :, :, :, :, 0] = 0.0
    with pytest.raises(LatticeError, match="translations along axis 0"):
        block_symbol(AS_KIND[kind](bad), (lat, BOND), (lat, SITE), grid)


def test_one_block_symbol_is_the_real_matrix():
    # grid 1: every translation is the identity, so nothing is tested and
    # the symbol is the matrix itself, float64 as given
    lat = unit_torus(3, 3, 1)
    for matrix, codomain, domain in _operators(lat):
        S = block_symbol(matrix, codomain, domain, 1)
        assert S.dtype == np.float64
        assert np.array_equal(S.reshape(S.shape[-2:]), _dense(matrix))
    # any matrix of the right shape is one block's operator
    noise = np.random.default_rng(2).standard_normal((lat.n_bonds,
                                                      lat.n_sites))
    S = block_symbol(noise, (lat, BOND), (lat, SITE), 1)
    assert np.array_equal(S[0, 0, 0], noise)


def test_symbol_needs_whole_blocks_on_a_torus():
    lat = unit_torus(2, 3, 2)
    fb, fp = (lat, BOND), (lat, PLAQUETTE)
    with pytest.raises(LatticeError, match="block positions"):
        block_symbol(ext_d_matrix(lat), fp, fb, 2)
    cube = open_cube(2, 3)
    with pytest.raises(LatticeError, match="on a torus"):
        block_symbol(ext_d_matrix(cube), (cube, PLAQUETTE), (cube, BOND), 1)
