import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caxial.lattice import open_cube, unit_torus, fine_torus
from caxial.fields import (ScalarField, grad, ext_d, codiff,
                           scale_field, inner,
                           norm_sq, as_matrix, apply_symmetry, random_field,
                           grad_matrix, ext_d_matrix, laplacian_matrix,
                           BOND, PLAQUETTE)

RTOL = 1e-12


def rng():
    return np.random.default_rng(7)


def path_sum(values, lat, start, delta, order):
    """Oriented sum of bond values along one walk_bonds path."""
    bonds, signs, _ = lat.walk_bonds([lat.site_ordinal(start)], [delta],
                                     order)
    return float(signs[0] @ values[bonds[0]])


def test_grad_constant_zero():
    lat = unit_torus(2, 3, 1)
    f = ScalarField(lat, np.ones(lat.n_sites))
    assert np.all(grad(f).values == 0)


def test_grad_indicator():
    lat = unit_torus(2, 3, 1)
    x0 = lat.site_ordinal((0, 0))
    f = ScalarField(lat, np.eye(lat.n_sites)[x0])
    g = grad(f)
    for b, (s, mu) in enumerate(zip(lat.bond_sites, lat.bond_axes)):
        t = lat.next[mu, s]
        expect = (1 if t == x0 else 0) - (1 if s == x0 else 0)
        assert g.values[b] == expect


def test_d_of_grad_is_zero_exactly():
    for lat in (unit_torus(2, 3, 1), open_cube(3, 3), fine_torus(2, 3, 1, 1)):
        prod = ext_d_matrix(lat).toarray() @ grad_matrix(lat).toarray()
        assert np.all(prod == 0)


def test_grad_matrix_two_nonzeros_per_row():
    lat = unit_torus(3, 3, 1)
    m = as_matrix("grad", lat).matrix.toarray()
    assert all(np.count_nonzero(row) == 2 for row in m)


def test_adjointness():
    lat = fine_torus(2, 3, 1, 1)
    r = rng()
    A = random_field(lat, BOND, r)
    P = random_field(lat, PLAQUETTE, r)
    lhs = inner(ext_d(A), P)
    rhs = inner(A, codiff(PLAQUETTE, lat)(P))
    assert abs(lhs - rhs) <= RTOL * max(1.0, abs(lhs))


def test_codiff_of_grad_is_laplacian():
    lat = fine_torus(2, 3, 1, 1)
    dmat = as_matrix("grad", lat)
    delta = codiff(BOND, lat)
    lap = delta.matrix.toarray() @ dmat.matrix.toarray()
    assert np.allclose(lap, laplacian_matrix(lat).toarray(), rtol=0,
                       atol=1e-12)
    # divided-difference Laplacian row sum is zero on the torus
    assert np.allclose(lap @ np.ones(lat.n_sites), 0, atol=1e-12)


def test_gauge_invariance_of_curl():
    lat = unit_torus(2, 3, 2)
    r = rng()
    A = random_field(lat, BOND, r)
    lam = ScalarField(lat, r.standard_normal(lat.n_sites))
    assert np.allclose(ext_d(A - grad(lam)).values,
                       ext_d(A).values, atol=1e-12)


def test_path_sum_telescopes():
    lat = unit_torus(2, 3, 2)
    r = rng()
    lam = ScalarField(lat, r.standard_normal(lat.n_sites))
    g = grad(lam)
    # (-3, 2) -> (2, -1) by the centered displacement (-4, -3) on the 9-torus
    expect = lam.at((2, -1)) - lam.at((-3, 2))
    assert abs(path_sum(g.values, lat, (-3, 2), (-4, -3), (0, 1))
               - expect) < 1e-12
    assert path_sum(g.values, lat, (0, 0), (0, 0), (0, 1)) == 0


def test_weighted_path_sum_of_divided_gradient():
    # on a spacing 1/L lattice the weighted sum along a path recovers the
    # plain difference of endpoint values
    lat = fine_torus(2, 3, 1, 1)
    r = rng()
    lam = ScalarField(lat, r.standard_normal(lat.n_sites))
    g = grad(lam)
    expect = lam.at((2, 2)) - lam.at((0, 0))
    weighted = lat.spacing * path_sum(g.values, lat, (0, 0), (2, 2), (0, 1))
    assert abs(weighted - expect) < 1e-12


def test_closed_path_of_curl_free_field():
    lat = unit_torus(2, 3, 2)
    r = rng()
    lam = ScalarField(lat, r.standard_normal(lat.n_sites))
    g = grad(lam)
    # contractible closed rectangle
    total = (path_sum(g.values, lat, (0, 0), (2, 0), (0,))
             + path_sum(g.values, lat, (2, 0), (0, 2), (1,))
             + path_sum(g.values, lat, (2, 2), (-2, 0), (0,))
             + path_sum(g.values, lat, (0, 2), (0, -2), (1,)))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("dim,n", [(2, 1), (3, 1), (2, 2)])
def test_scale_invariance_of_curl_energy(dim, n):
    N = 2
    lat = unit_torus(dim, 3, N)
    A = random_field(lat, BOND, rng())
    As = scale_field(A, n)
    assert As.lattice.spec.scale_exp == n
    assert abs(norm_sq(ext_d(As)) - norm_sq(ext_d(A))) \
        <= 1e-12 * norm_sq(ext_d(A))
    back = scale_field(As, -n)
    assert np.allclose(back.values, A.values)


def test_scale_field_factor_d3():
    lat = unit_torus(3, 3, 1)
    A = random_field(lat, BOND, rng())
    As = scale_field(A, 1)
    assert np.allclose(As.values, 3**0.5 * A.values)


def test_inner_weight():
    lat = fine_torus(2, 3, 1, 1)
    A = random_field(lat, BOND, rng())
    assert abs(inner(A, A) - 3.0**-2 * A.values @ A.values) < 1e-12


def test_symmetry_action_involution_and_identity():
    lat = unit_torus(2, 3, 1)
    A = random_field(lat, BOND, rng())
    syms = lat.symmetries()
    ident = [r for r in syms if r.perm == (0, 1) and r.signs == (1, 1)][0]
    assert np.allclose(apply_symmetry(ident, A).values, A.values)
    refl = [r for r in syms if r.perm == (0, 1) and r.signs == (-1, 1)][0]
    assert np.allclose(apply_symmetry(refl, apply_symmetry(refl, A)).values,
                       A.values)


def test_symmetry_commutes_with_grad():
    lat = unit_torus(2, 3, 1)
    r = rng()
    lam = ScalarField(lat, r.standard_normal(lat.n_sites))
    for sym in lat.symmetries():
        lhs = grad(apply_symmetry(sym, lam))
        rhs = apply_symmetry(sym, grad(lam))
        assert np.allclose(lhs.values, rhs.values, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjointness_grad_property(seed):
    lat = unit_torus(2, 3, 1)
    r = np.random.default_rng(seed)
    lam = random_field(lat, "site", r)
    A = random_field(lat, BOND, r)
    lhs = inner(grad(lam), A)
    rhs = inner(lam, codiff(BOND, lat)(A))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
