import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caxial.lattice import build_lattice, open_cube, unit_torus, fine_torus
from caxial.fields import (codiff, scale_field, apply_symmetry, random_field,
                           grad_matrix, ext_d_matrix, laplacian_matrix,
                           BOND, PLAQUETTE, SITE)

RTOL = 1e-12


def rng():
    return np.random.default_rng(7)


def inner(lat, f, g):
    """The weighted inner product spacing**dim * sum(f*g)."""
    return lat.spacing**lat.dim * float(f @ g)


def curl_energy(lat, A):
    dA = ext_d_matrix(lat) @ A
    return inner(lat, dA, dA)


def path_sum(values, lat, start, delta, order):
    """Oriented sum of bond values along one walk_bonds path."""
    bonds, signs, _ = lat.walk_bonds([lat.site_ordinal(start)], [delta],
                                     order)
    return float(signs[0] @ values[bonds[0]])


def test_grad_constant_zero():
    lat = unit_torus(2, 3, 1)
    f = np.ones(lat.n_sites)
    assert np.all(grad_matrix(lat) @ f == 0)


def test_grad_indicator():
    lat = unit_torus(2, 3, 1)
    x0 = lat.site_ordinal((0, 0))
    g = grad_matrix(lat) @ np.eye(lat.n_sites)[x0]
    for b, (s, mu) in enumerate(zip(lat.bond_sites, lat.bond_axes)):
        t = lat.next[mu, s]
        expect = (1 if t == x0 else 0) - (1 if s == x0 else 0)
        assert g[b] == expect


def test_d_of_grad_is_zero_exactly():
    for lat in (unit_torus(2, 3, 1), open_cube(3, 3), fine_torus(2, 3, 1, 1)):
        prod = ext_d_matrix(lat).toarray() @ grad_matrix(lat).toarray()
        assert np.all(prod == 0)


def test_grad_matrix_two_nonzeros_per_row():
    lat = unit_torus(3, 3, 1)
    m = grad_matrix(lat).toarray()
    assert all(np.count_nonzero(row) == 2 for row in m)


def test_adjointness():
    lat = fine_torus(2, 3, 1, 1)
    r = rng()
    A = random_field(lat, BOND, r)
    P = random_field(lat, PLAQUETTE, r)
    lhs = inner(lat, ext_d_matrix(lat) @ A, P)
    rhs = inner(lat, A, codiff(PLAQUETTE, lat) @ P)
    assert abs(lhs - rhs) <= RTOL * max(1.0, abs(lhs))


def test_codiff_of_grad_is_laplacian():
    lat = fine_torus(2, 3, 1, 1)
    delta = codiff(BOND, lat)
    assert delta.format == "csr"
    lap = delta.toarray() @ grad_matrix(lat).toarray()
    assert np.allclose(lap, laplacian_matrix(lat).toarray(), rtol=0,
                       atol=1e-12)
    # divided-difference Laplacian row sum is zero on the torus
    assert np.allclose(lap @ np.ones(lat.n_sites), 0, atol=1e-12)


def test_gauge_invariance_of_curl():
    lat = unit_torus(2, 3, 2)
    r = rng()
    A = random_field(lat, BOND, r)
    lam = r.standard_normal(lat.n_sites)
    d = ext_d_matrix(lat)
    assert np.allclose(d @ (A - grad_matrix(lat) @ lam), d @ A, atol=1e-12)


def test_path_sum_telescopes():
    lat = unit_torus(2, 3, 2)
    r = rng()
    lam = r.standard_normal(lat.n_sites)
    g = grad_matrix(lat) @ lam
    # (-3, 2) -> (2, -1) by the centered displacement (-4, -3) on the 9-torus
    expect = lam[lat.site_ordinal((2, -1))] - lam[lat.site_ordinal((-3, 2))]
    assert abs(path_sum(g, lat, (-3, 2), (-4, -3), (0, 1)) - expect) < 1e-12
    assert path_sum(g, lat, (0, 0), (0, 0), (0, 1)) == 0


def test_weighted_path_sum_of_divided_gradient():
    # on a spacing 1/L lattice the weighted sum along a path recovers the
    # plain difference of endpoint values
    lat = fine_torus(2, 3, 1, 1)
    r = rng()
    lam = r.standard_normal(lat.n_sites)
    g = grad_matrix(lat) @ lam
    expect = lam[lat.site_ordinal((2, 2))] - lam[lat.site_ordinal((0, 0))]
    weighted = lat.spacing * path_sum(g, lat, (0, 0), (2, 2), (0, 1))
    assert abs(weighted - expect) < 1e-12


def test_closed_path_of_curl_free_field():
    lat = unit_torus(2, 3, 2)
    r = rng()
    g = grad_matrix(lat) @ r.standard_normal(lat.n_sites)
    # contractible closed rectangle
    total = (path_sum(g, lat, (0, 0), (2, 0), (0,))
             + path_sum(g, lat, (2, 0), (0, 2), (1,))
             + path_sum(g, lat, (2, 2), (-2, 0), (0,))
             + path_sum(g, lat, (0, 2), (0, -2), (1,)))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("dim,n", [(2, 1), (3, 1), (2, 2)])
def test_scale_invariance_of_curl_energy(dim, n):
    N = 2
    lat = unit_torus(dim, 3, N)
    A = random_field(lat, BOND, rng())
    As = scale_field(lat, A, n)
    fine = build_lattice(lat.spec.rescaled(n))
    assert fine.spec.scale_exp == n
    assert abs(curl_energy(fine, As) - curl_energy(lat, A)) \
        <= 1e-12 * curl_energy(lat, A)
    back = scale_field(fine, As, -n)
    assert np.allclose(back, A)


def test_scale_field_factor_d3():
    lat = unit_torus(3, 3, 1)
    A = random_field(lat, BOND, rng())
    As = scale_field(lat, A, 1)
    assert np.allclose(As, 3**0.5 * A)


def test_inner_weight():
    lat = fine_torus(2, 3, 1, 1)
    A = random_field(lat, BOND, rng())
    assert lat.spacing**lat.dim == 3.0**-2
    assert abs(inner(lat, A, A) - 3.0**-2 * A @ A) < 1e-12


def test_symmetry_action_involution_and_identity():
    lat = unit_torus(2, 3, 1)
    A = random_field(lat, BOND, rng())
    syms = lat.symmetries()
    ident = [r for r in syms if r.perm == (0, 1) and r.signs == (1, 1)][0]
    assert np.allclose(apply_symmetry(ident, lat, BOND, A), A)
    refl = [r for r in syms if r.perm == (0, 1) and r.signs == (-1, 1)][0]
    assert np.allclose(apply_symmetry(refl, lat, BOND,
                                      apply_symmetry(refl, lat, BOND, A)), A)


def test_symmetry_commutes_with_grad():
    lat = unit_torus(2, 3, 1)
    r = rng()
    lam = r.standard_normal(lat.n_sites)
    g = grad_matrix(lat)
    for sym in lat.symmetries():
        lhs = g @ apply_symmetry(sym, lat, SITE, lam)
        rhs = apply_symmetry(sym, lat, BOND, g @ lam)
        assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjointness_grad_property(seed):
    lat = unit_torus(2, 3, 1)
    r = np.random.default_rng(seed)
    lam = random_field(lat, "site", r)
    A = random_field(lat, BOND, r)
    lhs = inner(lat, grad_matrix(lat) @ lam, A)
    rhs = inner(lat, lam, codiff(BOND, lat) @ A)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
